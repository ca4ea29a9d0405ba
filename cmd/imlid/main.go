// Command imlid serves predictor evaluation as a long-running HTTP
// service (DESIGN.md §9, docs/API.md): clients POST simulation jobs —
// predictor configuration × suite/benchmark × budget, or
// experiment-report jobs — and the daemon deduplicates identical
// submissions, schedules them on a bounded worker pool backed by one
// shared simulation engine (one stream cache, one result store,
// shared snapshot resume), and streams per-job progress over SSE.
// Job results carry the same counters and the byte-identical summary
// lines the imlisim CLI prints.
//
// SIGINT/SIGTERM drains gracefully: submissions are rejected,
// outstanding jobs get -drain-timeout to finish (completed work is in
// the store, so a restart resumes incrementally), then the listener
// closes.
//
// With a -cache-dir (or an explicit -journal path), the daemon is
// crash-safe: accepted jobs are recorded in an fsynced journal before
// they are acknowledged, and a restart after a crash (kill -9, power
// loss) re-queues every incomplete job under its original ID — replay
// is cheap because completed work items are store hits and snapshots
// resume the rest (DESIGN.md §12). -rate-limit sheds per-caller
// overload with 429 + Retry-After.
//
// With -coordinator the daemon's engine stops simulating in-process
// and instead serves its work items as a worker-pull queue under
// /v1/work/ (DESIGN.md §14); worker processes (imlid -worker <url>)
// lease items, simulate them locally, and post results back.
// Distributed results are bit-identical to in-process runs; a worker
// lost mid-item is re-dispatched after -lease-ttl.
//
// Usage:
//
//	imlid -addr=:8327 -cache-dir=.imli-cache -snapshots
//	imlid -addr=:8327 -shards=4 -parallel=16 -job-workers=4
//	imlid -addr=:8327 -cache-dir=.imli-cache -rate-limit=20
//	imlid -addr=:8327 -coordinator -shards=4   # queue owner
//	imlid -worker http://host:8327             # fleet member
//	imlid -once                     # one-shot self-test loop, then exit
//
// Submit a job with curl:
//
//	curl -s localhost:8327/v1/jobs -d '{"type":"suite","config":"tage-gsc+imli","suite":"cbp4"}'
//	curl -N localhost:8327/v1/jobs/j1/events
//	curl -s localhost:8327/v1/jobs/j1/result
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/cliflags"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "imlid:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("imlid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8327", "listen address")
	eng := cliflags.Register(fs)
	jobWorkers := fs.Int("job-workers", 2, "max concurrently running jobs (simulation inside a job is bounded engine-wide by -parallel)")
	queueDepth := fs.Int("queue-depth", 1024, "max submitted-but-not-running jobs; a full queue rejects submissions with 429 + Retry-After")
	budget := fs.Int("budget", experiments.DefaultParams().Budget, "default branch records per trace for jobs that omit a budget")
	keepJobs := fs.Int("keep-jobs", 1000, "finished jobs retained in memory; older ones are evicted (their cached work stays in -cache-dir)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long outstanding jobs may finish after SIGTERM before being canceled")
	journalPath := fs.String("journal", "", "job journal path for crash-safe replay (default <cache-dir>/imlid.journal when -cache-dir is set)")
	noJournal := fs.Bool("no-journal", false, "disable the job journal even when -cache-dir is set")
	rateLimit := fs.Float64("rate-limit", 0, "per-caller API requests per second; past it callers get 429 + Retry-After (0 disables)")
	rateBurst := fs.Int("rate-burst", 0, "per-caller burst on top of -rate-limit (0 = ceil(rate-limit))")
	once := fs.Bool("once", false, "self-test mode: serve on an ephemeral port, run a client round trip (submit, dedup, SSE, result, bit-identity), then exit")
	dflags := cliflags.RegisterDist(fs)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if err := dflags.Validate(); err != nil {
		return err
	}
	if *once && (dflags.Coordinator || dflags.WorkerURL != "") {
		return fmt.Errorf("-once is an in-process self-test; it does not combine with -coordinator or -worker")
	}
	if dflags.WorkerURL != "" {
		if err := checkWorkerFlags(fs); err != nil {
			return err
		}
		return runWorker(stdout, dflags.WorkerURL, eng)
	}
	if err := cliflags.Positive("job-workers", *jobWorkers); err != nil {
		return err
	}
	if err := cliflags.Positive("queue-depth", *queueDepth); err != nil {
		return err
	}
	if err := cliflags.Positive("keep-jobs", *keepJobs); err != nil {
		return err
	}
	if err := cliflags.PositiveDuration("drain-timeout", *drainTimeout); err != nil {
		return err
	}
	if *rateLimit < 0 {
		return fmt.Errorf("-rate-limit must be >= 0, got %g", *rateLimit)
	}

	var jnl *journal.Journal
	path := *journalPath
	if path == "" && eng.CacheDir != "" {
		path = filepath.Join(eng.CacheDir, "imlid.journal")
	}
	if path != "" && !*noJournal {
		var err error
		if jnl, err = journal.Open(path); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		defer jnl.Close()
		if n := len(jnl.Pending()); n > 0 {
			fmt.Fprintf(stdout, "imlid: journal %s: replaying %d incomplete job(s)\n", path, n)
		}
	}

	engCfg := eng.Config()
	var coord *dist.Coordinator
	var workHandler http.Handler
	if dflags.Coordinator {
		coord = dist.NewCoordinator(dist.CoordinatorConfig{LeaseTTL: dflags.LeaseTTL})
		defer coord.Close()
		engCfg.Remote = coord
		workHandler = coord.Handler()
	}
	newServer := func() *serve.Server {
		return serve.NewServer(serve.Config{
			Engine:        sim.NewEngine(engCfg),
			JobWorkers:    *jobWorkers,
			QueueDepth:    *queueDepth,
			DefaultBudget: *budget,
			KeepJobs:      *keepJobs,
			Journal:       jnl,
			RatePerSec:    *rateLimit,
			RateBurst:     *rateBurst,
			WorkHandler:   workHandler,
		})
	}

	if *once {
		return runOnce(stdout, newServer(), engCfg)
	}

	srv := newServer()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if coord != nil {
		fmt.Fprintf(stdout, "imlid: coordinating work items under /v1/work/ (lease TTL %s)\n", dflags.LeaseTTL)
	}
	fmt.Fprintf(stdout, "imlid: listening on %s (job workers %d, default budget %d)\n",
		ln.Addr(), *jobWorkers, *budget)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "imlid: %v: draining (timeout %s)\n", s, *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			fmt.Fprintf(stdout, "imlid: drain deadline hit, outstanding jobs canceled\n")
		}
		if coord != nil {
			// Jobs no longer need the fleet: answer the workers' parked
			// lease requests now, so Shutdown does not wait out a hold
			// for each of them.
			coord.Close()
		}
		// Jobs are finished (or canceled); now close the listener and
		// let in-flight responses — including event streams, which end
		// with their jobs — complete.
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		_ = httpSrv.Shutdown(shutCtx)
		fmt.Fprintln(stdout, "imlid: drained")
		return nil
	}
}

// workerFlags are the flags worker mode honors: the coordinator URL and
// the worker's local engine resources. Item geometry (shards, budget,
// warm-up, exact chaining) arrives with each lease, and every other
// flag configures the HTTP server or the coordinator, neither of which
// a worker runs.
var workerFlags = map[string]bool{"worker": true, "parallel": true, "cache-dir": true, "stream-mem": true, "snapshots": true}

// checkWorkerFlags rejects an explicitly set flag that worker mode
// would ignore, naming it, so a misdirected deployment fails at start
// instead of running without the setting it asked for.
func checkWorkerFlags(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !workerFlags[f.Name] {
			err = fmt.Errorf("-%s does not apply to a worker (-worker): it takes only -parallel, -cache-dir, -stream-mem and -snapshots", f.Name)
		}
	})
	return err
}

// runWorker runs the daemon as a worker-fleet member: lease loops
// pulling work items from the coordinator at baseURL until SIGINT or
// SIGTERM, one loop per -parallel slot (a further loop would only hold
// a lease while waiting on the engine's worker bound). The worker's
// engine flags are its own (-parallel bounds concurrent simulations,
// -cache-dir keeps its warm local store); item geometry — shards,
// budgets, warm-up — comes from each leased item. Killing a worker at
// any instant is safe: its leases expire and the coordinator
// re-dispatches the items.
func runWorker(stdout io.Writer, baseURL string, eng *cliflags.Engine) error {
	url, err := cliflags.ParseWorkerURL(baseURL)
	if err != nil {
		return err
	}
	engine := sim.NewEngine(eng.Config())
	slots := eng.Parallel
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "imlid: worker leasing from %s (slots %d)\n", url, slots)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		w := &dist.Worker{
			Client: client.New(url),
			Engine: engine,
			Name:   fmt.Sprintf("%s-%d-%d", host, os.Getpid(), i),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	wg.Wait()
	fmt.Fprintln(stdout, "imlid: worker stopped")
	return nil
}

// runOnce exercises the full service loop in-process — the smoke test
// CI runs: serve on an ephemeral port, submit a suite job through the
// public client, verify in-flight dedup returns the same job, stream
// its SSE events, fetch the result, and check it is bit-identical to
// the same run on a directly-driven engine (the imlisim code path).
func runOnce(stdout io.Writer, srv *serve.Server, engCfg sim.EngineConfig) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := client.New("http://" + ln.Addr().String())

	const config, suite, budget = "gshare", "cbp4", 5000
	spec := client.Spec{Type: client.JobSuite, Config: config, Suite: suite, Budget: budget}
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	dup, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("dup submit: %w", err)
	}
	if !dup.Dedup || dup.ID != job.ID {
		return fmt.Errorf("dedup failed: got job %s (dedup=%v), want %s", dup.ID, dup.Dedup, job.ID)
	}

	events := 0
	final, err := c.Wait(ctx, job.ID, func(client.Event) { events++ })
	if err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	if final.Status != client.StatusDone {
		return fmt.Errorf("job finished %s: %s", final.Status, final.Error)
	}
	res, err := c.Result(ctx, job.ID)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}

	// The reference run: a fresh engine of the same geometry but with
	// no store (so nothing is shared with the service run), driven
	// exactly like `imlisim -predictor=gshare -suite=cbp4 ...` drives
	// it — results must match line for line and counter for counter.
	refCfg := engCfg
	refCfg.Store, refCfg.CacheDir = nil, ""
	ref := sim.NewEngine(refCfg).RunSuite(
		func() predictor.Predictor { return predictor.MustNew(config) },
		config, suite, workload.Suites()[suite], budget)
	if len(res.Suite.Results) != len(ref.Results) {
		return fmt.Errorf("result count mismatch: service %d, direct %d", len(res.Suite.Results), len(ref.Results))
	}
	for i, got := range res.Suite.Results {
		if want := sim.FormatResult(ref.Results[i]); got.Text != want {
			return fmt.Errorf("trace %s not bit-identical:\nservice: %s\ndirect:  %s", got.Trace, got.Text, want)
		}
	}
	// The suite line's cache accounting reflects the service's store
	// (a warm -cache-dir legitimately differs from the storeless
	// reference), so only compare it when the service run was cold.
	if res.Suite.CachedShards == 0 {
		if got, want := res.Suite.Text, sim.FormatSuiteLine(ref); got != want {
			return fmt.Errorf("suite line not bit-identical:\nservice: %s\ndirect:  %s", got, want)
		}
	}
	fmt.Fprintf(stdout, "self-test ok: %s over %s, %d traces bit-identical to imlisim, %d events streamed\n",
		config, suite, len(ref.Results), events)
	return nil
}
