package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/num"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The load is sized for a 2-vCPU host: two fleet workers and two
// closed-loop clients, and every engine the workloads measure runs one
// simulation at a time. On a shared host the second vCPU's speed
// depends on what the host runs beside it: with two engine workers,
// suite-cold's throughput switched between two levels some 25% apart
// from run to run, and with one it held within 9%.
const (
	engineWorkers = 1
	fleetWorkers  = 2
	clients       = 2
)

// sizes fixes how much work a workload does per job. fullSizes is the
// benchmark; the tests run the same code at tinySizes.
type sizes struct {
	// minReps is the least number of repetitions a run makes, however
	// short its time budget.
	minReps int

	coldConfigs []string
	coldBudget  int

	// sweepTraces picks the fixed trace subset by index into each suite.
	sweepTraces                      []int
	sweepBase, sweepStep, sweepSteps int

	// serviceConfigs are the configurations of the new bench jobs,
	// three jobs each per round.
	serviceConfigs                    []string
	serviceBudget, serviceSuiteBudget int

	fleetConfig                           string
	fleetBudget, fleetShards, fleetWarmup int

	// probeItems and probeBudget bound the traced run's layer replays.
	probeItems, probeBudget int
}

var fullSizes = sizes{
	minReps:     3,
	coldConfigs: []string{"tage-sc-l+imli", "gehl+imli"},
	coldBudget:  10000,

	sweepTraces: []int{0, 20},
	sweepBase:   4000, sweepStep: 250, sweepSteps: 8,

	serviceConfigs: []string{"gehl", "tage-gsc", "gehl+imli", "tage-gsc+imli"},
	serviceBudget:  50000, serviceSuiteBudget: 10000,

	fleetConfig: "gehl+imli",
	fleetBudget: 8000, fleetShards: 4, fleetWarmup: 1000,

	probeItems: 6, probeBudget: 20000,
}

var suiteNames = []string{"cbp4", "cbp3"}

// env is what every workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	sz      sizes
	// tracer is the traced run's span recorder, nil in untraced runs.
	// A traced run alternates traced and untraced repetitions, so tr
	// is the tracer or nil for the repetition in progress.
	tracer, tr *tracer
	// scratch is this process's directory for stores and journals.
	scratch string
	// keep retains the last repetition's store and journal so the
	// traced run can time the layer calls on the entries it wrote.
	keep bool
}

// loop calls rep until the run's time budget is spent, and at least
// minReps times. In a traced run every second repetition is traced,
// so traced and untraced throughput are measured side by side.
func (e *env) loop(st *runStats, rep func() error) error {
	minReps := e.sz.minReps
	if e.tracer != nil {
		minReps = max(minReps, 4)
	}
	defer func() { e.tr = e.tracer }()
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < e.seconds; n++ {
		e.tr = nil
		if n%2 == 1 {
			e.tr = e.tracer
		}
		first := len(st.reps)
		if err := rep(); err != nil {
			return err
		}
		for i := first; i < len(st.reps); i++ {
			st.reps[i].traced = e.tr != nil
		}
	}
	return nil
}

// groupKey identifies one delivered suite result: everything its
// counters are a function of. Variant is the workload.Reseeded seed
// variant of the streams; Traces, when set, is the comma-joined subset
// of the suite's benchmarks that ran.
type groupKey struct {
	Config  string
	Suite   string
	Traces  string
	Variant int64
	Budget  int
	Shards  int
	Warmup  int
}

func (k groupKey) String() string {
	return fmt.Sprintf("%s|%s|%s|v%d|b%d|s%d|w%d", k.Config, k.Suite, k.Traces, k.Variant, k.Budget, k.Shards, k.Warmup)
}

// benches rebuilds the benchmark list the group ran.
func (k groupKey) benches() ([]workload.Benchmark, error) {
	all, ok := workload.Suites()[k.Suite]
	if !ok {
		return nil, fmt.Errorf("unknown suite %q", k.Suite)
	}
	if k.Traces == "" {
		return workload.Reseed(all, k.Variant), nil
	}
	var out []workload.Benchmark
	for _, name := range strings.Split(k.Traces, ",") {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b.Reseeded(k.Variant))
	}
	return out, nil
}

// outcome is one delivered suite result of one job.
type outcome struct {
	job     int
	key     groupKey
	results []sim.Result
}

// rep is one timed repetition: its wall time, the branch records
// covered by the results it delivered, and the jobs it completed.
type rep struct {
	wall    time.Duration
	records uint64
	jobs    int
	traced  bool
}

// engineCounts accumulates the engines' own counters over job phases.
type engineCounts struct {
	simulated, hits, records, resumed uint64
	generated, streamHits, spillLoads uint64
	storeBytes                        int64
}

func countEngine(eng *sim.Engine) engineCounts {
	s := eng.Stats()
	c := engineCounts{simulated: s.Simulated, hits: s.CacheHits, records: s.RecordsSimulated, resumed: s.Resumed}
	if sc := eng.Streams(); sc != nil {
		ss := sc.Stats()
		c.generated, c.streamHits, c.spillLoads = ss.Generated, ss.Hits, ss.SpillLoads
	}
	return c
}

func (c *engineCounts) add(after, before engineCounts) {
	c.simulated += after.simulated - before.simulated
	c.hits += after.hits - before.hits
	c.records += after.records - before.records
	c.resumed += after.resumed - before.resumed
	c.generated += after.generated - before.generated
	c.streamHits += after.streamHits - before.streamHits
	c.spillLoads += after.spillLoads - before.spillLoads
}

// serveCounts holds what the service clients observed.
type serveCounts struct {
	submits, dedups, cacheHits, shed int
	submit, queue, run, result       []time.Duration
}

// distCounts holds the fleet's coordinator counters and item timings.
type distCounts struct {
	dispatched, expired, requeued, duplicates, mismatches uint64
	item                                                  []time.Duration
	// itemRecords estimates the records each dispatched item fed.
	itemRecords uint64
}

// runStats is everything one workload run measured.
type runStats struct {
	setups    []time.Duration
	reps      []rep
	latencies []time.Duration
	outcomes  []outcome
	jobs      int
	failed    map[int]string
	// cpu is process CPU time spent in job phases (set-up excluded);
	// busy and steal are the VM's CPU ticks over the same phases.
	cpu         time.Duration
	busy, steal uint64

	hasStore, hasSnap bool
	eng               engineCounts
	serve             serveCounts
	dist              distCounts
	// keptStore and keptJournal are the last repetition's store root
	// and journal, when env.keep is set.
	keptStore, keptJournal string
}

func newRunStats() *runStats { return &runStats{failed: map[int]string{}} }

func (st *runStats) newJob() int {
	st.jobs++
	return st.jobs - 1
}

func (st *runStats) fail(job int, err error) {
	if _, dup := st.failed[job]; !dup {
		st.failed[job] = err.Error()
	}
}

func (st *runStats) add(job int, key groupKey, results []sim.Result) uint64 {
	st.outcomes = append(st.outcomes, outcome{job: job, key: key, results: results})
	var n uint64
	for _, r := range results {
		n += r.Records
	}
	return n
}

// keepDir swaps in the latest repetition's directory as the kept one,
// or removes it when nothing is kept. Removal is best-effort: the
// whole scratch directory is removed at exit.
func (st *runStats) keepDir(e *env, dir, store, jnl string) {
	if !e.keep {
		_ = os.RemoveAll(dir)
		return
	}
	if st.keptStore != "" {
		_ = os.RemoveAll(filepath.Dir(st.keptStore))
	}
	st.keptStore, st.keptJournal = store, jnl
}

// meter times one repetition's job phases on the wall clock, the
// process CPU clock and the VM's CPU tick counters. A shared host can
// withhold CPU time from the VM while it is runnable ("steal"), which
// stretches wall time without the program doing anything different.
// done scales the repetition's wall time and job latencies by the share
// of the runnable CPU time the host gave the VM, so that they measure
// the program rather than the host's other tenants.
type meter struct {
	st          *runStats
	r           rep
	lat         []time.Duration
	busy, steal uint64
	// the open phase
	t0 time.Time
	c0 time.Duration
	k0 ticks
}

func (st *runStats) meter() *meter { return &meter{st: st} }

func (m *meter) start() { m.t0, m.c0, m.k0 = time.Now(), cpuTime(), readTicks() }

// stop closes the phase and returns its unscaled wall time.
func (m *meter) stop() time.Duration {
	wall, cpu, k := time.Since(m.t0), cpuTime()-m.c0, readTicks()
	m.r.wall += wall
	m.st.cpu += cpu
	m.busy += k.busy - m.k0.busy
	m.steal += k.steal - m.k0.steal
	return wall
}

// done records the repetition with its steal-scaled times.
func (m *meter) done() {
	f := received(m.busy, m.steal)
	m.r.wall = scale(m.r.wall, f)
	for _, l := range m.lat {
		m.st.latencies = append(m.st.latencies, scale(l, f))
	}
	m.st.reps = append(m.st.reps, m.r)
	m.st.busy += m.busy
	m.st.steal += m.steal
}

// setup times one set-up like a job phase.
func (st *runStats) setup(t0 time.Time, k0 ticks) {
	k := readTicks()
	st.setups = append(st.setups, scale(time.Since(t0), received(k.busy-k0.busy, k.steal-k0.steal)))
}

// ticks are the VM's CPU time counters from /proc/stat, summed over its
// vCPUs, in clock ticks: busy (user, nice, system, irq, softirq) and
// steal.
type ticks struct{ busy, steal uint64 }

func readTicks() ticks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64) // a malformed field reads as 0
	}
	return ticks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// received is the share of its runnable CPU time the host gave the VM.
func received(busy, steal uint64) float64 {
	if busy+steal == 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// builder builds a registry configuration. The workloads' names are
// fixed registry names, so MustNew cannot fail on them.
func builder(config string) func() predictor.Predictor {
	return func() predictor.Predictor { return predictor.MustNew(config) }
}

// runSuite is the benchmark's one call into the engine, spanned.
func runSuite(e *env, parent int64, eng *sim.Engine, config, suite string, benches []workload.Benchmark, budget int) ([]sim.Result, error) {
	sp := e.tr.begin("sim.RunSuiteContext", parent)
	run, err := eng.RunSuiteContext(context.Background(), builder(config), config, suite, benches, budget, nil)
	e.tr.end(sp)
	return run.Results, err
}

func reseeded(seed int64) map[string][]workload.Benchmark {
	out := map[string][]workload.Benchmark{}
	for name, benches := range workload.Suites() {
		out[name] = workload.Reseed(benches, seed)
	}
	return out
}

// suiteCold runs the paper's two IMLI hosts over all 80 traces on a
// fresh in-process engine per repetition: unsharded, no result store,
// so every job generates its streams and simulates every record.
func suiteCold(e *env, st *runStats) error {
	return e.loop(st, func() error {
		t0, k0 := time.Now(), readTicks()
		benches := reseeded(e.seed)
		eng := sim.NewEngine(sim.EngineConfig{Workers: engineWorkers})
		before := countEngine(eng)
		st.setup(t0, k0)

		job := st.newJob()
		root := e.tr.begin("job", 0)
		m := st.meter()
		m.start()
		for _, cfg := range e.sz.coldConfigs {
			for _, s := range suiteNames {
				res, err := runSuite(e, root, eng, cfg, s, benches[s], e.sz.coldBudget)
				if err != nil {
					st.fail(job, err)
					continue
				}
				m.r.records += st.add(job, groupKey{Config: cfg, Suite: s, Variant: e.seed, Budget: e.sz.coldBudget, Shards: 1}, res)
			}
		}
		m.lat = append(m.lat, m.stop())
		e.tr.end(root)
		m.r.jobs = 1
		m.done()
		st.eng.add(countEngine(eng), before)
		return nil
	})
}

// sweepSubset is the fixed trace subset of the sweep, per suite.
func sweepSubset(e *env) map[string]groupKey {
	out := map[string]groupKey{}
	suites := workload.Suites()
	for _, s := range suiteNames {
		var names []string
		for _, i := range e.sz.sweepTraces {
			names = append(names, suites[s][i].Name)
		}
		out[s] = groupKey{Suite: s, Traces: strings.Join(names, ","), Variant: e.seed, Shards: 1}
	}
	return out
}

// sweepResume primes a fresh snapshot-enabled store at the base budget
// (set-up), then extends every registry configuration over the trace
// subset in short ascending budget steps; each step is one job.
func sweepResume(e *env, st *runStats) error {
	st.hasStore, st.hasSnap = true, true
	configs := predictor.Names()
	subset := sweepSubset(e)
	benches := map[string][]workload.Benchmark{}
	for s, k := range subset {
		b, err := k.benches()
		if err != nil {
			return err
		}
		benches[s] = b
	}
	step := func(eng *sim.Engine, job int, parent int64, budget int) uint64 {
		var covered uint64
		for _, cfg := range configs {
			for _, s := range suiteNames {
				res, err := runSuite(e, parent, eng, cfg, s, benches[s], budget)
				if err != nil {
					st.fail(job, err)
					continue
				}
				k := subset[s]
				k.Config, k.Budget = cfg, budget
				covered += st.add(job, k, res)
			}
		}
		return covered
	}
	return e.loop(st, func() error {
		t0, k0 := time.Now(), readTicks()
		dir, err := os.MkdirTemp(e.scratch, "sweep-")
		if err != nil {
			return err
		}
		store := filepath.Join(dir, "cache")
		eng := sim.NewEngine(sim.EngineConfig{Workers: engineWorkers, Store: sim.OpenStore(store), Snapshots: true})
		// The primed prefixes are delivered results too, so they are
		// checked with the first step's job.
		first := st.newJob()
		step(eng, first, 0, e.sz.sweepBase)
		st.setup(t0, k0)
		before, bytes0 := countEngine(eng), dirBytes(store)

		m := st.meter()
		for i := 1; i <= e.sz.sweepSteps; i++ {
			job := first
			if i > 1 {
				job = st.newJob()
			}
			root := e.tr.begin("job", 0)
			m.start()
			m.r.records += step(eng, job, root, e.sz.sweepBase+i*e.sz.sweepStep)
			m.lat = append(m.lat, m.stop())
			e.tr.end(root)
			m.r.jobs++
		}
		m.done()
		st.eng.add(countEngine(eng), before)
		st.eng.storeBytes += dirBytes(store) - bytes0
		st.keepDir(e, dir, store, "")
		return nil
	})
}

// serviceMix draws the service-jobs queue from the seed. Both clients
// take their next job from the one queue, so a round's load does not
// depend on the order. The make-up is fixed, so that seeds vary the
// inputs but not the kind of load, and the median and 90th percentile
// latencies fall inside the class of new bench jobs rather than between
// two classes: per suite (cbp4 with bimodal, cbp3 with gshare) one small
// suite job and, at least four jobs later, one bench job it already
// simulated (a store hit); three new bench jobs per service
// configuration; two resubmissions of earlier bench specs
// (deduplicated by the server); and two twin pairs,
// identical specs queued back to back so that the clients usually
// submit them at the same moment (deduplicated in flight). The seed
// picks the order and the benchmarks.
func serviceMix(seed int64, sz sizes) []client.Spec {
	rng := num.NewRand(uint64(seed)*0x9E3779B97F4A7C15 + 1)
	all := workload.All()
	suites := workload.Suites()
	newBench := func(config string) client.Spec {
		return client.Spec{Type: client.JobBench, Config: config,
			Bench: all[rng.Intn(len(all))].Name, Budget: sz.serviceBudget}
	}
	suiteJobs := make([]client.Spec, len(suiteNames))
	for i, name := range suiteNames {
		suiteJobs[i] = client.Spec{Type: client.JobSuite, Config: []string{"bimodal", "gshare"}[i%2],
			Suite: name, Budget: sz.serviceSuiteBudget}
	}
	// A unit is one queue entry, or a twin pair kept back to back.
	type unit struct {
		kind int
		spec client.Spec
	}
	const (
		kindNew = iota
		kindSuite
		kindRepeat
		kindTwin
	)
	var units []unit
	for _, cfg := range sz.serviceConfigs {
		for i := 0; i < 3; i++ {
			units = append(units, unit{kindNew, client.Spec{Config: cfg}})
		}
	}
	for _, sj := range suiteJobs {
		units = append(units, unit{kindSuite, sj})
	}
	for i := 0; i < 2; i++ {
		units = append(units, unit{kind: kindRepeat})
	}
	for i := 0; i < 2; i++ {
		units = append(units, unit{kindTwin, client.Spec{Config: sz.serviceConfigs[i%len(sz.serviceConfigs)]}})
	}
	for i := len(units) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		units[i], units[j] = units[j], units[i]
	}
	// A resubmission needs an earlier bench job, and a suite job room
	// for its store hit after it.
	if units[0].kind == kindRepeat {
		j := slices.IndexFunc(units, func(u unit) bool { return u.kind == kindNew })
		units[0], units[j] = units[j], units[0]
	}
	for i := max(0, len(units)-6); i < len(units); i++ {
		if units[i].kind == kindSuite {
			j := rng.Intn(len(units) / 2)
			units[i], units[j] = units[j], units[i]
		}
	}
	var queue []client.Spec
	var benches []client.Spec
	for _, u := range units {
		switch u.kind {
		case kindNew:
			s := newBench(u.spec.Config)
			queue, benches = append(queue, s), append(benches, s)
		case kindSuite:
			queue = append(queue, u.spec)
		case kindRepeat:
			if len(benches) == 0 {
				benches = append(benches, newBench(sz.serviceConfigs[0]))
			}
			queue = append(queue, benches[rng.Intn(len(benches))])
		case kindTwin:
			s := newBench(u.spec.Config)
			queue, benches = append(queue, s, s), append(benches, s)
		}
	}
	for _, sj := range suiteJobs {
		at := min(slices.Index(queue, sj)+4, len(queue))
		at += rng.Intn(len(queue) - at + 1)
		members := suites[sj.Suite]
		hit := client.Spec{Type: client.JobBench, Config: sj.Config,
			Bench: members[rng.Intn(len(members))].Name, Budget: sj.Budget}
		queue = slices.Insert(queue, at, hit)
	}
	return queue
}

// specKey maps a service job spec onto the group its result covers.
// The service simulates the base streams (variant 0).
func specKey(s client.Spec) (groupKey, error) {
	k := groupKey{Config: s.Config, Suite: s.Suite, Budget: s.Budget, Shards: 1}
	if s.Type == client.JobBench {
		b, err := workload.ByName(s.Bench)
		if err != nil {
			return k, err
		}
		k.Suite, k.Traces = b.Suite, b.Name
	}
	return k, nil
}

// serviceJobs runs rounds of the closed-loop job mix, each against a
// fresh imlid server (journal + store in a new directory) on loopback.
func serviceJobs(e *env, st *runStats) error {
	queue := serviceMix(e.seed, e.sz)
	return e.loop(st, func() error { return serviceRound(e, st, queue) })
}

// serviceRound starts a server (set-up), has two clients work through
// the queue, then drains the server.
func serviceRound(e *env, st *runStats, queue []client.Spec) error {
	st.hasStore = true
	t0, k0 := time.Now(), readTicks()
	dir, err := os.MkdirTemp(e.scratch, "serve-")
	if err != nil {
		return err
	}
	jpath := filepath.Join(dir, "imlid.journal")
	jnl, err := journal.Open(jpath)
	if err != nil {
		return err
	}
	store := filepath.Join(dir, "cache")
	eng := sim.NewEngine(sim.EngineConfig{Workers: engineWorkers, CacheDir: store})
	srv := serve.NewServer(serve.Config{Engine: eng, JobWorkers: clients, Journal: jnl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		_ = jnl.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	before := countEngine(eng)
	st.setup(t0, k0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	jobs := make([]int, len(queue))
	for i := range jobs {
		jobs[i] = st.newJob()
	}
	var mu sync.Mutex
	next := 0
	m := st.meter()
	m.start()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client.Client{BaseURL: url, Retry: &client.RetryPolicy{MaxAttempts: 1}}
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(queue) {
					return
				}
				o, err := serviceJob(ctx, e, cl, queue[i])
				mu.Lock()
				if err != nil {
					st.fail(jobs[i], err)
				} else {
					m.r.records += st.add(jobs[i], o.key, o.results)
					m.lat = append(m.lat, o.latency)
					st.serve.record(o)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.stop()
	m.r.jobs = len(queue)
	m.done()

	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	// Every job has finished and every client call has returned, so the
	// listener and its connections can close at once; Shutdown would
	// poll for idle connections for up to half a second.
	err = errors.Join(srv.Drain(dctx), hs.Close())
	if serr := <-served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, jnl.Close())
	st.eng.add(countEngine(eng), before)
	st.eng.storeBytes += dirBytes(store)
	st.keepDir(e, dir, store, jpath)
	return err
}

// serviceOutcome is one client round trip.
type serviceOutcome struct {
	key                     groupKey
	results                 []sim.Result
	latency, submit, result time.Duration
	queue, run              time.Duration
	dedup, cached           bool
	shed                    int
	overhead                time.Duration
}

// serviceJob submits one spec, waits for its job and fetches the
// result: the job latency is submit→result.
func serviceJob(ctx context.Context, e *env, cl *client.Client, spec client.Spec) (serviceOutcome, error) {
	var o serviceOutcome
	key, err := specKey(spec)
	if err != nil {
		return o, err
	}
	o.key = key
	root := e.tr.begin("job", 0)
	defer e.tr.end(root)
	t0 := time.Now()
	var job client.Job
	for {
		sp := e.tr.begin("client.Submit", root)
		job, err = cl.Submit(ctx, spec)
		e.tr.end(sp)
		var he *client.Error
		if errors.As(err, &he) && he.StatusCode == http.StatusTooManyRequests {
			o.shed++
			select {
			case <-time.After(he.RetryAfter):
			case <-ctx.Done():
				return o, ctx.Err()
			}
			continue
		}
		if err != nil {
			return o, fmt.Errorf("submit %+v: %w", spec, err)
		}
		break
	}
	o.submit = time.Since(t0)
	o.dedup = job.Dedup
	wait := e.tr.begin("client.Wait", root)
	final, err := cl.Wait(ctx, job.ID, nil)
	e.tr.end(wait)
	if err != nil {
		return o, fmt.Errorf("wait %s: %w", job.ID, err)
	}
	if final.Status != client.StatusDone {
		return o, fmt.Errorf("job %s %s: %s", final.ID, final.Status, final.Error)
	}
	r0 := time.Now()
	sp := e.tr.begin("client.Result", root)
	res, err := cl.Result(ctx, job.ID)
	e.tr.end(sp)
	if err != nil {
		return o, fmt.Errorf("result %s: %w", job.ID, err)
	}
	t1 := time.Now()
	o.result, o.latency = t1.Sub(r0), t1.Sub(t0)
	if res.Suite == nil {
		return o, fmt.Errorf("job %s: result has no suite payload", job.ID)
	}
	o.cached = res.Suite.RanShards == 0
	for _, tr := range res.Suite.Results {
		o.results = append(o.results, sim.Result{Trace: tr.Trace, Predictor: tr.Predictor,
			Instructions: tr.Instructions, Records: tr.Records,
			Conditionals: tr.Conditionals, Mispredicted: tr.Mispredicted})
	}
	o.queue, o.run = final.Started.Sub(final.Created), final.Finished.Sub(final.Started)
	// The job this round trip was served by, possibly another client's,
	// queued and ran inside the wait.
	e.tr.span("serve.queue", wait, final.Created, final.Started)
	e.tr.span("serve.run", wait, final.Started, final.Finished)
	return o, nil
}

func (s *serveCounts) record(o serviceOutcome) {
	s.submits++
	s.shed += o.shed
	s.submit = append(s.submit, o.submit)
	s.result = append(s.result, o.result)
	if o.dedup {
		s.dedups++
		return
	}
	if o.cached {
		s.cacheHits++
	}
	s.queue = append(s.queue, o.queue)
	s.run = append(s.run, o.run)
}

// timedRunner is the engine's RemoteRunner seam in front of the
// coordinator: it times every dispatched item.
type timedRunner struct {
	next   sim.RemoteRunner
	e      *env
	parent int64
	mu     sync.Mutex
	item   []time.Duration
	fed    uint64
}

func (r *timedRunner) RunItem(ctx context.Context, item sim.ItemSpec) ([]sim.Result, error) {
	sp := r.e.tr.begin("dist.RunItem", r.parent)
	t0 := time.Now()
	res, err := r.next.RunItem(ctx, item)
	d := time.Since(t0)
	r.e.tr.end(sp)
	start := workload.ShardStart(item.Budget, item.Shard, item.Shards)
	fed := start + workload.ShardBudget(item.Budget, item.Shard, item.Shards) - max(0, start-item.Warmup)
	r.mu.Lock()
	r.item = append(r.item, d)
	r.fed += uint64(fed)
	r.mu.Unlock()
	return res, err
}

// fleetPlan is one fleet repetition: a sharded suite run per suite.
type fleetPlan struct {
	config                 string
	benches                map[string][]workload.Benchmark
	keys                   map[string]groupKey
	budget, shards, warmup int
}

func fleetPlanFor(e *env) fleetPlan {
	p := fleetPlan{config: e.sz.fleetConfig, benches: reseeded(e.seed), keys: map[string]groupKey{},
		budget: e.sz.fleetBudget, shards: e.sz.fleetShards, warmup: e.sz.fleetWarmup}
	for _, s := range suiteNames {
		p.keys[s] = groupKey{Config: p.config, Suite: s, Variant: e.seed, Budget: p.budget, Shards: p.shards, Warmup: p.warmup}
	}
	return p
}

// fleet runs each repetition on a fresh loopback cluster of two
// workers behind a coordinating engine; each suite is one job.
func fleet(e *env, st *runStats) error {
	plan := fleetPlanFor(e)
	return e.loop(st, func() error { return fleetRep(e, st, plan) })
}

func fleetRep(e *env, st *runStats, plan fleetPlan) error {
	t0, k0 := time.Now(), readTicks()
	workers := make([]*sim.Engine, fleetWorkers)
	cl, err := dist.StartLocal(fleetWorkers, dist.CoordinatorConfig{}, func(i int) *sim.Engine {
		workers[i] = sim.NewEngine(sim.EngineConfig{Workers: 1})
		return workers[i]
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	runner := &timedRunner{next: cl.Coordinator, e: e}
	eng := sim.NewEngine(sim.EngineConfig{Workers: engineWorkers, Shards: plan.shards, Warmup: plan.warmup, Remote: runner})
	before := make([]engineCounts, len(workers))
	for i, w := range workers {
		before[i] = countEngine(w)
	}
	st.setup(t0, k0)

	m := st.meter()
	for _, s := range suiteNames {
		if plan.benches[s] == nil {
			continue
		}
		job := st.newJob()
		root := e.tr.begin("job", 0)
		runner.parent = root
		m.start()
		res, err := runSuite(e, root, eng, plan.config, s, plan.benches[s], plan.budget)
		m.lat = append(m.lat, m.stop())
		e.tr.end(root)
		if err != nil {
			st.fail(job, err)
		} else {
			m.r.records += st.add(job, plan.keys[s], res)
		}
		m.r.jobs++
	}
	m.done()
	cs := cl.Coordinator.Stats()
	st.dist.dispatched += cs.Dispatched
	st.dist.expired += cs.Expired
	st.dist.requeued += cs.Requeued
	st.dist.duplicates += cs.Duplicates
	st.dist.mismatches += cs.Mismatches
	st.dist.item = append(st.dist.item, runner.item...)
	st.dist.itemRecords += runner.fed
	for i, w := range workers {
		st.eng.add(countEngine(w), before[i])
	}
	return nil
}
