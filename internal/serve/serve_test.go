package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// startServer returns a serve.Server on a real HTTP listener (SSE
// needs a flushing ResponseWriter) plus a client pointed at it.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client) {
	t.Helper()
	srv := serve.NewServer(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		hs.Close()
	})
	return srv, client.New(hs.URL)
}

func TestSubmitValidation(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	ctx := context.Background()
	bad := []client.Spec{
		{Type: "nope"},
		{Type: client.JobSuite, Config: "gshare", Suite: "cbp9"},
		{Type: client.JobSuite, Config: "not-a-predictor", Suite: "cbp4"},
		{Type: client.JobSuite, Config: "gshare", Suite: "cbp4", Bench: "SPEC2K6-12"},
		{Type: client.JobBench, Config: "gshare", Bench: "no-such-bench"},
		{Type: client.JobExperiment, Experiment: "no-such-exp"},
		{Type: client.JobExperiment, Experiment: "e1", Config: "gshare"},
		{Type: client.JobSuite, Config: "gshare", Suite: "cbp4", Budget: -1},
	}
	for _, spec := range bad {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		} else if he, ok := err.(*client.Error); !ok || he.StatusCode != 400 {
			t.Errorf("Submit(%+v) = %v, want a 400 client.Error", spec, err)
		}
	}
	if _, err := c.Job(ctx, "j999"); err == nil {
		t.Error("Job(j999) should 404")
	}
}

// TestSubmitBodyBounded: a submission body past 1 MiB is refused with
// 413 without being decoded; malformed JSON stays a 400.
func TestSubmitBodyBounded(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain(context.Background())
	cases := []struct {
		name, body string
		want       int
	}{
		{"oversized", `{"type":"suite","config":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"malformed", `{"type":`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s body: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestSubmitStatusResultLifecycle(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	ctx := context.Background()

	spec := client.Spec{Type: client.JobBench, Config: "gshare", Bench: "SPEC2K6-12", Budget: 3000}
	j, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.Spec.Budget != 3000 || j.ID == "" {
		t.Fatalf("submit view = %+v, want normalized spec and an ID", j)
	}
	if j.Created.IsZero() {
		t.Errorf("submit view has zero Created time")
	}

	// Result before completion must answer 409 (it may race completion
	// on a fast machine, so only check the error *type* when present).
	if _, err := c.Result(ctx, j.ID); err != nil {
		if he, ok := err.(*client.Error); !ok || he.StatusCode != 409 {
			t.Errorf("early Result error = %v, want 409", err)
		}
	}

	final, err := c.Wait(ctx, j.ID, nil)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.Status != client.StatusDone {
		t.Fatalf("job finished %s (%s), want done", final.Status, final.Error)
	}
	if final.Done != final.Total || final.Total != 1 {
		t.Errorf("progress = %d/%d, want 1/1", final.Done, final.Total)
	}
	if final.Started.IsZero() || final.Finished.IsZero() {
		t.Errorf("final view missing timestamps: %+v", final)
	}

	res, err := c.Result(ctx, j.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Type != client.JobBench || res.Suite == nil || res.Report != nil {
		t.Fatalf("result = %+v, want a suite payload for a bench job", res)
	}
	if len(res.Suite.Results) != 1 || res.Suite.Results[0].Trace != "SPEC2K6-12" {
		t.Fatalf("bench result = %+v, want exactly SPEC2K6-12", res.Suite.Results)
	}

	// The listing knows the job and the status endpoint agrees.
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("Jobs() = %v, %v; want the one job", jobs, err)
	}
	got, err := c.Job(ctx, j.ID)
	if err != nil || got.Status != client.StatusDone {
		t.Fatalf("Job(%s) = %+v, %v; want done", j.ID, got, err)
	}
}

func TestDupSubmitReturnsSameJob(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	ctx := context.Background()
	spec := client.Spec{Type: client.JobBench, Config: "bimodal", Bench: "MM-4", Budget: 2000}

	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if first.Dedup {
		t.Fatalf("first submission flagged dedup")
	}
	second, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("dup Submit: %v", err)
	}
	if !second.Dedup || second.ID != first.ID {
		t.Fatalf("dup = %+v, want dedup of %s", second, first.ID)
	}
	// Dedup also holds after completion: results are deterministic, so
	// the finished job is the answer.
	if _, err := c.Wait(ctx, first.ID, nil); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	third, err := c.Submit(ctx, spec)
	if err != nil || !third.Dedup || third.ID != first.ID {
		t.Fatalf("post-completion submit = %+v, %v; want dedup of %s", third, err, first.ID)
	}
	// A different budget is a different job.
	other := spec
	other.Budget = 2001
	fresh, err := c.Submit(ctx, other)
	if err != nil || fresh.Dedup || fresh.ID == first.ID {
		t.Fatalf("different-budget submit = %+v, %v; want a fresh job", fresh, err)
	}
}

// TestConcurrentIdenticalSubmissionsOneRun is the dedup contract under
// the race detector: N concurrent identical POSTs produce exactly one
// engine run (one work item per benchmark), not N.
func TestConcurrentIdenticalSubmissionsOneRun(t *testing.T) {
	engine := sim.NewEngine(sim.EngineConfig{})
	_, c := startServer(t, serve.Config{Engine: engine, JobWorkers: 4})
	ctx := context.Background()
	spec := client.Spec{Type: client.JobSuite, Config: "gshare", Suite: "cbp4", Budget: 1000}

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := c.Submit(ctx, spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s; want one job", i, ids[i], ids[0])
		}
	}
	if _, err := c.Wait(ctx, ids[0], nil); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	benches := len(workload.Suites()["cbp4"])
	if got := engine.Stats().Simulated; got != uint64(benches) {
		t.Fatalf("engine simulated %d work items, want exactly %d (one run)", got, benches)
	}
	if st, err := c.Stats(ctx); err != nil || st.Jobs[client.StatusDone] != 1 {
		t.Fatalf("Stats = %+v, %v; want exactly one done job", st, err)
	}
}

func TestSSEEventStream(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	ctx := context.Background()
	spec := client.Spec{Type: client.JobSuite, Config: "bimodal", Suite: "cbp3", Budget: 1000}
	j, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var types []string
	lastDone := 0
	err = c.Watch(ctx, j.ID, func(ev client.Event) error {
		types = append(types, ev.Type)
		if ev.Type == "progress" {
			if ev.Progress.Done <= lastDone {
				t.Errorf("progress Done not increasing: %d after %d", ev.Progress.Done, lastDone)
			}
			lastDone = ev.Progress.Done
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	benches := len(workload.Suites()["cbp3"])
	if types[0] != "status" || types[len(types)-1] != "done" {
		t.Fatalf("event types = %v, want status first and done last", types)
	}
	if lastDone != benches {
		t.Errorf("final progress Done = %d, want %d", lastDone, benches)
	}
	// A second watch after completion replays the identical history.
	var replay []string
	if err := c.Watch(ctx, j.ID, func(ev client.Event) error {
		replay = append(replay, ev.Type)
		return nil
	}); err != nil {
		t.Fatalf("replay Watch: %v", err)
	}
	if len(replay) != len(types) {
		t.Fatalf("replay saw %d events, live saw %d", len(replay), len(types))
	}
}

func TestExperimentJob(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	ctx := context.Background()
	j, err := c.Submit(ctx, client.Spec{Type: client.JobExperiment, Experiment: "e1", Budget: 500})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	logs := 0
	final, err := c.Wait(ctx, j.ID, func(ev client.Event) {
		if ev.Type == "log" {
			logs++
		}
	})
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.Status != client.StatusDone {
		t.Fatalf("experiment job finished %s (%s)", final.Status, final.Error)
	}
	if logs == 0 {
		t.Errorf("experiment job emitted no progress-line events")
	}
	res, err := c.Result(ctx, j.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Report == nil || res.Report.ID != "e1" || len(res.Report.Values) == 0 {
		t.Fatalf("experiment result = %+v, want a rendered e1 report with values", res)
	}
	if !strings.Contains(res.Report.Text, "MPKI") {
		t.Errorf("report text does not look rendered:\n%s", res.Report.Text)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// One job worker: the first job occupies it, the second queues.
	_, c := startServer(t, serve.Config{JobWorkers: 1})
	ctx := context.Background()
	first, err := c.Submit(ctx, client.Spec{Type: client.JobSuite, Config: "gshare", Suite: "cbp4", Budget: 2000})
	if err != nil {
		t.Fatalf("Submit first: %v", err)
	}
	// Heavy enough that even if it starts before the cancel lands, it
	// cannot finish first.
	spec := client.Spec{Type: client.JobSuite, Config: "tage-sc-l+imli", Suite: "cbp4", Budget: 200000}
	second, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit second: %v", err)
	}
	if err := c.Cancel(ctx, second.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	// Resubmit immediately — likely before the worker has observed the
	// cancellation. Submit must not latch onto the doomed job: its
	// context is already canceled, so a fresh job starts.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.Dedup || again.ID == second.ID {
		t.Fatalf("resubmit after cancel = %+v, want a fresh job", again)
	}
	final, err := c.Wait(ctx, second.ID, nil)
	if err != nil {
		t.Fatalf("Wait canceled: %v", err)
	}
	if final.Status != client.StatusCanceled {
		t.Fatalf("canceled job finished %s, want canceled", final.Status)
	}
	if err := c.Cancel(ctx, again.ID); err != nil {
		t.Fatalf("Cancel resubmitted: %v", err)
	}
	if _, err := c.Wait(ctx, first.ID, nil); err != nil {
		t.Fatalf("Wait first: %v", err)
	}
}

// TestFinishedJobEviction pins the retention bound: the in-memory job
// index keeps at most KeepJobs finished jobs, evicting the oldest so
// a long-running daemon's memory stays bounded.
func TestFinishedJobEviction(t *testing.T) {
	_, c := startServer(t, serve.Config{KeepJobs: 2, JobWorkers: 1})
	ctx := context.Background()
	benches := []string{"SPEC2K6-00", "SPEC2K6-01", "SPEC2K6-02", "SPEC2K6-03"}
	var ids []string
	for _, b := range benches {
		j, err := c.Submit(ctx, client.Spec{Type: client.JobBench, Config: "bimodal", Bench: b, Budget: 1000})
		if err != nil {
			t.Fatalf("Submit %s: %v", b, err)
		}
		if _, err := c.Wait(ctx, j.ID, nil); err != nil {
			t.Fatalf("Wait %s: %v", b, err)
		}
		ids = append(ids, j.ID)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("index holds %d jobs, want 2 (KeepJobs)", len(jobs))
	}
	if _, err := c.Job(ctx, ids[0]); err == nil {
		t.Errorf("oldest job %s should have been evicted", ids[0])
	}
	if got, err := c.Job(ctx, ids[len(ids)-1]); err != nil || got.Status != client.StatusDone {
		t.Errorf("newest job %s = %+v, %v; want retained and done", ids[len(ids)-1], got, err)
	}
	// An evicted spec resubmits as a fresh job (served incrementally
	// from the store when one is configured).
	fresh, err := c.Submit(ctx, client.Spec{Type: client.JobBench, Config: "bimodal", Bench: benches[0], Budget: 1000})
	if err != nil || fresh.Dedup {
		t.Fatalf("resubmit of evicted spec = %+v, %v; want a fresh job", fresh, err)
	}
	if _, err := c.Wait(ctx, fresh.ID, nil); err != nil {
		t.Fatalf("Wait fresh: %v", err)
	}
}

func TestDrainRejectsAndFinishes(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	j, err := c.Submit(ctx, client.Spec{Type: client.JobBench, Config: "gshare", Bench: "WS04", Budget: 2000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	got, err := c.Job(ctx, j.ID)
	if err != nil || got.Status != client.StatusDone {
		t.Fatalf("after drain, job = %+v, %v; want done", got, err)
	}
	if _, err := c.Submit(ctx, client.Spec{Type: client.JobBench, Config: "gshare", Bench: "WS04", Budget: 2001}); err == nil {
		t.Fatal("submit after drain should be rejected")
	} else if he, ok := err.(*client.Error); !ok || he.StatusCode != 503 {
		t.Fatalf("submit after drain = %v, want 503", err)
	}
}

// TestRoundTripBitIdenticalToCLI pins the acceptance contract: a suite
// job's result — counters and rendered lines — is bit-identical to
// the equivalent imlisim invocation. The reference drives a fresh
// engine of the same geometry exactly as `imlisim -predictor=%s
// -suite=%s -branches=%d -shards=2` does (cmd/imlisim builds the same
// EngineConfig and calls RunSuite; the printed lines are
// sim.FormatResult/FormatSuiteLine, the same format strings the
// service embeds).
func TestRoundTripBitIdenticalToCLI(t *testing.T) {
	const config, suite, budget, shards = "tage-gsc+imli", "cbp4", 4000, 2
	engine := sim.NewEngine(sim.EngineConfig{Shards: shards})
	_, c := startServer(t, serve.Config{Engine: engine})
	ctx := context.Background()

	res, err := c.Run(ctx, client.Spec{Type: client.JobSuite, Config: config, Suite: suite, Budget: budget})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	ref := sim.NewEngine(sim.EngineConfig{Shards: shards}).RunSuite(
		func() predictor.Predictor { return predictor.MustNew(config) },
		config, suite, workload.Suites()[suite], budget)

	if len(res.Suite.Results) != len(ref.Results) {
		t.Fatalf("service returned %d results, CLI path %d", len(res.Suite.Results), len(ref.Results))
	}
	for i, got := range res.Suite.Results {
		want := ref.Results[i]
		if got.Instructions != want.Instructions || got.Records != want.Records ||
			got.Conditionals != want.Conditionals || got.Mispredicted != want.Mispredicted {
			t.Errorf("%s counters differ: service %+v, CLI %+v", got.Trace, got, want)
		}
		if wantText := sim.FormatResult(want); got.Text != wantText {
			t.Errorf("%s line differs:\nservice: %s\ncli:     %s", got.Trace, got.Text, wantText)
		}
	}
	if want := sim.FormatSuiteLine(ref); res.Suite.Text != want {
		t.Errorf("suite line differs:\nservice: %s\ncli:     %s", res.Suite.Text, want)
	}
	if res.Suite.AvgMPKI != ref.AvgMPKI() {
		t.Errorf("AvgMPKI differs: service %v, CLI %v", res.Suite.AvgMPKI, ref.AvgMPKI())
	}
}
