package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/sim"
	"repro/internal/workload"
)

// longHold is a hold no test waits out: a parked request that returns
// must have been woken, not timed out.
const longHold = 10 * time.Second

// leaseOutcome carries one lease call's return pair.
type leaseOutcome struct {
	l  client.WorkLease
	ok bool
}

// parkLease runs a long-poll lease on its own goroutine, as the HTTP
// handler does for each request.
func parkLease(ctx context.Context, c *Coordinator, worker string, hold time.Duration) chan leaseOutcome {
	ch := make(chan leaseOutcome, 1)
	go func() {
		l, ok := c.lease(ctx, worker, hold)
		ch <- leaseOutcome{l, ok}
	}()
	return ch
}

// awaitParked polls until n lease requests are parked.
func awaitParked(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		parked := len(c.waiters)
		c.mu.Unlock()
		if parked >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fewer than %d lease requests parked within 5s", n)
}

// recv waits for a lease outcome, failing the test after d.
func recv(t *testing.T, ch chan leaseOutcome, d time.Duration) leaseOutcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(d):
		t.Fatalf("lease request still parked after %s", d)
		return leaseOutcome{}
	}
}

func TestParkedLeaseReceivesLaterItem(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	ch := parkLease(context.Background(), c, "w", longHold)
	awaitParked(t, c, 1)
	spec := specN(1)
	startItem(c, spec)
	out := recv(t, ch, 5*time.Second)
	if !out.ok || fromWireItem(out.l.Item) != spec {
		t.Fatalf("parked lease = %+v, want %v", out, spec)
	}
}

func TestParkEmptyHoldReturns204(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	t0 := time.Now()
	resp, err := http.Post(srv.URL+"/v1/work/lease", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("empty lease status = %d, want 204", resp.StatusCode)
	}
	if d := time.Since(t0); d < leaseHold {
		t.Fatalf("empty lease answered after %s, before the %s hold", d, leaseHold)
	}
	if st := c.Stats(); st.Dispatched != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAbandonedLeaseRedispatchesToParkedWorker: a parked request wakes
// at the earliest live lease deadline, so lazy expiry re-dispatches an
// abandoned item with no enqueue to wake anyone — even to a request
// that parked before that lease was granted.
func TestAbandonedLeaseRedispatchesToParkedWorker(t *testing.T) {
	const ttl = 60 * time.Millisecond
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: ttl})
	defer c.Close()
	heir := parkLease(context.Background(), c, "heir", longHold)
	awaitParked(t, c, 1)
	doomed := parkLease(context.Background(), c, "doomed", longHold)
	awaitParked(t, c, 2)

	spec := specN(1)
	startItem(c, spec)
	l1 := recv(t, doomed, 5*time.Second)
	granted := time.Now()
	if !l1.ok || fromWireItem(l1.l.Item) != spec {
		t.Fatalf("newest parked request got %+v, want %v", l1, spec)
	}
	// "doomed" abandons its lease; nothing else is enqueued.
	l2 := recv(t, heir, 5*time.Second)
	if !l2.ok || fromWireItem(l2.l.Item) != spec || l2.l.Lease == l1.l.Lease {
		t.Fatalf("heir got %+v, want a fresh lease on %v", l2, spec)
	}
	if d := time.Since(granted); d < ttl {
		t.Fatalf("re-dispatched %s after the grant, before the %s TTL", d, ttl)
	}
	if st := c.Stats(); st.Expired != 1 || st.Requeued != 1 || st.Dispatched != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLeaseOnCompleteGoesToCompletingWorker: lease-on-complete parks the
// completing worker as the newest waiter before the item's RunItem
// caller can enqueue its follow-up, so the follow-up goes to that
// worker and not to an older parked one.
func TestLeaseOnCompleteGoesToCompletingWorker(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	first, follow := specN(1), specN(2)
	// The engine side: one item at a time, the next enqueued only once
	// the previous one returned.
	go func() {
		if _, err := c.RunItem(context.Background(), first); err == nil {
			_, _ = c.RunItem(context.Background(), follow)
		}
	}()
	l := awaitLease(t, c, "warm")
	older := parkLease(context.Background(), c, "older", longHold)
	awaitParked(t, c, 1)

	ack := c.complete(context.Background(), client.WorkCompletion{Lease: l.Lease, Item: l.Item,
		Worker: "warm", Results: resultsFor(first), Next: true}, longHold)
	if !ack.Accepted || ack.Next == nil || fromWireItem(ack.Next.Item) != follow {
		t.Fatalf("completion ack = %+v, want the follow-up %v as next", ack, follow)
	}
	select {
	case out := <-older:
		t.Fatalf("older parked worker got %+v", out)
	default:
	}
	c.Close()
	if out := recv(t, older, time.Second); out.ok {
		t.Fatalf("older worker leased %+v after close", out)
	}
}

// TestParkedCanceledWakeHandsItemOn: a woken request whose caller
// went away passes the wake-up on instead of swallowing it.
func TestParkedCanceledWakeHandsItemOn(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	older := parkLease(context.Background(), c, "older", longHold)
	awaitParked(t, c, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := parkLease(ctx, c, "gone", longHold)
	awaitParked(t, c, 2)

	// Enqueue (waking the newest request) and cancel that request in
	// one critical section: it wakes to find its caller gone.
	spec := specN(1)
	c.mu.Lock()
	it := &workItem{spec: spec, done: make(chan struct{})}
	c.items[spec] = it
	c.enqueueLocked(it)
	cancel()
	c.mu.Unlock()

	if out := recv(t, gone, 5*time.Second); out.ok {
		t.Fatalf("canceled request leased %+v", out)
	}
	out := recv(t, older, 5*time.Second)
	if !out.ok || fromWireItem(out.l.Item) != spec {
		t.Fatalf("next waiter got %+v, want %v", out, spec)
	}
	if st := c.Stats(); st.Dispatched != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCompleteWithoutNextUnchanged: a completion that omits "next"
// (an older worker) is answered at once, and the answer carries no
// next lease even with work pending.
func TestCompleteWithoutNextUnchanged(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	a, b := specN(1), specN(2)
	chA := startItem(c, a)
	awaitPending(t, c, 1)
	startItem(c, b)
	awaitPending(t, c, 2)
	l := awaitLease(t, c, "old")

	body, _ := json.Marshal(map[string]any{"lease": l.Lease, "item": l.Item, "results": resultsFor(a)})
	t0 := time.Now()
	resp, err := http.Post(srv.URL+"/v1/work/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > leaseHold/2 {
		t.Fatalf("completion without next took %s (hold %s)", d, leaseHold)
	}
	if _, has := raw["next"]; has || raw["accepted"] != true {
		t.Fatalf("ack = %v, want accepted without next", raw)
	}
	if out := <-chA; out.err != nil {
		t.Fatal(out.err)
	}
	if st := c.Stats(); st.Pending != 1 || st.Dispatched != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCloseReleasesParkedRequests: Close answers parked lease requests
// (204) and completions parked for their next lease (no next) at once
// instead of letting each wait out its hold.
func TestCloseReleasesParkedRequests(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()

	spec := specN(1)
	startItem(c, spec)
	l := awaitLease(t, c, "busy")

	type done struct {
		what string
		ok   bool
		err  error
	}
	ch := make(chan done, 3)
	for _, name := range []string{"idle-1", "idle-2"} {
		go func() {
			_, ok, err := cl.LeaseWork(ctx, name)
			ch <- done{"lease", ok, err}
		}()
	}
	go func() {
		ack, err := cl.CompleteWork(ctx, client.WorkCompletion{Lease: l.Lease, Item: l.Item,
			Results: resultsFor(spec), Next: true})
		ch <- done{"complete", ack.Accepted && ack.Next == nil, err}
	}()
	awaitParked(t, c, 3)

	t0 := time.Now()
	c.Close()
	for range 3 {
		select {
		case d := <-ch:
			if d.err != nil {
				t.Fatalf("%s: %v", d.what, d.err)
			}
			if d.what == "lease" && d.ok {
				t.Fatal("closed coordinator granted a lease")
			}
			if d.what == "complete" && !d.ok {
				t.Fatal("parked completion not answered accepted without next")
			}
		case <-time.After(leaseHold / 4):
			t.Fatalf("parked requests still open %s after Close (hold %s)", time.Since(t0), leaseHold)
		}
	}
}

// TestClusterCloseReleasesParkedWorkers: a cluster whose workers are parked on
// lease requests shuts down well inside one hold.
func TestClusterCloseReleasesParkedWorkers(t *testing.T) {
	cl, err := StartLocal(2, CoordinatorConfig{}, func(int) *sim.Engine {
		return sim.NewEngine(sim.EngineConfig{Workers: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitParked(t, cl.Coordinator, 2)
	t0 := time.Now()
	cl.Close()
	if d := time.Since(t0); d > leaseHold/2 {
		t.Fatalf("Cluster.Close took %s with workers parked (hold %s)", d, leaseHold)
	}
}

// TestCompleteRejectsForgedResults: completions whose results name the
// wrong trace or configuration, whose counters are impossible, or
// whose record count does not fit the shard's window are failures —
// the honest completion that follows is what the engine's RunItem
// caller and its store receive.
func TestCompleteRejectsForgedResults(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{MaxFailures: 10})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()

	const config, budget = "gshare", 2000
	b, err := workload.ByName("MM-4")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Two bounded shards, served one at a time (Workers 1): each must
	// measure exactly its window, so a record count off by one either
	// way is a forgery.
	eng := sim.NewEngine(sim.EngineConfig{Workers: 1, Shards: 2, CacheDir: dir, Remote: c})
	runCh := make(chan sim.SuiteRun, 1)
	go func() {
		runCh <- eng.RunSuite(builderFor(config), config, "cbp4", []workload.Benchmark{b}, budget)
	}()

	lease := func() client.WorkLease {
		t.Helper()
		for {
			l, ok, err := cl.LeaseWork(ctx, "w")
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				return l
			}
		}
	}
	runItem := func(l client.WorkLease) []sim.Result {
		t.Helper()
		res, err := sim.NewEngine(sim.EngineConfig{}).RunItem(ctx, fromWireItem(l.Item))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	l := lease()
	forged := fromWireItem(l.Item)
	honest := runItem(l)
	forgeries := []func(r *client.WorkResult){
		func(r *client.WorkResult) { r.Trace = "SPEC2K6-04" },
		func(r *client.WorkResult) { r.Predictor = "bimodal" },
		func(r *client.WorkResult) { r.Mispredicted = r.Conditionals + 1 },
		func(r *client.WorkResult) { r.Conditionals = r.Records + 1 },
		func(r *client.WorkResult) { r.Records++ },
		func(r *client.WorkResult) { r.Records-- },
	}
	for i, forge := range forgeries {
		res := toWireResults(honest)
		forge(&res[0])
		ack, err := cl.CompleteWork(ctx, client.WorkCompletion{Lease: l.Lease, Item: l.Item, Results: res})
		if err != nil || !ack.Accepted || ack.Duplicate {
			t.Fatalf("forgery %d: ack %+v, err %v", i, ack, err)
		}
		l = lease() // the failure requeued the item
	}
	if _, err := cl.CompleteWork(ctx, client.WorkCompletion{Lease: l.Lease, Item: l.Item,
		Results: toWireResults(honest)}); err != nil {
		t.Fatal(err)
	}
	// The other shard completes honestly.
	l = lease()
	other := runItem(l)
	if _, err := cl.CompleteWork(ctx, client.WorkCompletion{Lease: l.Lease, Item: l.Item,
		Results: toWireResults(other)}); err != nil {
		t.Fatal(err)
	}

	run := <-runCh
	if want := sim.MergeShards([]sim.Result{honest[0], other[0]}); len(run.Results) != 1 || run.Results[0] != want {
		t.Fatalf("engine got %+v, want the honest %+v", run.Results, want)
	}
	stored, ok := sim.OpenStore(dir).Load(sim.Key{Engine: sim.EngineVersion, Config: forged.Config,
		Suite: forged.Suite, Trace: forged.Bench, Budget: forged.Budget, Seed: forged.Seed,
		Shard: forged.Shard, Shards: forged.Shards, Warmup: forged.Warmup})
	if !ok || stored != honest[0] {
		t.Fatalf("store holds %+v (found %v), want the honest %+v", stored, ok, honest[0])
	}
	if st := c.Stats(); st.Failures != uint64(len(forgeries)) || st.Completed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCheckResultsRecordWindow: a completion's record count must fit
// its shard's window — exactly for a bounded shard, at least for the
// unbounded tail (the unsharded item, the last shard of an exact
// chain), whose generator overshoots at episode granularity.
func TestCheckResultsRecordWindow(t *testing.T) {
	res := func(records ...uint64) []sim.Result {
		out := make([]sim.Result, len(records))
		for i, n := range records {
			out[i] = sim.Result{Trace: "MM-4", Predictor: "gshare", Records: n}
		}
		return out
	}
	plain := func(shard, shards int) sim.ItemSpec {
		return sim.ItemSpec{Config: "gshare", Suite: "cbp4", Bench: "MM-4", Budget: 1000,
			Shard: shard, Shards: shards, Warmup: 100}
	}
	chain := sim.ItemSpec{Config: "gshare", Suite: "cbp4", Bench: "MM-4", Budget: 1000, Shards: 3, Exact: true}
	cases := []struct {
		name string
		spec sim.ItemSpec
		rs   []sim.Result
		ok   bool
	}{
		{"unsharded exact", plain(0, 1), res(1000), true},
		{"unsharded overshoot", plain(0, 1), res(1037), true},
		{"unsharded short", plain(0, 1), res(999), false},
		{"first shard exact", plain(0, 3), res(334), true},
		{"last shard exact", plain(2, 3), res(333), true},
		{"bounded shard over", plain(2, 3), res(334), false},
		{"bounded shard under", plain(0, 3), res(333), false},
		{"chain exact", chain, res(334, 333, 333), true},
		{"chain tail overshoot", chain, res(334, 333, 360), true},
		{"chain tail short", chain, res(334, 333, 332), false},
		{"chain middle over", chain, res(334, 334, 333), false},
	}
	for _, tc := range cases {
		if err := checkResults(tc.spec, tc.rs); (err == nil) != tc.ok {
			t.Errorf("%s: checkResults = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestLeaseAndCompleteRefuseOversizedBodies: lease and completion bodies past the
// bound are answered 413 without being decoded.
func TestLeaseAndCompleteRefuseOversizedBodies(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	huge := `{"worker":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/work/lease", "/v1/work/complete"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
}
