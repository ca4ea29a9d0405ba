// Package dist distributes the simulation engine across processes
// (DESIGN.md §14): a Coordinator plugs into sim.Engine as its
// RemoteRunner and turns every registry-rebuildable work item into a
// leased entry of a worker-pull queue, and Workers — separate
// processes (imlid -worker) or in-process goroutines
// (StartLocal) — lease items over HTTP, execute them with their own
// local engine, and post the results back.
//
// The design leans entirely on determinism: a work item is a value
// (registry names + seeds + geometry, sim.ItemSpec), its result is a
// pure function of that value, and the content-addressed store remains
// the merge point. So every fault-handling decision is allowed to be
// simple-minded — an expired lease re-dispatches the item, a straggler
// finishing after expiry still gets credited (or discarded as a
// duplicate), a worker running the same item twice produces the same
// bytes — and the final suite results are bit-identical to a serial
// single-process run no matter which subset of these faults occurred.
// The chaos tests in this package assert exactly that.
//
// Lease requests are long polls: a request with nothing to lease parks
// until an item is enqueued or its hold runs out, and a completion can
// ask for the worker's next lease in the same round trip. Lease expiry
// is evaluated by lease requests, not on a background timer — a parked
// request also wakes at the earliest live lease deadline — so with no
// worker asking, nothing could execute a re-dispatched item anyway,
// and the package stays free of spinning goroutines.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// CoordinatorConfig sizes a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker may hold a leased item before the
	// coordinator re-dispatches it; <=0 means 30s. Expiry is checked
	// by lease requests, parked ones included.
	LeaseTTL time.Duration
	// MaxFailures is how many worker-reported error completions an
	// item absorbs before the coordinator fails it (failing the jobs
	// waiting on it); <=0 means 3. Worker crashes are not failures —
	// a crashed worker's lease expires and the item re-dispatches
	// indefinitely.
	MaxFailures int
	// KeepDone bounds how many completed items are retained for
	// duplicate detection and result re-delivery; <=0 means 4096.
	KeepDone int
}

// leaseHold bounds how long a lease request — or a completion asking
// for the worker's next lease — parks waiting for work before it is
// answered empty.
const leaseHold = time.Second

// ErrClosed is returned by RunItem when the coordinator is closed
// while the item is still outstanding.
var ErrClosed = errors.New("dist: coordinator closed")

// itemState is a work item's scheduling state.
type itemState int

const (
	statePending itemState = iota // queued, waiting for a lease
	stateLeased                   // held by a worker under a live lease
	stateDone                     // first successful completion arrived
	stateFailed                   // MaxFailures error completions
)

// workItem is the coordinator's record of one dispatched ItemSpec.
type workItem struct {
	spec sim.ItemSpec

	state    itemState
	lease    string // current lease ID while stateLeased
	failures int

	results []sim.Result
	err     error
	done    chan struct{} // closed at stateDone/stateFailed
}

// lease is one granted lease.
type lease struct {
	item     *workItem
	worker   string
	deadline time.Time
}

// waiter is one parked lease request. A waker pops it off the
// coordinator's waiter stack and signals wake; only the popping side
// sends, so the one-slot buffer never blocks.
type waiter struct{ wake chan struct{} }

// Coordinator owns the work-item queue a fleet of workers pulls from.
// It implements sim.RemoteRunner, so handing it to
// sim.EngineConfig.Remote turns that engine into the coordinator side
// of a distributed run. Create with NewCoordinator, expose with
// Handler, stop with Close.
type Coordinator struct {
	ttl      time.Duration
	maxFail  int
	keepDone int

	mu        sync.Mutex
	items     map[sim.ItemSpec]*workItem // live + retained-done items
	queue     []*workItem                // FIFO of pending items (lazily compacted)
	leases    map[string]*lease          // active leases by ID
	waiters   []*waiter                  // parked lease requests, oldest first
	doneOrder []sim.ItemSpec             // retained-done items, oldest first
	nextLease int
	closed    chan struct{}

	dispatched uint64
	completed  uint64
	failures   uint64
	expired    uint64
	requeued   uint64
	duplicates uint64
	stale      uint64
	mismatches uint64
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 3
	}
	if cfg.KeepDone <= 0 {
		cfg.KeepDone = 4096
	}
	return &Coordinator{
		ttl: cfg.LeaseTTL, maxFail: cfg.MaxFailures, keepDone: cfg.KeepDone,
		items:  map[sim.ItemSpec]*workItem{},
		leases: map[string]*lease{},
		closed: make(chan struct{}),
	}
}

// Close fails every outstanding RunItem with ErrClosed, answers every
// parked lease request (empty) and every completion parked for its
// next lease (without one) at once, and makes further leases come
// back empty. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		return
	default:
	}
	close(c.closed)
}

// RunItem implements sim.RemoteRunner: it enqueues the item (or joins
// the in-flight entry — concurrent identical requests share one
// execution, like the engine's own dedup layers) and blocks until a
// worker delivers the result, the item exhausts MaxFailures, ctx is
// canceled, or the coordinator closes.
func (c *Coordinator) RunItem(ctx context.Context, item sim.ItemSpec) ([]sim.Result, error) {
	c.mu.Lock()
	it, ok := c.items[item]
	if !ok {
		it = &workItem{spec: item, done: make(chan struct{})}
		c.items[item] = it
		c.enqueueLocked(it)
	}
	c.mu.Unlock()

	select {
	case <-it.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closed:
		return nil, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if it.err != nil {
		return nil, it.err
	}
	return append([]sim.Result(nil), it.results...), nil
}

// Lease grants the oldest pending item to a worker without waiting;
// ok is false when no work is pending. It is the hold-free form of
// the HTTP lease endpoint's long poll.
func (c *Coordinator) Lease(worker string) (client.WorkLease, bool) {
	return c.lease(context.Background(), worker, 0)
}

// lease grants the oldest pending item to worker, parking up to hold
// for one to be enqueued; ok is false when the hold ran out with no
// work, ctx ended, or the coordinator closed.
func (c *Coordinator) lease(ctx context.Context, worker string, hold time.Duration) (client.WorkLease, bool) {
	c.mu.Lock()
	return c.awaitLeaseLocked(ctx, worker, time.Now().Add(hold))
}

// awaitLeaseLocked is the long poll behind lease and lease-on-complete.
// Called with c.mu held, it releases it before returning. A request
// that finds nothing to lease pushes itself onto the waiter stack
// before the lock drops, so an enqueue that follows cannot miss it,
// and parks until woken, until end, or until the earliest live lease
// deadline — whichever comes first. The park is also capped at the
// lease TTL, so a lease granted after the request parked still has
// its deadline observed.
func (c *Coordinator) awaitLeaseLocked(ctx context.Context, worker string, end time.Time) (client.WorkLease, bool) {
	defer c.mu.Unlock()
	w := &waiter{wake: make(chan struct{}, 1)}
	for {
		if ctx.Err() != nil {
			// The request is gone: a wake-up it may have taken passes
			// on to the next parked request.
			if c.pendingLocked() {
				c.wakeLocked()
			}
			return client.WorkLease{}, false
		}
		now := time.Now()
		if l, ok := c.leaseLocked(worker, now); ok {
			return l, true
		}
		if c.isClosed() || !now.Before(end) {
			return client.WorkLease{}, false
		}
		c.waiters = append(c.waiters, w)
		wait := min(end.Sub(now), c.ttl)
		for _, l := range c.leases {
			wait = min(wait, l.deadline.Sub(now))
		}
		c.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-w.wake:
		case <-t.C:
		case <-ctx.Done():
		case <-c.closed:
		}
		t.Stop()
		c.mu.Lock()
		c.unparkLocked(w)
	}
}

// leaseLocked grants the oldest pending item, first requeueing any
// expired leases (or, under an injected "dist/lease.expire" fault,
// force-expiring every live lease — the test harness's way of
// compressing a TTL elapse into an instant).
func (c *Coordinator) leaseLocked(worker string, now time.Time) (client.WorkLease, bool) {
	if c.isClosed() {
		return client.WorkLease{}, false
	}
	c.expireLocked(now, faultinject.Err("dist/lease.expire") != nil)
	if !c.pendingLocked() {
		return client.WorkLease{}, false
	}
	it := c.queue[0]
	c.queue = c.queue[1:]
	c.nextLease++
	id := fmt.Sprintf("l%d", c.nextLease)
	it.state = stateLeased
	it.lease = id
	c.leases[id] = &lease{item: it, worker: worker, deadline: now.Add(c.ttl)}
	c.dispatched++
	return client.WorkLease{Lease: id, TTLMillis: c.ttl.Milliseconds(), Item: toWireItem(it.spec)}, true
}

// pendingLocked drops queue entries made stale by late completions
// from the head of the queue and reports whether an item is pending.
func (c *Coordinator) pendingLocked() bool {
	for len(c.queue) > 0 && c.queue[0].state != statePending {
		c.queue = c.queue[1:]
	}
	return len(c.queue) > 0
}

// enqueueLocked makes it pending and wakes the newest parked lease
// request. Newest first is what keeps a stream-cache-warm worker on
// its benchmark: a worker completing an item parks (lease-on-complete)
// just before the engine enqueues the item that completion unblocked.
func (c *Coordinator) enqueueLocked(it *workItem) {
	it.state = statePending
	it.lease = ""
	c.queue = append(c.queue, it)
	c.wakeLocked()
}

// wakeLocked pops the newest parked lease request and wakes it.
func (c *Coordinator) wakeLocked() {
	n := len(c.waiters)
	if n == 0 {
		return
	}
	w := c.waiters[n-1]
	c.waiters[n-1] = nil
	c.waiters = c.waiters[:n-1]
	w.wake <- struct{}{}
}

// unparkLocked takes w off the waiter stack, or — when a waker popped
// it already — consumes its wake-up, leaving w ready to park again.
func (c *Coordinator) unparkLocked(w *waiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
	select {
	case <-w.wake:
	default:
	}
}

func (c *Coordinator) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// expireLocked drops every lease past its deadline (all of them when
// force is set) and requeues the items they held. An item completed
// under a since-expired lease is already done and is not requeued.
func (c *Coordinator) expireLocked(now time.Time, force bool) {
	for id, l := range c.leases {
		if !force && l.deadline.After(now) {
			continue
		}
		delete(c.leases, id)
		c.expired++
		if it := l.item; it.state == stateLeased && it.lease == id {
			c.enqueueLocked(it)
			c.requeued++
		}
	}
}

// Complete credits a completion. The item, not the lease, is the
// correctness handle: a completion under an expired lease still
// delivers (marked Stale), one for an already-done item is verified
// bit-identical against the first and discarded (Duplicate), and one
// for an item the coordinator has no record of — e.g. from before a
// coordinator restart — is acknowledged but not credited (Accepted
// false). Error completions, and successes whose results cannot be
// the item's (checkResults), count toward the item's MaxFailures
// budget and requeue it until the budget is exhausted. Complete does
// not wait: a completion asking for its next lease gets one only if
// an item is already pending.
func (c *Coordinator) Complete(comp client.WorkCompletion) client.WorkAck {
	return c.complete(context.Background(), comp, 0)
}

// complete credits comp and, when comp.Next is set, parks the same
// request as a lease request for up to hold, returning the granted
// lease in the ack.
func (c *Coordinator) complete(ctx context.Context, comp client.WorkCompletion, hold time.Duration) client.WorkAck {
	c.mu.Lock()
	ack := c.completeLocked(comp)
	if !comp.Next {
		c.mu.Unlock()
		return ack
	}
	// The waiter registers before the lock drops, and the RunItem
	// caller this completion unblocked needs the lock to enqueue its
	// follow-up item — so that item goes to this worker.
	if l, ok := c.awaitLeaseLocked(ctx, comp.Worker, time.Now().Add(hold)); ok {
		ack.Next = &l
	}
	return ack
}

func (c *Coordinator) completeLocked(comp client.WorkCompletion) client.WorkAck {
	spec := fromWireItem(comp.Item)
	it, known := c.items[spec]
	l, leaseLive := c.leases[comp.Lease]
	if leaseLive {
		delete(c.leases, comp.Lease)
		if it == nil {
			it = l.item
			known = true
		}
	}
	if !known {
		return client.WorkAck{Accepted: false}
	}

	switch it.state {
	case stateDone, stateFailed:
		c.duplicates++
		if it.state == stateDone && comp.Error == "" && !resultsEqual(it.results, fromWireResults(comp.Results)) {
			// Deterministic items make duplicate payloads bit-identical;
			// a mismatch means a worker simulated dishonestly (or a
			// registry drifted between binaries) and must be surfaced.
			c.mismatches++
		}
		return client.WorkAck{Accepted: true, Duplicate: true}
	default:
	}

	wasCurrentLease := leaseLive && l.item == it && it.lease == comp.Lease
	if comp.Error != "" {
		return c.failLocked(it, comp.Error, wasCurrentLease)
	}
	results := fromWireResults(comp.Results)
	if err := checkResults(spec, results); err != nil {
		// A malformed success is a failure in disguise; the retry
		// budget applies.
		return c.failLocked(it, err.Error(), wasCurrentLease)
	}
	it.state = stateDone
	it.lease = ""
	it.results = results
	c.completed++
	stale := !wasCurrentLease
	if stale {
		c.stale++
	}
	close(it.done)
	c.retainDoneLocked(it)
	return client.WorkAck{Accepted: true, Stale: stale}
}

// failLocked charges one failure against the item: past MaxFailures
// the item fails (waiters get the error, and the item leaves the index
// so a later identical request retries fresh); before that it requeues
// — unless it is pending already, or another worker holds a newer
// lease on it.
func (c *Coordinator) failLocked(it *workItem, msg string, wasCurrentLease bool) client.WorkAck {
	c.failures++
	it.failures++
	if it.failures >= c.maxFail {
		it.state = stateFailed
		it.err = fmt.Errorf("dist: item failed %d times, last: %s", it.failures, msg)
		delete(c.items, it.spec)
		close(it.done)
		return client.WorkAck{Accepted: true}
	}
	if it.state == stateLeased && wasCurrentLease {
		c.enqueueLocked(it)
		c.requeued++
	}
	return client.WorkAck{Accepted: true}
}

// checkResults rejects a success payload that cannot be spec's result:
// the wrong number of results, a result naming another trace or
// configuration, counters out of order (every mispredicted branch is a
// conditional, every conditional a record), or a record count that
// does not fit the shard's stream window (sim.ItemSpec.Window): exactly
// the window for a bounded shard, at least the window for the
// unbounded tail.
func checkResults(spec sim.ItemSpec, rs []sim.Result) error {
	want := 1
	if spec.Exact && spec.Shards > 1 {
		want = spec.Shards
	}
	if len(rs) != want {
		return fmt.Errorf("completion carried %d results, want %d", len(rs), want)
	}
	for i, r := range rs {
		if r.Trace != spec.Bench || r.Predictor != spec.Config {
			return fmt.Errorf("result %d is for %s on %s, want %s on %s", i, r.Predictor, r.Trace, spec.Config, spec.Bench)
		}
		if r.Mispredicted > r.Conditionals || r.Conditionals > r.Records {
			return fmt.Errorf("result %d counters out of order: %d mispredicted, %d conditionals, %d records",
				i, r.Mispredicted, r.Conditionals, r.Records)
		}
		shard := spec.Shard
		if want > 1 {
			shard = i
		}
		start, end, unbounded := spec.Window(shard)
		if n := uint64(end - start); r.Records < n || (!unbounded && r.Records != n) {
			return fmt.Errorf("result %d measured %d records, shard %d/%d window holds %d",
				i, r.Records, shard, spec.Shards, n)
		}
	}
	return nil
}

// retainDoneLocked keeps the completed item for duplicate detection,
// evicting the oldest retained completion past the KeepDone bound.
func (c *Coordinator) retainDoneLocked(it *workItem) {
	c.doneOrder = append(c.doneOrder, it.spec)
	for len(c.doneOrder) > c.keepDone {
		delete(c.items, c.doneOrder[0])
		c.doneOrder = c.doneOrder[1:]
	}
}

// Stats snapshots the queue and its cumulative counters.
func (c *Coordinator) Stats() client.WorkStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := client.WorkStats{
		Dispatched: c.dispatched, Completed: c.completed, Failures: c.failures,
		Expired: c.expired, Requeued: c.requeued,
		Duplicates: c.duplicates, Stale: c.stale, Mismatches: c.mismatches,
	}
	for _, it := range c.items {
		switch it.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		case stateDone:
			st.Done++
		}
	}
	return st
}

// resultsEqual compares two result slices counter for counter.
func resultsEqual(a, b []sim.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// toWireItem / fromWireItem / toWireResults / fromWireResults convert
// between the engine's internal types and the public wire types
// field-for-field; the wire package stays free of internal imports.

func toWireItem(s sim.ItemSpec) client.WorkItem {
	return client.WorkItem{Config: s.Config, Suite: s.Suite, Bench: s.Bench, Seed: s.Seed,
		Budget: s.Budget, Shard: s.Shard, Shards: s.Shards, Warmup: s.Warmup, Exact: s.Exact}
}

func fromWireItem(w client.WorkItem) sim.ItemSpec {
	return sim.ItemSpec{Config: w.Config, Suite: w.Suite, Bench: w.Bench, Seed: w.Seed,
		Budget: w.Budget, Shard: w.Shard, Shards: w.Shards, Warmup: w.Warmup, Exact: w.Exact}
}

func toWireResults(rs []sim.Result) []client.WorkResult {
	out := make([]client.WorkResult, len(rs))
	for i, r := range rs {
		out[i] = client.WorkResult{Trace: r.Trace, Predictor: r.Predictor,
			Instructions: r.Instructions, Records: r.Records,
			Conditionals: r.Conditionals, Mispredicted: r.Mispredicted}
	}
	return out
}

func fromWireResults(ws []client.WorkResult) []sim.Result {
	out := make([]sim.Result, len(ws))
	for i, w := range ws {
		out[i] = sim.Result{Trace: w.Trace, Predictor: w.Predictor,
			Instructions: w.Instructions, Records: w.Records,
			Conditionals: w.Conditionals, Mispredicted: w.Mispredicted}
	}
	return out
}

var _ sim.RemoteRunner = (*Coordinator)(nil)
