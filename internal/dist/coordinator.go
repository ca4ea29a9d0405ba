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
// Lease expiry is evaluated when workers poll, not on a background
// timer: with no live worker polling, nothing could execute a
// re-dispatched item anyway, and the package stays free of spinning
// goroutines.
package dist

import (
	"context"
	"encoding/json"
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
	// whenever a worker polls for work.
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
	key  string

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
	items     map[string]*workItem // live + retained-done items by key
	queue     []*workItem          // FIFO of pending items (lazily compacted)
	leases    map[string]*lease    // active leases by ID
	doneOrder []string             // retained-done keys, oldest first
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
		items:  map[string]*workItem{},
		leases: map[string]*lease{},
		closed: make(chan struct{}),
	}
}

// Close fails every outstanding RunItem with ErrClosed and makes
// further leases come back empty. Idempotent.
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

// itemKey canonicalizes an ItemSpec: its JSON encoding (fixed field
// order, every string quoted), the same no-ambiguity convention the
// result store keys with.
func itemKey(spec sim.ItemSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// ItemSpec is strings, ints and a bool; Marshal cannot fail.
		panic(fmt.Sprintf("dist: item key encoding: %v", err))
	}
	return string(b)
}

// RunItem implements sim.RemoteRunner: it enqueues the item (or joins
// the in-flight entry — concurrent identical requests share one
// execution, like the engine's own dedup layers) and blocks until a
// worker delivers the result, the item exhausts MaxFailures, ctx is
// canceled, or the coordinator closes.
func (c *Coordinator) RunItem(ctx context.Context, item sim.ItemSpec) ([]sim.Result, error) {
	k := itemKey(item)
	c.mu.Lock()
	it, ok := c.items[k]
	if !ok {
		it = &workItem{spec: item, key: k, done: make(chan struct{})}
		c.items[k] = it
		c.queue = append(c.queue, it)
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

// Lease grants the oldest pending item to a worker, first requeueing
// any expired leases (or, under an injected "dist/lease.expire" fault,
// force-expiring every live lease — the test harness's way of
// compressing a TTL elapse into an instant). ok is false when no work
// is pending.
func (c *Coordinator) Lease(worker string) (client.WorkLease, bool) {
	now := time.Now()
	force := faultinject.Err("dist/lease.expire") != nil
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		return client.WorkLease{}, false
	default:
	}
	c.expireLocked(now, force)
	for len(c.queue) > 0 {
		it := c.queue[0]
		c.queue = c.queue[1:]
		if it.state != statePending {
			// A requeue entry made stale by a late completion.
			continue
		}
		c.nextLease++
		id := fmt.Sprintf("l%d", c.nextLease)
		it.state = stateLeased
		it.lease = id
		c.leases[id] = &lease{item: it, worker: worker, deadline: now.Add(c.ttl)}
		c.dispatched++
		return client.WorkLease{Lease: id, TTLMillis: c.ttl.Milliseconds(), Item: toWireItem(it.spec)}, true
	}
	return client.WorkLease{}, false
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
		it := l.item
		if it.state == stateLeased && it.lease == id {
			it.state = statePending
			it.lease = ""
			c.queue = append(c.queue, it)
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
// false). Error completions count toward the item's MaxFailures
// budget and requeue it until the budget is exhausted.
func (c *Coordinator) Complete(comp client.WorkCompletion) client.WorkAck {
	spec := fromWireItem(comp.Item)
	k := itemKey(spec)
	c.mu.Lock()
	defer c.mu.Unlock()

	it, known := c.items[k]
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
	if want := wantResults(spec); len(results) != want {
		// A malformed success is a failure in disguise; the retry
		// budget applies.
		return c.failLocked(it, fmt.Sprintf("completion carried %d results, want %d", len(results), want), wasCurrentLease)
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
		delete(c.items, it.key)
		close(it.done)
		return client.WorkAck{Accepted: true}
	}
	if it.state == stateLeased && wasCurrentLease {
		it.state = statePending
		it.lease = ""
		c.queue = append(c.queue, it)
		c.requeued++
	}
	return client.WorkAck{Accepted: true}
}

// wantResults is how many results a completion for spec must carry.
func wantResults(spec sim.ItemSpec) int {
	if spec.Exact && spec.Shards > 1 {
		return spec.Shards
	}
	return 1
}

// retainDoneLocked keeps the completed item for duplicate detection,
// evicting the oldest retained completion past the KeepDone bound.
func (c *Coordinator) retainDoneLocked(it *workItem) {
	c.doneOrder = append(c.doneOrder, it.key)
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
