package client

import (
	"context"
	"net/http"
)

// This file holds the worker-pull work-queue wire types and calls
// (DESIGN.md §14, docs/API.md): a coordinator-mode imlid exposes its
// engine's work items under /v1/work/, and worker processes (imlid
// -worker) lease items, simulate them with a local engine, and post
// completions. The endpoints share the /v1
// JSON-envelope conventions but are not rate-limited — workers are
// trusted infrastructure, and throttling them would throttle every
// job on the coordinator.

// WorkItem is one leased unit of simulation: a (config × bench ×
// shard) work item, or a whole exact shard chain when Exact is set
// (shard i of an exact chain needs shard i-1's boundary predictor
// state, so only the chain as a whole can move between machines).
// Every field is a registry name or a value, so any worker sharing
// this repository's registries reconstructs the identical, fully
// deterministic simulation — the root of the distributed bit-identity
// guarantee.
type WorkItem struct {
	// Config is the predictor configuration registry name.
	Config string `json:"config"`
	// Suite and Bench identify the workload; Seed is the benchmark's
	// generator seed (remixed for seed-sweep variants).
	Suite string `json:"suite"`
	Bench string `json:"bench"`
	Seed  uint64 `json:"seed"`
	// Budget is the branch-record budget of the benchmark run the item
	// belongs to.
	Budget int `json:"budget"`
	// Shard and Shards are the item's coordinates in its benchmark's
	// split; Warmup is the functional warm-up length (plain sharding).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	Warmup int `json:"warmup"`
	// Exact marks a boundary-snapshot chain covering all Shards shards;
	// the completion then carries Shards results in shard order.
	Exact bool `json:"exact,omitempty"`
}

// WorkLeaseRequest asks the coordinator for one item.
type WorkLeaseRequest struct {
	// Worker names the requester (diagnostics and stats only; leases,
	// not names, are the correctness handle).
	Worker string `json:"worker,omitempty"`
}

// WorkLease is a granted work item. The worker must complete it
// before the lease expires; past TTLMillis the coordinator may
// re-dispatch the item to another worker, and a completion under the
// stale lease is accepted but marked stale (the results are
// deterministic, so whichever completion lands first wins and the
// rest are harmless duplicates).
type WorkLease struct {
	// Lease is the opaque lease ID completions must echo.
	Lease string `json:"lease"`
	// TTLMillis is the lease's time to live in milliseconds.
	TTLMillis int64 `json:"ttlMillis"`
	// Item is the work to simulate.
	Item WorkItem `json:"item"`
}

// WorkResult is one simulated shard's counters, mirroring sim.Result.
type WorkResult struct {
	Trace        string `json:"trace"`
	Predictor    string `json:"predictor"`
	Instructions uint64 `json:"instructions"`
	Records      uint64 `json:"records"`
	Conditionals uint64 `json:"conditionals"`
	Mispredicted uint64 `json:"mispredicted"`
}

// WorkCompletion reports a leased item's outcome: Results (one entry,
// or Shards entries for an exact chain) on success, Error on failure.
// Completions are idempotent — the coordinator deduplicates by item,
// so retries, stragglers finishing after their lease expired, and
// outright duplicates are all safe to send.
type WorkCompletion struct {
	// Lease echoes the granted lease ID; Item echoes the leased item
	// (the coordinator keys by item, so a completion outliving its
	// lease can still be credited).
	Lease string   `json:"lease"`
	Item  WorkItem `json:"item"`
	// Worker names the sender (diagnostics only).
	Worker string `json:"worker,omitempty"`
	// Results carries the simulated counters in shard order.
	Results []WorkResult `json:"results,omitempty"`
	// Error reports a failed item (bad item, simulation panic). The
	// coordinator re-dispatches a failed item a bounded number of times
	// before failing the jobs waiting on it.
	Error string `json:"error,omitempty"`
	// Next asks for the worker's next lease in the same round trip:
	// after crediting the completion, the coordinator holds the
	// request like a lease request and answers with WorkAck.Next.
	Next bool `json:"next,omitempty"`
}

// WorkAck is the coordinator's answer to a completion.
type WorkAck struct {
	// Accepted is false only for items the coordinator has no record
	// of (e.g. from before a coordinator restart) — nothing was
	// credited, and the worker should just move on.
	Accepted bool `json:"accepted"`
	// Duplicate marks a completion for an item that was already
	// completed; the payload was checked against the first completion
	// (bit-identity) and otherwise ignored.
	Duplicate bool `json:"duplicate,omitempty"`
	// Stale marks a completion under an expired or re-dispatched
	// lease that still delivered the item's first result.
	Stale bool `json:"stale,omitempty"`
	// Next is the worker's next lease when the completion asked for
	// one (WorkCompletion.Next); nil when no work arrived within the
	// coordinator's hold.
	Next *WorkLease `json:"next,omitempty"`
}

// WorkStats is the /v1/work/stats payload: the coordinator's queue
// depth and cumulative scheduling counters.
type WorkStats struct {
	// Pending, Leased and Done are the current item counts by state.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// Dispatched counts granted leases; Completed counts items
	// completed (first completion only); Failures counts error
	// completions.
	Dispatched uint64 `json:"dispatched"`
	Completed  uint64 `json:"completed"`
	Failures   uint64 `json:"failures"`
	// Expired counts leases that timed out and Requeued the items they
	// held.
	Expired  uint64 `json:"expired"`
	Requeued uint64 `json:"requeued"`
	// Duplicates counts completions for already-done items; Stale
	// counts completions under expired leases that still delivered
	// first results; Mismatches counts duplicate completions whose
	// counters differed from the first — always 0 when every worker
	// simulates honestly, because items are deterministic.
	Duplicates uint64 `json:"duplicates"`
	Stale      uint64 `json:"stale"`
	Mismatches uint64 `json:"mismatches"`
}

// LeaseWork asks the coordinator for one work item. The coordinator
// holds the request until an item is pending or its hold (about a
// second) runs out; ok is false in the latter case (HTTP 204), and
// the worker simply asks again.
func (c *Client) LeaseWork(ctx context.Context, worker string) (lease WorkLease, ok bool, err error) {
	err = c.do(ctx, http.MethodPost, "/v1/work/lease", WorkLeaseRequest{Worker: worker}, &lease)
	if err != nil {
		return WorkLease{}, false, err
	}
	return lease, lease.Lease != "", nil
}

// CompleteWork posts a leased item's outcome. Safe to retry: the
// coordinator deduplicates completions by item. With comp.Next set the
// call also waits, like LeaseWork, for the worker's next lease.
func (c *Client) CompleteWork(ctx context.Context, comp WorkCompletion) (WorkAck, error) {
	var ack WorkAck
	err := c.do(ctx, http.MethodPost, "/v1/work/complete", comp, &ack)
	return ack, err
}

// WorkStats returns the coordinator's work-queue counters.
func (c *Client) WorkStats(ctx context.Context) (WorkStats, error) {
	var st WorkStats
	err := c.do(ctx, http.MethodGet, "/v1/work/stats", nil, &st)
	return st, err
}
