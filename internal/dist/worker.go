package dist

import (
	"context"
	"time"

	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// Worker is the pull side of the queue: a loop that leases items from
// a coordinator, executes them on a local engine with the item's own
// geometry (Engine.RunItem), and posts completions. A worker is
// stateless between items — all durable state is the coordinator's
// queue and the engines' content-addressed stores — so killing one at
// any instant loses at most the lease it held, which expires and
// re-dispatches.
type Worker struct {
	// Client talks to the coordinator's /v1/work endpoints.
	Client *client.Client
	// Engine executes leased items; its -parallel bound, cache dir and
	// snapshot settings are the worker's own (item geometry — shards,
	// warm-up — comes from each item).
	Engine *sim.Engine
	// Name labels the worker in leases and stats.
	Name string
}

// retryBackoff is the pause after a failed lease call — the
// coordinator may be restarting, and the store-centric design makes
// blind retry safe — and after an empty answer that came back sooner
// than a hold would have (a closing coordinator answers at once).
const retryBackoff = 50 * time.Millisecond

// Run pulls and executes items until ctx is canceled; it returns nil
// on cancellation (the normal shutdown path). Each completion asks for
// the next lease, so a busy worker spends one round trip per item; a
// separate lease request (a long poll) is needed only after the
// coordinator had no work for it.
func (w *Worker) Run(ctx context.Context) error {
	var next *client.WorkLease
	for ctx.Err() == nil {
		if next == nil {
			t0 := time.Now()
			lease, ok, err := w.Client.LeaseWork(ctx, w.Name)
			if err != nil || !ok {
				if err != nil || time.Since(t0) < retryBackoff {
					sleepCtx(ctx, retryBackoff)
				}
				continue
			}
			next = &lease
		}
		next = w.serve(ctx, *next)
	}
	return nil
}

// serve executes one leased item. The two faultinject sites model the
// mid-item failures the chaos tests mix: "dist/worker.kill" abandons
// the item after leasing it — externally indistinguishable from the
// worker process dying, so the lease must expire and re-dispatch —
// and "dist/worker.dupcomplete" re-sends a completion that was
// already delivered, the straggler-double-done case store dedup and
// coordinator idempotence must absorb. serve returns the next lease
// the completion's acknowledgment carried, if any.
func (w *Worker) serve(ctx context.Context, lease client.WorkLease) *client.WorkLease {
	if faultinject.Err("dist/worker.kill") != nil {
		return nil
	}
	comp := client.WorkCompletion{Lease: lease.Lease, Item: lease.Item, Worker: w.Name, Next: true}
	results, err := w.Engine.RunItem(ctx, fromWireItem(lease.Item))
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		comp.Error = err.Error()
	} else {
		comp.Results = toWireResults(results)
	}
	ack, err := w.Client.CompleteWork(ctx, comp)
	if err != nil {
		// Undeliverable completion: the lease expires and the item
		// re-dispatches; this worker's simulated shards are already in
		// its local store, so a re-run here would be a cache hit.
		return nil
	}
	if faultinject.Err("dist/worker.dupcomplete") != nil {
		dup := comp
		dup.Next = false
		_, _ = w.Client.CompleteWork(ctx, dup)
	}
	return ack.Next
}

// sleepCtx sleeps d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
