package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// EngineVersion participates in every store key. Bump it whenever the
// simulator, the workload generators, a predictor implementation, or
// the store-key encoding changes in a way that alters simulated
// counters or their addressing, so stale cache entries can never be
// returned. Version 2: unambiguous (JSON) store-key encoding.
// Version 3: versioned store layout (v<N>/ directories), predictor
// snapshots, and the Exact key field.
const EngineVersion = 3

// DefaultShardWarmup is the functional warm-up length (in branch
// records) a shard trains on before its measured segment when the
// engine config leaves Warmup at zero. 10K records keeps the merged
// MPKI within a few percent of the unsharded run (see DESIGN.md §5).
const DefaultShardWarmup = 10000

// EngineConfig sizes the simulation engine.
type EngineConfig struct {
	// Workers bounds concurrent shard simulations; <=0 means
	// GOMAXPROCS. The bound is engine-wide: concurrent suite runs
	// sharing one engine also share the pool.
	Workers int
	// Shards splits each benchmark's branch budget into this many
	// contiguous segments of the deterministic stream, simulated as
	// independent work items; <=1 runs each benchmark unsharded. See
	// DESIGN.md §5 for the accuracy tolerance warm-up sharding
	// introduces, and ExactShards for the bit-exact mode.
	Shards int
	// Warmup is the functional warm-up length per shard: how many
	// records before its segment a shard's fresh predictor trains on
	// unmeasured. 0 means DefaultShardWarmup; <0 disables warm-up.
	// Ignored by ExactShards runs.
	Warmup int
	// Snapshots enables the predictor-state snapshot layer (DESIGN.md
	// §8): unsharded runs persist their end-of-run predictor state in
	// the Store and later, longer-budget runs of the same (config,
	// trace, seed) resume from the longest cached prefix instead of
	// record 0 — a budget sweep costs max(budget) simulation work
	// instead of sum(budgets). Requires a Store (or CacheDir) to
	// persist anything; predictors that do not implement
	// predictor.Snapshotter silently run cold.
	Snapshots bool
	// ExactShards switches sharding from functional warm-up to
	// boundary-snapshot chaining: a benchmark's shards execute as a
	// chained partition of the contiguous stream, each starting from
	// the exact predictor state at its boundary, so merged sharded
	// counters are bit-identical to the unsharded run (no §5
	// tolerance). A benchmark's shards serialize on one worker
	// (parallelism comes from benchmarks and configurations), but each
	// shard's result and each boundary state are cached individually,
	// so re-runs and budget extensions stay incremental. Implies
	// Snapshots.
	ExactShards bool
	// Store, when non-nil, caches per-shard results (and snapshots) on
	// disk so repeated runs are incremental.
	Store *Store
	// CacheDir opens a Store rooted at the directory when Store is
	// nil and the string is non-empty — the common case for callers
	// plumbing a -cache-dir flag.
	CacheDir string
	// Streams, when non-nil, is the materialized-stream cache shards
	// read from; sharing one cache across engines shares the streams.
	Streams *workload.StreamCache
	// StreamMemory sizes the private stream cache built when Streams
	// is nil: 0 means workload.DefaultStreamMemory, <0 disables
	// materialization entirely so every shard regenerates its stream
	// prefix (the pre-stream-layer behaviour; see DESIGN.md §6).
	StreamMemory int64
	// Remote, when non-nil, makes this engine a coordinator (DESIGN.md
	// §14): work items whose configuration and benchmark are registry
	// names — and therefore reconstructible by name on another machine
	// — are dispatched through the RemoteRunner instead of simulated
	// locally, and the returned results are stored and merged exactly
	// as local ones would be. Items a remote cannot rebuild (custom
	// predictor builders) still run locally. A RunItem call blocks its
	// engine worker slot while the remote executes, so Workers should
	// be sized to the wanted dispatch concurrency, not to local CPUs;
	// <=0 defaults to 8×GOMAXPROCS when Remote is set.
	Remote RemoteRunner
}

// EngineStats counts what an engine did across its lifetime.
type EngineStats struct {
	// Simulated is the number of shard work items actually simulated.
	Simulated uint64
	// CacheHits is the number of shard work items served by the store.
	CacheHits uint64
	// RecordsSimulated is the total number of branch records fed to
	// predictors (replay, warm-up and measured) — the engine's total
	// simulation work, the quantity snapshot resume exists to cut.
	RecordsSimulated uint64
	// Resumed is the number of work items that started from a cached
	// predictor-state snapshot instead of record 0.
	Resumed uint64
}

// Engine executes (configuration × benchmark × shard) work items over
// a bounded worker pool, merging per-shard results into per-benchmark
// Results. A fresh predictor instance is built per work item (the CBP
// methodology: traces — and here shards — are independent runs),
// except when a cached snapshot supplies the exact state of a stream
// prefix (Snapshots / ExactShards).
type Engine struct {
	workers   int
	shards    int
	warmup    int
	snapshots bool
	exact     bool
	store     *Store
	streams   *workload.StreamCache
	// sem is the engine-wide worker bound: every work item, from every
	// concurrent RunSuite call sharing this engine, holds one slot
	// while it simulates. Long-running services (internal/serve) rely
	// on this to run many jobs over one engine without oversubscribing
	// the machine.
	sem chan struct{}
	// remote, when non-nil, dispatches registry-rebuildable work items
	// to another process (DESIGN.md §14).
	remote    RemoteRunner
	simulated atomic.Uint64
	hits      atomic.Uint64
	records   atomic.Uint64
	resumed   atomic.Uint64
}

// NewEngine returns an engine for the given configuration.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Remote != nil {
			// A coordinator's workers mostly block on remote completion,
			// not on CPU: default to enough slots to keep a fleet busy.
			cfg.Workers = 8 * runtime.GOMAXPROCS(0)
		}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	switch {
	case cfg.Warmup == 0:
		cfg.Warmup = DefaultShardWarmup
	case cfg.Warmup < 0:
		cfg.Warmup = 0
	}
	if cfg.Store == nil && cfg.CacheDir != "" {
		cfg.Store = OpenStore(cfg.CacheDir)
	}
	if cfg.Streams == nil && cfg.StreamMemory >= 0 {
		// Private stream cache; when the engine has an on-disk result
		// store, spill materialized streams next to it so later
		// processes reload instead of regenerating. The spill lives
		// under a per-EngineVersion directory: the same bump that
		// invalidates stale results also orphans stale streams, so a
		// generator change can never resurrect pre-change records.
		spill := ""
		if cfg.Store != nil && cfg.Store.Dir() != "" {
			spill = filepath.Join(cfg.Store.Dir(), "streams", fmt.Sprintf("v%d", EngineVersion))
		}
		cfg.Streams = workload.NewStreamCache(cfg.StreamMemory, spill)
	}
	return &Engine{
		workers: cfg.Workers, shards: cfg.Shards, warmup: cfg.Warmup,
		snapshots: cfg.Snapshots || cfg.ExactShards, exact: cfg.ExactShards,
		store: cfg.Store, streams: cfg.Streams,
		remote: cfg.Remote,
		sem:    make(chan struct{}, cfg.Workers),
	}
}

// StreamMemoryFromMiB maps a MiB-denominated -stream-mem flag value
// onto EngineConfig.StreamMemory, preserving its 0 = default /
// negative = disable convention. Shared by the CLIs so the convention
// lives in one place.
func StreamMemoryFromMiB(mib int) int64 {
	if mib < 0 {
		return -1
	}
	return int64(mib) << 20
}

// Shards returns the per-benchmark shard count.
func (e *Engine) Shards() int { return e.shards }

// Streams returns the engine's materialized-stream cache, or nil when
// materialization is disabled.
func (e *Engine) Streams() *workload.StreamCache { return e.streams }

// Stats returns cumulative work counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Simulated: e.simulated.Load(), CacheHits: e.hits.Load(),
		RecordsSimulated: e.records.Load(), Resumed: e.resumed.Load(),
	}
}

// ItemEvent reports one completed engine work item (one shard of one
// benchmark) to a RunSuiteContext progress callback.
type ItemEvent struct {
	// Config, Suite and Trace identify the work item's simulation.
	Config, Suite, Trace string
	// Shard is the work item's shard index within its benchmark.
	Shard int
	// Done counts work items completed so far in this RunSuiteContext
	// call; Total is the number the call will execute. Done == Total
	// on the final event.
	Done, Total int
	// Cached reports that the item was served from the result store
	// instead of simulated.
	Cached bool
}

// forEach runs fn(i) for i in [0,n) over the engine's worker pool.
// The concurrency bound is engine-wide: each running fn holds one of
// the engine's worker slots, so concurrent forEach calls (concurrent
// suite runs, concurrent service jobs) never exceed cfg.Workers
// in-flight items between them. When ctx is canceled, remaining items
// are skipped (in-flight ones complete — work items are the engine's
// atomic unit, so the result store never sees a torn entry). A panic
// on a work item stops the run and is re-raised on the calling
// goroutine, so callers' recover semantics (the imlid service fails
// the one job; the CLIs crash loudly) hold no matter which worker hit
// it.
func (e *Engine) forEach(ctx context.Context, n int, fn func(i int)) {
	launchers := e.workers
	if launchers > n {
		launchers = n
	}
	feed := make(chan int)
	stop := make(chan struct{})
	var panicMu sync.Mutex
	var panicVal any
	panicked := false
	runOne := func(i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked, panicVal = true, r
					close(stop)
				}
				panicMu.Unlock()
			}
		}()
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		fn(i)
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < launchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if !runOne(i) {
					return
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case feed <- i:
		case <-ctx.Done():
			break dispatch
		case <-stop:
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// RunSuite simulates one configuration over every benchmark of a
// suite. builder must build a fresh predictor per call; name labels
// the configuration and keys the store (so it must uniquely identify
// what builder builds). Results come back in benchmark order and are
// deterministic regardless of worker count.
func (e *Engine) RunSuite(builder func() predictor.Predictor, name, suite string, benches []workload.Benchmark, budget int) SuiteRun {
	run, _ := e.RunSuiteContext(context.Background(), builder, name, suite, benches, budget, nil)
	return run
}

// RunSuiteContext is RunSuite with cancellation and per-item progress.
// When ctx is canceled the run stops scheduling work items and returns
// the context's error; the partial SuiteRun must be discarded (skipped
// benchmarks read as zero results), but every item that did complete
// was stored normally, so a re-run is incremental. onItem, when
// non-nil, is invoked once per shard of each completed work item;
// calls are serialized and Done is strictly increasing, so callers may
// forward events without locking.
func (e *Engine) RunSuiteContext(ctx context.Context, builder func() predictor.Predictor, name, suite string, benches []workload.Benchmark, budget int, onItem func(ItemEvent)) (SuiteRun, error) {
	// The engine's geometry as work items: one per (benchmark, shard),
	// or in exact mode one chain per benchmark covering all its shards.
	// A chain executes sequentially on one worker; the pool then
	// parallelizes across benchmarks.
	n, per := e.shards, 1
	if e.exact && n > 1 {
		per = n
	}
	items := make([]ItemSpec, 0, len(benches)*n/per)
	for _, b := range benches {
		for si := 0; si < n; si += per {
			it := ItemSpec{Config: name, Suite: suite, Bench: b.Name, Seed: b.Seed,
				Budget: budget, Shard: si, Shards: n, Warmup: e.warmup}
			if per > 1 {
				it.Warmup, it.Exact = 0, true
			}
			items = append(items, it)
		}
	}
	// Item i fills shards [i*per, (i+1)*per) of the benchmark-major
	// shard table.
	shards := make([]Result, len(benches)*n)
	var mu sync.Mutex
	cached, done := 0, 0
	e.forEach(ctx, len(items), func(i int) {
		b := benches[i*per/n]
		hit, ok := e.run(ctx, builder, b, items[i], shards[i*per:(i+1)*per])
		mu.Lock()
		defer mu.Unlock()
		for j, h := range hit {
			if h {
				cached++
			}
			if ok && onItem != nil {
				done++
				onItem(ItemEvent{Config: name, Suite: suite, Trace: b.Name, Shard: items[i].Shard + j,
					Done: done, Total: len(shards), Cached: h})
			}
		}
	})

	run := SuiteRun{Config: name, Suite: suite, Results: make([]Result, len(benches))}
	for bi := range benches {
		run.Results[bi] = MergeShards(shards[bi*n : (bi+1)*n])
	}
	run.CachedShards = cached
	run.RanShards = len(shards) - cached
	return run, ctx.Err()
}

// feedWindow advances p over a window of b's deterministic stream:
// records before skip are not fed (they are either outside the
// warm-up window or already incorporated in a restored snapshot),
// records in [skip, start) train the predictor unmeasured, and records
// in [start, end) are measured. It prefers the materialized stream
// (DESIGN.md §6) and falls back to callback generation. Returns the
// measured result, the stream position the predictor ended at, and the
// number of records actually fed.
func (e *Engine) feedWindow(p predictor.Predictor, b workload.Benchmark, budget, skip, start, end int) (res Result, finalPos, fed int) {
	var stream *workload.Stream
	if e.streams != nil {
		stream = e.streams.Get(b, budget)
	}
	if stream != nil {
		// The materialized stream is the full Generate(budget) output
		// including the episode-granular overshoot, so an unsharded
		// run's unbounded window clamps to the identical record set a
		// plain Feed would see.
		recs := stream.Records()
		res = feedRecords(p, b.Name, recs, skip, start, end)
		finalPos = len(recs)
	} else {
		genEnd := end
		if end == noLimit {
			genEnd = budget
		}
		seen := 0
		res = feedSpan(p, b.Name, skip, start, end, func(emit func(trace.Record)) {
			b.Generate(genEnd, func(r trace.Record) {
				seen++
				emit(r)
			})
		})
		finalPos = seen
	}
	if end < finalPos {
		finalPos = end
	}
	if fed = finalPos - skip; fed < 0 {
		fed = 0
	}
	return res, finalPos, fed
}

// run is the engine's one work-item executor, behind both suite runs
// and leased items (RunItem). It fills out with one result per shard
// the item covers, from shard it.Shard on, and reports which shards
// the store served. The other shards go to the RemoteRunner when one
// is configured and the item can be rebuilt by name on the other side
// (DESIGN.md §14). Otherwise they are simulated here: a plain shard,
// or the exact chain. ok is false when ctx canceled the item before it
// completed; out must then be discarded. Local simulation is the
// engine's atomic unit, so ctx only stops remote dispatch and chains
// (at a shard boundary).
func (e *Engine) run(ctx context.Context, builder func() predictor.Predictor, b workload.Benchmark, it ItemSpec, out []Result) (hit []bool, ok bool) {
	hit = make([]bool, len(out))
	missing := 0
	for i := range out {
		if e.store != nil {
			out[i], hit[i] = e.store.Load(it.key(it.Shard + i))
		}
		if hit[i] {
			e.hits.Add(1)
		} else {
			missing++
		}
	}
	switch {
	case missing == 0:
		return hit, true
	case e.remote != nil && remoteEligible(it.Config, it.Bench):
		return hit, e.dispatch(ctx, it, out, hit)
	}
	if err := faultinject.Err("sim/engine.item"); err != nil {
		// Injected work-item failure: panic so forEach re-raises on the
		// caller, the same path a real simulation bug would take.
		panic(err)
	}
	if it.chain() {
		return hit, e.simulateChain(ctx, builder, b, it, out, hit)
	}
	// A plain shard reads its window of the benchmark's materialized
	// stream (DESIGN.md §6), skips records before its warm-up window,
	// trains unmeasured through the window, and measures its segment.
	// An unsharded item with the snapshot layer on first resumes from
	// the longest cached prefix and persists its end-of-run state for
	// later, longer-budget runs (DESIGN.md §8).
	start, _, _ := it.Window(it.Shard)
	skip := max(start-it.Warmup, 0)
	resume := e.snapshots && it.Shards == 1 && e.store != nil
	var p predictor.Predictor
	var partial Result
	if resume {
		// The snapshot carries both the predictor state at its position
		// and the counters measured before it; measurement goes on from
		// there.
		p, partial, skip = e.restore(builder, it, it.Budget)
		start = skip
	} else {
		p = builder()
	}
	var finalPos int
	out[0], finalPos = e.simulate(p, b, it, it.Shard, skip, start, partial)
	if resume && finalPos > 0 {
		e.saveSnapshot(p, it.snapKey(finalPos), out[0])
	}
	return hit, true
}

// dispatch runs the item on the RemoteRunner and stores the results of
// the shards the store did not serve, under the keys a local run uses:
// the store stays the merge point, and a duplicate completion appends
// an entry with identical data, which loads the same. An exact chain
// with any miss dispatches whole, since the remote re-derives every
// boundary state anyway. Error contract (RemoteRunner): a canceled run
// returns false and is discarded; any other error, or a result count
// that does not match the item, panics like a failed local item.
func (e *Engine) dispatch(ctx context.Context, it ItemSpec, out []Result, hit []bool) bool {
	res, err := e.remote.RunItem(ctx, it)
	if err != nil && ctx.Err() != nil {
		return false
	}
	if err == nil && len(res) != len(out) {
		err = fmt.Errorf("got %d results, want %d", len(res), len(out))
	}
	if err != nil {
		panic(fmt.Errorf("sim: remote item %s/%s shard %d/%d: %w", it.Config, it.Bench, it.Shard, it.Shards, err))
	}
	for i, r := range res {
		if !hit[i] {
			out[i] = r
			if e.store != nil {
				_ = e.store.Save(it.key(it.Shard+i), r)
			}
		}
	}
	return true
}

// simulateChain simulates the uncached shards of an exact chain as a
// chained partition of the contiguous stream. Shard i starts from the
// exact predictor state at its boundary, restored from a cached
// snapshot or rebuilt by replaying the stream from the nearest earlier
// one, so the merged results are bit-identical to the unsharded run.
// Each shard's result and each boundary state are stored individually.
// A canceled ctx stops the chain at the next shard boundary and
// returns false; completed shards are already stored.
func (e *Engine) simulateChain(ctx context.Context, builder func() predictor.Predictor, b workload.Benchmark, it ItemSpec, out []Result, hit []bool) bool {
	var p predictor.Predictor
	pos := 0
	for i := range out {
		if hit[i] {
			// The live chain state is now behind this shard's end; a
			// later uncached shard restores or replays instead.
			p = nil
			continue
		}
		if ctx.Err() != nil {
			return false
		}
		start, _, _ := it.Window(i)
		if p == nil || pos > start {
			p, _, pos = e.restore(builder, it, start)
		}
		// Replaying [pos, start) as training feeds the exact records of
		// the contiguous run, not an approximation.
		out[i], pos = e.simulate(p, b, it, i, pos, start, Result{})
		if e.store != nil && pos > 0 {
			// The boundary state seeds shard i+1 on a later run, and —
			// because the chain measures every record from 0 — its merged
			// counters double as the budget-sweep resume payload.
			e.saveSnapshot(p, it.snapKey(pos), MergeShards(out[:i+1]))
		}
	}
	return true
}

// simulate feeds p the records [skip, end) of shard's window — training
// unmeasured before start — adds partial, the counters a restored
// snapshot already measured, then counts the work and stores the
// result. It returns the result and the stream position p ended at.
func (e *Engine) simulate(p predictor.Predictor, b workload.Benchmark, it ItemSpec, shard, skip, start int, partial Result) (Result, int) {
	_, end, unbounded := it.Window(shard)
	if unbounded {
		end = noLimit
	}
	res, finalPos, fed := e.feedWindow(p, b, it.Budget, skip, start, end)
	res.Instructions += partial.Instructions
	res.Records += partial.Records
	res.Conditionals += partial.Conditionals
	res.Mispredicted += partial.Mispredicted
	e.simulated.Add(1)
	e.records.Add(uint64(fed))
	if e.store != nil {
		// Best-effort: a full disk or read-only cache directory must
		// not fail the simulation; the run simply stays uncached.
		_ = e.store.Save(it.key(shard), res)
	}
	return res, finalPos
}

// restore returns a predictor holding the exact stream state at the
// largest snapshotted position ≤ limit, the counters measured before
// that position, and the position. It returns a fresh predictor at
// position 0 when no usable snapshot is cached or the predictor is not
// a Snapshotter.
func (e *Engine) restore(builder func() predictor.Predictor, it ItemSpec, limit int) (predictor.Predictor, Result, int) {
	if e.store != nil {
		for _, pos := range e.store.SnapshotPositions(it.snapKey(0)) {
			// A snapshot past limit would overshoot the window (a run
			// cannot un-simulate); positions come sorted descending, so
			// keep scanning.
			if pos > limit || pos <= 0 {
				continue
			}
			payload, ok := e.store.LoadSnapshot(it.snapKey(pos))
			if !ok {
				continue
			}
			p := builder()
			sp, ok := p.(snap.Snapshotter)
			if !ok {
				return p, Result{}, 0
			}
			partial, err := decodeSimState(payload, sp)
			if err != nil {
				// Corrupt or structurally mismatched snapshot: treat as a
				// miss and try the next shorter prefix.
				continue
			}
			e.resumed.Add(1)
			return p, partial, pos
		}
	}
	return builder(), Result{}, 0
}

// saveSnapshot persists the predictor's state at the key's stream
// position together with the counters measured before it, best-effort.
func (e *Engine) saveSnapshot(p predictor.Predictor, k SnapKey, partial Result) {
	sp, ok := p.(snap.Snapshotter)
	if !ok || e.store.HasSnapshot(k) {
		return
	}
	enc := snapEncoders.Get().(*snap.Encoder)
	_ = e.store.SaveSnapshot(k, encodeSimState(enc, partial, sp))
	snapEncoders.Put(enc)
}

// snapEncoders pools snapshot encoders, so a saved snapshot does not
// grow a fresh ~40 KB buffer by append-doubling; on sweep-resume that
// garbage cost about a quarter of the jobs per second. The store copies
// the payload into its frame, so an encoder is free again once
// SaveSnapshot returns.
var snapEncoders = sync.Pool{New: func() any { return snap.NewEncoder() }}

// encodeSimState serializes a snapshot payload into enc, from empty:
// the partial result counters over the simulated prefix, then the full
// predictor state.
func encodeSimState(enc *snap.Encoder, partial Result, p snap.Snapshotter) []byte {
	enc.Reset()
	enc.Begin("simstate", 1)
	enc.U64(partial.Instructions)
	enc.U64(partial.Records)
	enc.U64(partial.Conditionals)
	enc.U64(partial.Mispredicted)
	p.Snapshot(enc)
	return enc.Bytes()
}

// decodeSimState restores a snapshot payload into p and returns the
// partial counters.
func decodeSimState(payload []byte, p snap.Snapshotter) (Result, error) {
	dec := snap.NewDecoder(payload)
	dec.Expect("simstate", 1)
	var partial Result
	partial.Instructions = dec.U64()
	partial.Records = dec.U64()
	partial.Conditionals = dec.U64()
	partial.Mispredicted = dec.U64()
	if err := dec.Err(); err != nil {
		return Result{}, err
	}
	if err := p.RestoreSnapshot(dec); err != nil {
		return Result{}, err
	}
	return partial, nil
}

// MergeShards combines the per-shard results of one benchmark by
// summing counters, so MPKI and misprediction rate become the
// instruction- and branch-weighted aggregates of the shards. The
// labels are taken from the first part.
func MergeShards(parts []Result) Result {
	if len(parts) == 0 {
		return Result{}
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out.Instructions += p.Instructions
		out.Records += p.Records
		out.Conditionals += p.Conditionals
		out.Mispredicted += p.Mispredicted
	}
	return out
}
