package sim

import (
	"context"
	"fmt"

	"repro/internal/predictor"
	"repro/internal/workload"
)

// ItemSpec is the serializable identity of one engine work item — the
// unit a coordinator dispatches to remote workers (internal/dist,
// DESIGN.md §14) and the engine's own unit of work. It carries exactly
// the inputs that address an item's results in the store (key): a
// registry configuration name, the workload
// identity (suite, benchmark name, generator seed), the branch budget,
// and the shard geometry. Everything is a value, so any process that
// shares this repository's registries can reconstruct the identical
// simulation: the benchmark regenerates from (Bench, Seed), the
// predictor from Config, and the result is deterministic — which is
// what makes distributed execution bit-identical to local execution by
// construction.
type ItemSpec struct {
	// Config is the predictor configuration registry name. Only
	// registry configurations are remotable: a custom builder closure
	// cannot cross a process boundary, so the engine runs such items
	// locally.
	Config string `json:"config"`
	// Suite and Bench identify the workload; Seed is the benchmark's
	// (possibly remixed) generator seed, so seed-sweep variants
	// dispatch like any other item.
	Suite string `json:"suite"`
	Bench string `json:"bench"`
	Seed  uint64 `json:"seed"`
	// Budget is the branch-record budget of the whole benchmark run
	// this item belongs to.
	Budget int `json:"budget"`
	// Shard and Shards place the item in its benchmark's split. An
	// Exact item covers the whole chained partition (Shard is 0 and
	// RunItem returns Shards results), because shard i of an exact
	// chain needs the predictor state at shard i-1's boundary — only
	// the chain as a whole is location-independent.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Warmup is the functional warm-up length (plain sharding only).
	Warmup int `json:"warmup"`
	// Exact selects boundary-snapshot chaining (ExactShards).
	Exact bool `json:"exact,omitempty"`
}

// chain reports whether the item is an exact chain. A one-shard Exact
// item is the plain unsharded run.
func (it ItemSpec) chain() bool { return it.Exact && it.Shards > 1 }

// key returns the store key of the result for the item's shard: the
// one place an item's inputs become a result address.
func (it ItemSpec) key(shard int) Key {
	return Key{
		Engine: EngineVersion, Config: it.Config, Suite: it.Suite, Trace: it.Bench,
		Budget: it.Budget, Seed: it.Seed, Shard: shard, Shards: it.Shards, Warmup: it.Warmup,
		Exact: it.chain(),
	}
}

// snapKey returns the key of the item's predictor-state snapshot at
// stream position pos.
func (it ItemSpec) snapKey(pos int) SnapKey {
	return SnapKey{Engine: EngineVersion, Config: it.Config, Suite: it.Suite, Trace: it.Bench, Seed: it.Seed, Pos: pos}
}

// Window returns the stream window [start, end) that the item's shard
// measures. A bounded window measures exactly end-start records. The
// unbounded one is the unsharded item or the last shard of an exact
// chain: it keeps the generator's episode-granular overshoot, so it
// measures at least end-start records. The engine simulates these
// windows, and the coordinator checks completions against them.
func (it ItemSpec) Window(shard int) (start, end int, unbounded bool) {
	start = workload.ShardStart(it.Budget, shard, it.Shards)
	end = start + workload.ShardBudget(it.Budget, shard, it.Shards)
	return start, end, it.Shards == 1 || (it.chain() && shard == it.Shards-1)
}

// Validate checks that the item can be reconstructed from the local
// registries and that its geometry is coherent.
func (it ItemSpec) Validate() error {
	if err := predictor.Known(it.Config); err != nil {
		return fmt.Errorf("sim: item config: %w", err)
	}
	if _, err := workload.ByName(it.Bench); err != nil {
		return fmt.Errorf("sim: item bench: %w", err)
	}
	if it.Budget <= 0 {
		return fmt.Errorf("sim: item budget must be positive, got %d", it.Budget)
	}
	if it.Shards < 1 {
		return fmt.Errorf("sim: item shards must be >= 1, got %d", it.Shards)
	}
	if it.Shard < 0 || (!it.Exact && it.Shard >= it.Shards) {
		return fmt.Errorf("sim: item shard %d out of range [0,%d)", it.Shard, it.Shards)
	}
	if it.Warmup < 0 {
		return fmt.Errorf("sim: item warmup must be >= 0, got %d", it.Warmup)
	}
	return nil
}

// RemoteRunner executes one work item somewhere else — the seam the
// coordinator (internal/dist) plugs into the engine. RunItem returns
// one Result for a plain item and Shards results (in shard order) for
// an Exact item. The call must be synchronous and idempotent: the
// engine treats the returned results exactly like locally simulated
// ones (same store keys, same merge), so re-running an item — a
// re-dispatched lease, a straggler duplicate — must produce the same
// bytes, which deterministic simulation guarantees.
//
// Error contract: a ctx-canceled RunItem returns ctx.Err() and the
// engine discards the run (the suite call's partial results are thrown
// away, as for any canceled run); any other error is treated like a
// work-item failure and panics through the engine, failing the one
// suite run the same way an injected "sim/engine.item" fault does.
type RemoteRunner interface {
	RunItem(ctx context.Context, item ItemSpec) ([]Result, error)
}

// remoteEligible reports whether a work item for (config, bench) can
// be dispatched to the engine's RemoteRunner: both must be
// reconstructible by name from the registries on the other side.
// Engine callers' contract that a config name uniquely identifies what
// its builder builds (RunSuite) is what makes the by-name rebuild
// equivalent.
func remoteEligible(config, bench string) bool {
	if predictor.Known(config) != nil {
		return false
	}
	_, err := workload.ByName(bench)
	return err == nil
}

// RunItem executes one work item on this engine with the item's own
// geometry (not the engine's): the worker side of the coordinator
// seam. It runs the same executor as a suite run, so the engine's
// store, stream cache, snapshot resume and worker pool all apply, and
// a worker daemon with a warm cache serves items incrementally. Panics
// inside the simulation (including injected "sim/engine.item" faults)
// are converted to errors: a worker must survive a poisoned item and
// report it, not die. A canceled ctx returns ctx.Err(), never a
// partial exact chain.
func (e *Engine) RunItem(ctx context.Context, item ItemSpec) (results []Result, err error) {
	if err := item.Validate(); err != nil {
		return nil, err
	}
	b, err := workload.ByName(item.Bench)
	if err != nil {
		return nil, err
	}
	b.Seed = item.Seed
	if item.Suite == "" {
		item.Suite = b.Suite
	}
	results = make([]Result, 1)
	if item.chain() {
		// A chain covers every shard and ignores the shard index.
		item.Shard = 0
		results = make([]Result, item.Shards)
	}
	builder := func() predictor.Predictor { return predictor.MustNew(item.Config) }
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, fmt.Errorf("sim: item %s/%s shard %d/%d: %v",
				item.Config, item.Bench, item.Shard, item.Shards, r)
		}
	}()
	// One engine worker slot per item, like every local work item, so a
	// worker daemon's -parallel bound holds across leased items too.
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()
	e.run(ctx, builder, b, item, results)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return results, nil
}
