package sim

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

func TestItemSpecValidate(t *testing.T) {
	good := ItemSpec{Config: "gshare", Suite: "cbp4", Bench: "SPEC2K6-04", Seed: 1,
		Budget: 1000, Shard: 1, Shards: 4, Warmup: 100}
	cases := []struct {
		name string
		mut  func(*ItemSpec)
		want string // substring of the error, "" = valid
	}{
		{"valid", func(*ItemSpec) {}, ""},
		{"unknown config", func(s *ItemSpec) { s.Config = "no-such-config" },
			`sim: item config: predictor: unknown configuration "no-such-config"`},
		{"unknown bench", func(s *ItemSpec) { s.Bench = "no-such-bench" },
			`sim: item bench: workload: unknown benchmark "no-such-bench"`},
		{"zero budget", func(s *ItemSpec) { s.Budget = 0 }, "budget"},
		{"zero shards", func(s *ItemSpec) { s.Shards = 0 }, "shards"},
		{"negative shard", func(s *ItemSpec) { s.Shard = -1 }, "out of range"},
		{"shard past count", func(s *ItemSpec) { s.Shard = 4 }, "out of range"},
		{"exact chain ignores shard index", func(s *ItemSpec) { s.Shard = 4; s.Exact = true }, ""},
		{"negative warmup", func(s *ItemSpec) { s.Warmup = -1 }, "warmup"},
	}
	for _, tc := range cases {
		spec := good
		tc.mut(&spec)
		err := spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v, want nil", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestItemSpecValidateAllocFree: validating a well-formed item is a
// pair of registry lookups — no predictor or benchmark is built.
func TestItemSpecValidateAllocFree(t *testing.T) {
	item := ItemSpec{Config: "tage-sc-l+imli", Suite: "cbp4", Bench: "SPEC2K6-04", Seed: 1,
		Budget: 1000, Shard: 1, Shards: 4, Warmup: 100}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := item.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocates %.1f times per call, want 0", allocs)
	}
}

// TestRunItemMatchesLocalShard: executing a leased item must yield the
// byte-exact result of the equivalent local work item, using the
// item's geometry rather than the executing engine's. The reference is
// a local suite run with the item's geometry, read back from its store
// under the shard's key.
func TestRunItemMatchesLocalShard(t *testing.T) {
	b := workload.CBP4()[0]
	// The worker's own configuration is deliberately different from the
	// item's geometry: geometry must come from the item.
	worker := NewEngine(EngineConfig{Shards: 7, Warmup: 1})
	item := ItemSpec{Config: "gshare", Suite: "cbp4", Bench: b.Name, Seed: b.Seed,
		Budget: 9000, Shard: 1, Shards: 3, Warmup: 500}
	res, err := worker.RunItem(context.Background(), item)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("plain item returned %d results, want 1", len(res))
	}
	st := OpenStore(t.TempDir())
	NewEngine(EngineConfig{Shards: 3, Warmup: 500, Store: st}).
		RunSuite(builderFor("gshare"), "gshare", "cbp4", []workload.Benchmark{b}, 9000)
	ref, ok := st.Load(Key{Engine: EngineVersion, Config: "gshare", Suite: "cbp4", Trace: b.Name,
		Budget: 9000, Seed: b.Seed, Shard: 1, Shards: 3, Warmup: 500})
	if !ok {
		t.Fatal("local run stored no result for shard 1")
	}
	if res[0] != ref {
		t.Errorf("RunItem %+v != local shard %+v", res[0], ref)
	}
}

func TestRunItemExactChainMatchesLocal(t *testing.T) {
	b := workload.CBP4()[1]
	worker := NewEngine(EngineConfig{})
	item := ItemSpec{Config: "bimodal", Suite: "cbp4", Bench: b.Name, Seed: b.Seed,
		Budget: 9000, Shards: 3, Exact: true}
	res, err := worker.RunItem(context.Background(), item)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("exact chain returned %d results, want 3", len(res))
	}
	st := OpenStore(t.TempDir())
	NewEngine(EngineConfig{Shards: 3, ExactShards: true, Store: st}).
		RunSuite(builderFor("bimodal"), "bimodal", "cbp4", []workload.Benchmark{b}, 9000)
	for i := range res {
		ref, ok := st.Load(Key{Engine: EngineVersion, Config: "bimodal", Suite: "cbp4", Trace: b.Name,
			Budget: 9000, Seed: b.Seed, Shard: i, Shards: 3, Exact: true})
		if !ok {
			t.Fatalf("local chain stored no result for shard %d", i)
		}
		if res[i] != ref {
			t.Errorf("shard %d: RunItem %+v != local %+v", i, res[i], ref)
		}
	}
}

func TestRunItemRejectsInvalidAndSurvivesSeed(t *testing.T) {
	worker := NewEngine(EngineConfig{})
	if _, err := worker.RunItem(context.Background(), ItemSpec{Config: "nope"}); err == nil {
		t.Error("invalid item accepted")
	}
	// A remixed seed (seed-sweep variant) must flow into the generator:
	// same bench name, different seed, different counters.
	b := workload.CBP4()[0]
	mk := func(seed uint64) Result {
		res, err := worker.RunItem(context.Background(),
			ItemSpec{Config: "gshare", Suite: "cbp4", Bench: b.Name, Seed: seed, Budget: 5000, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	if mk(b.Seed) == mk(b.Seed^0x1234) {
		t.Error("remixed seed produced identical counters — Seed is not reaching the generator")
	}
}

// recordingRemote proxies to a backing engine and records dispatches —
// enough to observe which items the coordinator side sends remotely.
type recordingRemote struct {
	backend *Engine
	calls   atomic.Int64
	mu      sync.Mutex
	items   []ItemSpec
}

func (r *recordingRemote) RunItem(ctx context.Context, item ItemSpec) ([]Result, error) {
	r.calls.Add(1)
	r.mu.Lock()
	r.items = append(r.items, item)
	r.mu.Unlock()
	return r.backend.RunItem(ctx, item)
}

func TestRemoteDispatchBitIdenticalAndEligibilityGated(t *testing.T) {
	benches := workload.CBP4()[:2]
	remote := &recordingRemote{backend: NewEngine(EngineConfig{})}
	e := NewEngine(EngineConfig{Shards: 2, Remote: remote})

	ref := NewEngine(EngineConfig{Shards: 2}).RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 8000)
	run := e.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 8000)
	for i := range ref.Results {
		if run.Results[i] != ref.Results[i] {
			t.Errorf("%s: remote %+v != local %+v", ref.Results[i].Trace, run.Results[i], ref.Results[i])
		}
	}
	if got, want := remote.calls.Load(), int64(len(benches)*2); got != want {
		t.Errorf("remote dispatches = %d, want %d", got, want)
	}

	// A non-registry config name is not rebuildable remotely: the same
	// engine must run it locally, without touching the RemoteRunner.
	before := remote.calls.Load()
	e.RunSuite(builderFor("gshare"), "not-in-registry", "cbp4", benches, 8000)
	if after := remote.calls.Load(); after != before {
		t.Errorf("custom config dispatched %d items remotely, want 0", after-before)
	}
}

// TestRemoteExactChainPartlyCached: a chain with one shard already in
// the coordinator's store dispatches whole, once per benchmark, but
// only the missing shards are taken from the response and stored; the
// cached shard keeps serving its stored entry.
func TestRemoteExactChainPartlyCached(t *testing.T) {
	benches := workload.CBP4()[:2]
	const budget, n = 9000, 3
	key := func(b workload.Benchmark, shard int) Key {
		return Key{Engine: EngineVersion, Config: "bimodal", Suite: "cbp4", Trace: b.Name,
			Budget: budget, Seed: b.Seed, Shard: shard, Shards: n, Exact: true}
	}
	ref := make([][]Result, len(benches))
	for bi, b := range benches {
		res, err := NewEngine(EngineConfig{}).RunItem(context.Background(), ItemSpec{
			Config: "bimodal", Suite: "cbp4", Bench: b.Name, Seed: b.Seed, Budget: budget, Shards: n, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		ref[bi] = res
	}

	// Pre-store shard 1 of the first benchmark's chain as a marked
	// entry: if the run overwrote it, or ignored it, the mark would be
	// gone from the store or from the merged result.
	st := OpenStore(t.TempDir())
	marked := ref[0][1]
	marked.Mispredicted++
	if err := st.Save(key(benches[0], 1), marked); err != nil {
		t.Fatal(err)
	}
	remote := &recordingRemote{backend: NewEngine(EngineConfig{})}
	e := NewEngine(EngineConfig{Shards: n, ExactShards: true, Store: st, Remote: remote})
	type shardID struct {
		trace string
		shard int
	}
	events := map[shardID]bool{}
	run, err := e.RunSuiteContext(context.Background(), builderFor("bimodal"), "bimodal", "cbp4", benches, budget,
		func(ev ItemEvent) { events[shardID{ev.Trace, ev.Shard}] = ev.Cached })
	if err != nil {
		t.Fatal(err)
	}

	if got := remote.calls.Load(); got != int64(len(benches)) {
		t.Errorf("remote dispatches = %d, want one per benchmark (%d)", got, len(benches))
	}
	for _, it := range remote.items {
		if !it.Exact || it.Shards != n {
			t.Errorf("dispatched %+v, want a whole %d-shard exact chain", it, n)
		}
	}
	if run.CachedShards != 1 || run.RanShards != len(benches)*n-1 {
		t.Errorf("CachedShards/RanShards = %d/%d, want 1/%d", run.CachedShards, run.RanShards, len(benches)*n-1)
	}
	if len(events) != len(benches)*n {
		t.Errorf("got %d distinct shard events, want %d", len(events), len(benches)*n)
	}
	for bi, b := range benches {
		want := append([]Result(nil), ref[bi]...)
		for i := 0; i < n; i++ {
			cached, seen := events[shardID{b.Name, i}]
			wantCached := bi == 0 && i == 1
			if !seen || cached != wantCached {
				t.Errorf("%s shard %d: event seen=%v cached=%v, want cached=%v", b.Name, i, seen, cached, wantCached)
			}
			if wantCached {
				want[i] = marked
			}
			got, ok := st.Load(key(b, i))
			if !ok || got != want[i] {
				t.Errorf("%s shard %d: stored %+v (present %v), want %+v", b.Name, i, got, ok, want[i])
			}
		}
		if run.Results[bi] != MergeShards(want) {
			t.Errorf("%s: merged %+v, want %+v", b.Name, run.Results[bi], MergeShards(want))
		}
	}

	// The whole chain is cached now: a re-run dispatches nothing.
	before := remote.calls.Load()
	if again := e.RunSuite(builderFor("bimodal"), "bimodal", "cbp4", benches, budget); again.RanShards != 0 {
		t.Errorf("re-run simulated %d shards, want 0", again.RanShards)
	}
	if got := remote.calls.Load() - before; got != 0 {
		t.Errorf("fully cached re-run dispatched %d items, want 0", got)
	}
}
