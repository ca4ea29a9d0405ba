package workload

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/num"
	"repro/internal/trace"
)

func mustBench(t *testing.T, name string) Benchmark {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamMatchesGenerate(t *testing.T) {
	b := mustBench(t, "SPEC2K6-12")
	const budget = 5000
	var direct []trace.Record
	b.Generate(budget, func(r trace.Record) { direct = append(direct, r) })

	c := NewStreamCache(0, "")
	st := c.Get(b, budget)
	if st == nil {
		t.Fatal("stream not materialized")
	}
	if st.Name() != b.Name {
		t.Errorf("stream name = %q", st.Name())
	}
	recs := st.Records()
	if len(recs) != len(direct) {
		t.Fatalf("stream has %d records, direct generation %d", len(recs), len(direct))
	}
	for i := range direct {
		if recs[i] != direct[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, recs[i], direct[i])
		}
	}
	if len(recs) < budget {
		t.Errorf("stream shorter than budget: %d < %d", len(recs), budget)
	}
}

func TestStreamGeneratedOnce(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(0, "")
	first := c.Get(b, 2000)
	for i := 0; i < 5; i++ {
		if got := c.Get(b, 2000); got != first {
			t.Fatal("repeated Get returned a different stream")
		}
	}
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("Generated = %d, want 1", st.Generated)
	}
	if st.Hits != 5 {
		t.Errorf("Hits = %d, want 5", st.Hits)
	}
}

func TestStreamConcurrentGetSingleGeneration(t *testing.T) {
	b := mustBench(t, "CLIENT02")
	c := NewStreamCache(0, "")
	const goroutines = 16
	streams := make([]*Stream, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = c.Get(b, 3000)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if streams[i] != streams[0] {
			t.Fatal("concurrent Gets returned different streams")
		}
	}
	if g := c.Stats().Generated; g != 1 {
		t.Errorf("Generated = %d under concurrency, want 1", g)
	}
}

func TestStreamDistinctBudgetsAreDistinctStreams(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(0, "")
	small := c.Get(b, 1000)
	big := c.Get(b, 2000)
	if small == big {
		t.Fatal("different budgets shared a stream")
	}
	// The deterministic stream is prefix-stable: the small stream must
	// be a prefix of the big one (DESIGN.md §2), which is what lets
	// shards share one materialization.
	for i := range small.Records()[:1000] {
		if small.Records()[i] != big.Records()[i] {
			t.Fatalf("record %d not prefix-stable", i)
		}
	}
	if g := c.Stats().Generated; g != 2 {
		t.Errorf("Generated = %d, want 2", g)
	}
}

func TestStreamLRUBound(t *testing.T) {
	b1 := mustBench(t, "MM-4")
	b2 := mustBench(t, "MM-5")
	// Budget 1000 → ~24KB per stream; bound fits one stream only.
	c := NewStreamCache(40<<10, "")
	c.Get(b1, 1000)
	c.Get(b2, 1000) // evicts b1
	st := c.Stats()
	if st.ResidentStreams != 1 {
		t.Errorf("resident streams = %d, want 1 under the bound", st.ResidentStreams)
	}
	if st.ResidentBytes > 40<<10 {
		t.Errorf("resident bytes = %d exceeds the 40KiB bound", st.ResidentBytes)
	}
	c.Get(b1, 1000) // must regenerate
	if g := c.Stats().Generated; g != 3 {
		t.Errorf("Generated = %d after eviction round-trip, want 3", g)
	}
}

func TestStreamTooLargeDeclined(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(1<<10, "") // 1KiB: nothing fits
	if st := c.Get(b, 100000); st != nil {
		t.Error("oversized stream materialized instead of declined")
	}
	if g := c.Stats().Generated; g != 0 {
		t.Errorf("Generated = %d for a declined stream, want 0", g)
	}
}

// bigEpisodeKernel emits a fixed 1000-record episode, forcing
// generation to overshoot the budget far past the admission estimate's
// 64-record slack. (Real kernels overshoot by well under 64 records,
// so this path needs a synthetic workload to exercise.)
type bigEpisodeKernel struct{ s site }

func (k *bigEpisodeKernel) episode(e *emitter) {
	for i := 0; i < 1000; i++ {
		e.cond(k.s, i%2 == 0)
	}
}

func TestStreamOvershootNotKeptResidentPastBound(t *testing.T) {
	b := Benchmark{Name: "big-episode", Suite: "test", Seed: 1,
		parts: []part{{weight: 1, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
			return &bigEpisodeKernel{s: alloc.fwd()}
		}}}}
	const budget = 100
	maxBytes := int64(budget+64) * recordBytes // admits the estimate, not the reality
	c := NewStreamCache(maxBytes, "")
	st := c.Get(b, budget)
	if st == nil {
		t.Fatal("stream declined despite passing the estimate")
	}
	if len(st.Records()) <= budget+64 {
		t.Fatalf("synthetic kernel did not overshoot: %d records", len(st.Records()))
	}
	// The oversized stream is handed out but must not stay resident:
	// the memory bound is a promise.
	if got := c.Stats(); got.ResidentBytes > maxBytes {
		t.Errorf("resident bytes %d exceed bound %d after oversized materialization",
			got.ResidentBytes, maxBytes)
	}
}

func TestStreamSpillRoundTrip(t *testing.T) {
	b := mustBench(t, "WS04")
	dir := t.TempDir()
	const budget = 2500

	c1 := NewStreamCache(0, dir)
	st1 := c1.Get(b, budget)
	if st1 == nil {
		t.Fatal("no stream")
	}
	if c1.Stats().Generated != 1 {
		t.Fatalf("first cache stats = %+v", c1.Stats())
	}

	// A fresh cache over the same spill directory must reload from
	// disk — zero generator invocations — and reproduce the records
	// exactly (the trace codec is lossless).
	c2 := NewStreamCache(0, dir)
	st2 := c2.Get(b, budget)
	if st2 == nil {
		t.Fatal("no stream from spill")
	}
	st := c2.Stats()
	if st.Generated != 0 || st.SpillLoads != 1 {
		t.Fatalf("second cache stats = %+v, want a pure spill load", st)
	}
	if len(st1.Records()) != len(st2.Records()) {
		t.Fatalf("spill round-trip length %d vs %d", len(st2.Records()), len(st1.Records()))
	}
	for i := range st1.Records() {
		if st1.Records()[i] != st2.Records()[i] {
			t.Fatalf("record %d corrupted by spill round-trip", i)
		}
	}
	// Spill files must be atomic: no temp litter.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("stranded temp file %s in spill dir", e.Name())
		}
	}
}

func TestStreamSpillCorruptFallsBackToGeneration(t *testing.T) {
	b := mustBench(t, "MM-4")
	dir := t.TempDir()
	const budget = 1200

	c1 := NewStreamCache(0, dir)
	c1.Get(b, budget)
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("spill dir entries = %v (%v)", ents, err)
	}
	if err := os.WriteFile(filepath.Join(dir, ents[0].Name()), []byte("IMLTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewStreamCache(0, dir)
	st := c2.Get(b, budget)
	if st == nil {
		t.Fatal("no stream")
	}
	if s := c2.Stats(); s.Generated != 1 || s.SpillLoads != 0 {
		t.Errorf("corrupt spill stats = %+v, want regeneration", s)
	}
	if len(st.Records()) < budget {
		t.Errorf("regenerated stream short: %d < %d", len(st.Records()), budget)
	}
}

func TestStreamUnwritableSpillDegrades(t *testing.T) {
	b := mustBench(t, "MM-4")
	// A file where the spill directory should be: MkdirAll fails, the
	// stream must still materialize.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewStreamCache(0, blocked)
	if st := c.Get(b, 800); st == nil {
		t.Fatal("unwritable spill dir blocked materialization")
	}
}

// TestStreamCachePrefixViews: two budgets of one benchmark share one
// backing array once the longer one is resident; the shorter stream
// stays exactly what Generate makes, its capacity is clipped, and the
// generation and hit counters are what separate arrays gave.
func TestStreamCachePrefixViews(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(0, "")
	short := c.Get(b, 1000)
	long := c.Get(b, 2000)
	if short == nil || long == nil {
		t.Fatal("stream not materialized")
	}
	// The short entry is re-pointed at a view of the long stream's
	// array; a repeated Get returns that view.
	view := c.Get(b, 1000)
	if &view.Records()[0] != &long.Records()[0] {
		t.Fatal("budgets of one benchmark do not share a backing array")
	}
	if got := c.Get(b, 2000); got != long {
		t.Fatal("repeated Get of the longest budget returned a different stream")
	}
	var direct []trace.Record
	b.Generate(1000, func(r trace.Record) { direct = append(direct, r) })
	recs := view.Records()
	if len(recs) != len(direct) || len(recs) != len(short.Records()) {
		t.Fatalf("view has %d records, Generate %d, the first stream %d", len(recs), len(direct), len(short.Records()))
	}
	for i := range direct {
		if recs[i] != direct[i] {
			t.Fatalf("record %d of the view differs from Generate", i)
		}
	}
	if cap(recs) != len(recs) || cap(long.Records()) != len(long.Records()) {
		t.Errorf("views not clipped: cap %d for %d records, cap %d for %d", cap(recs), len(recs), cap(long.Records()), len(long.Records()))
	}
	// A shorter budget generated after a longer one is served from the
	// resident array too, with the same counters as before.
	shorter := c.Get(b, 500)
	if &shorter.Records()[0] != &long.Records()[0] {
		t.Error("a shorter budget generated later got its own backing array")
	}
	st := c.Stats()
	if st.Generated != 3 || st.Hits != 2 || st.ResidentStreams != 3 {
		t.Errorf("stats = %+v, want 3 generated, 2 hits, 3 resident", st)
	}
	if want := int64(cap(long.Records())) * recordBytes; st.ResidentBytes > want+64*recordBytes {
		t.Errorf("resident bytes %d, want one backing array (~%d)", st.ResidentBytes, want)
	}
}
