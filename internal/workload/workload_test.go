package workload

import (
	"testing"

	"repro/internal/num"
	"repro/internal/trace"
)

func TestSuiteSizes(t *testing.T) {
	if got := len(CBP4()); got != 40 {
		t.Errorf("CBP4 suite has %d traces, want 40", got)
	}
	if got := len(CBP3()); got != 40 {
		t.Errorf("CBP3 suite has %d traces, want 40", got)
	}
	if got := len(All()); got != 80 {
		t.Errorf("All() has %d traces, want 80", got)
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestPaperBenchmarksPresent(t *testing.T) {
	// The benchmarks the paper singles out must exist under the exact
	// names used in the text.
	for _, name := range []string{
		"SPEC2K6-04", "SPEC2K6-12", "MM-4", // CBP4
		"CLIENT02", "MM07", "WS03", "WS04", // CBP3
	} {
		if _, err := ByName(name); err != nil {
			t.Errorf("missing paper benchmark %q: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName("NOPE")
	if err == nil || err.Error() != `workload: unknown benchmark "NOPE"` {
		t.Errorf("ByName(NOPE) err = %v, want the unknown-benchmark error", err)
	}
}

// firstRecords generates b's first n records.
func firstRecords(b Benchmark, n int) []trace.Record {
	var out []trace.Record
	b.Generate(n, func(r trace.Record) {
		if len(out) < n {
			out = append(out, r)
		}
	})
	return out
}

// TestByNameMatchesAll: the catalog lookup returns, for every
// benchmark, a definition equal to the freshly built one — same
// identity and the same generated stream.
func TestByNameMatchesAll(t *testing.T) {
	for _, want := range All() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", want.Name, err)
		}
		if got.Name != want.Name || got.Suite != want.Suite || got.Seed != want.Seed {
			t.Fatalf("ByName(%s) = {%s %s %d}, want {%s %s %d}", want.Name,
				got.Name, got.Suite, got.Seed, want.Name, want.Suite, want.Seed)
		}
		g, w := firstRecords(got, 1000), firstRecords(want, 1000)
		if len(g) != len(w) {
			t.Fatalf("%s: %d records vs %d", want.Name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", want.Name, i, g[i], w[i])
			}
		}
	}
}

// TestByNameReturnsCopy: a caller reseeding its copy (as the engine
// does for seed variants) must not change what the next lookup sees.
func TestByNameReturnsCopy(t *testing.T) {
	b, err := ByName("MM-4")
	if err != nil {
		t.Fatal(err)
	}
	seed := b.Seed
	b.Seed ^= 0xdead
	b.Suite = "mutated"
	again, _ := ByName("MM-4")
	if again.Seed != seed || again.Suite != "cbp4" {
		t.Fatalf("mutation leaked into the catalog: %+v", again)
	}
}

func TestSuiteTags(t *testing.T) {
	for _, b := range CBP4() {
		if b.Suite != "cbp4" {
			t.Errorf("%s tagged %q", b.Name, b.Suite)
		}
	}
	for _, b := range CBP3() {
		if b.Suite != "cbp3" {
			t.Errorf("%s tagged %q", b.Name, b.Suite)
		}
	}
}

func TestGenerateRespectsBudget(t *testing.T) {
	b, err := ByName("SPEC2K6-00")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	b.Generate(5000, func(trace.Record) { count++ })
	// Kernels emit whole episodes; allow modest overshoot only.
	if count < 5000 || count > 5000+20000 {
		t.Errorf("generated %d records for budget 5000", count)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b, err := ByName("CLIENT02")
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []trace.Record {
		var out []trace.Record
		b.Generate(20000, func(r trace.Record) { out = append(out, r) })
		return out
	}
	a, b2 := collect(), collect()
	if len(a) != len(b2) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b2))
	}
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("record %d differs between identical generations", i)
		}
	}
}

func TestDistinctBenchmarksDiffer(t *testing.T) {
	g := func(name string) []trace.Record {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var out []trace.Record
		b.Generate(2000, func(r trace.Record) { out = append(out, r) })
		return out
	}
	a, b := g("SPEC2K6-01"), g("SPEC2K6-02")
	same := 0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Taken == b[i].Taken {
			same++
		}
	}
	if float64(same)/float64(n) > 0.95 {
		t.Error("two different benchmarks generated near-identical outcome streams")
	}
}

func TestTraceShape(t *testing.T) {
	for _, name := range []string{"SPEC2K6-12", "MM07", "SERVER-3", "WS01"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := b.Stats(30000)
		if s.Conditionals == 0 {
			t.Fatalf("%s: no conditional branches", name)
		}
		condFrac := float64(s.Conditionals) / float64(s.Records)
		if condFrac < 0.5 {
			t.Errorf("%s: conditional fraction %.2f too low", name, condFrac)
		}
		rate := s.TakenRate()
		if rate < 0.2 || rate > 0.95 {
			t.Errorf("%s: taken rate %.2f implausible", name, rate)
		}
		if s.Instructions < s.Records*4 {
			t.Errorf("%s: instruction gaps missing (instr=%d, records=%d)", name, s.Instructions, s.Records)
		}
	}
}

func TestLoopNestBenchmarksHaveBackwardBranches(t *testing.T) {
	// The IMLI mechanism keys on backward conditional branches; the
	// nest benchmarks must contain a healthy share.
	for _, name := range []string{"SPEC2K6-12", "CLIENT02", "MM07", "WS04"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := b.Stats(30000)
		frac := float64(s.Backward) / float64(s.Conditionals)
		if frac < 0.02 {
			t.Errorf("%s: backward branch fraction %.3f too low for a loop-nest benchmark", name, frac)
		}
	}
}

func TestServerBenchmarksHaveCalls(t *testing.T) {
	b, err := ByName("SERVER-1")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	b.Generate(20000, func(r trace.Record) { kinds[r.Kind]++ })
	if kinds[trace.Call] == 0 || kinds[trace.Return] == 0 {
		t.Errorf("server benchmark lacks call/return records: %v", kinds)
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != 80 {
		t.Fatalf("Names() returned %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("Names() not sorted")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	seeds := map[uint64]string{}
	for _, b := range All() {
		if prev, dup := seeds[b.Seed]; dup {
			t.Errorf("benchmarks %q and %q share seed", prev, b.Name)
		}
		seeds[b.Seed] = b.Name
	}
}

func TestBitvec(t *testing.T) {
	rng := newTestRand()
	v := newBitvec(rng, 16)
	// at() must handle negative and overflowing indices.
	_ = v.at(-5)
	_ = v.at(100)
	before := make([]uint8, 16)
	copy(before, v.bits)
	v.mutate(rng, 1.0) // flip everything
	for i := range before {
		if v.bits[i] == before[i] {
			t.Fatalf("mutate(1.0) left bit %d unchanged", i)
		}
	}
}

func newTestRand() *num.Rand { return num.NewRand(99) }

func TestShardPartition(t *testing.T) {
	// Shard budgets and starts must partition [0, budget) exactly for
	// even and uneven splits.
	for _, tc := range []struct{ budget, n int }{
		{10000, 1}, {10000, 4}, {10007, 5}, {3, 8}, {0, 4},
	} {
		off := 0
		total := 0
		for s := 0; s < tc.n; s++ {
			if got := ShardStart(tc.budget, s, tc.n); got != off {
				t.Errorf("ShardStart(%d, %d, %d) = %d, want %d", tc.budget, s, tc.n, got, off)
			}
			sb := ShardBudget(tc.budget, s, tc.n)
			if sb < 0 {
				t.Errorf("negative shard budget %d", sb)
			}
			off += sb
			total += sb
		}
		if total != tc.budget {
			t.Errorf("shards of budget=%d n=%d sum to %d", tc.budget, tc.n, total)
		}
	}
}

func TestShardSegmentsMatchStream(t *testing.T) {
	// Generating a prefix of the stream must reproduce the full
	// stream's records exactly: sharding depends on prefix stability.
	b, err := ByName("MM-4")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 5000
	var full []trace.Record
	b.Generate(budget, func(r trace.Record) { full = append(full, r) })
	// Generation stops at episode granularity, so it may overshoot
	// the budget slightly — but never undershoot.
	if len(full) < budget {
		t.Fatalf("generated %d records, want >= %d", len(full), budget)
	}
	const n = 3
	for s := 0; s < n; s++ {
		end := ShardStart(budget, s, n) + ShardBudget(budget, s, n)
		var prefix []trace.Record
		b.Generate(end, func(r trace.Record) { prefix = append(prefix, r) })
		if len(prefix) < end {
			t.Fatalf("prefix has %d records, want >= %d", len(prefix), end)
		}
		for i := 0; i < end; i++ {
			if prefix[i] != full[i] {
				t.Fatalf("record %d differs between prefix and full stream", i)
			}
		}
	}
}
