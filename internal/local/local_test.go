package local

import (
	"testing"

	"repro/internal/neural"
)

func TestGroupLearnsPeriodicPattern(t *testing.T) {
	// A period-7 random pattern: invisible to a per-PC counter, fully
	// determined by 7 bits of local history.
	g := NewGroup(DefaultConfig())
	pc := uint64(0x400)
	pattern := []bool{true, false, true, true, false, false, true}
	ctx := neural.Ctx{PC: pc}
	miss, total := 0, 0
	for i := 0; i < 4000; i++ {
		want := pattern[i%len(pattern)]
		sum := 0
		for _, c := range g.Components() {
			sum += c.Vote(ctx)
		}
		if i > 1000 {
			total++
			if (sum >= 0) != want {
				miss++
			}
		}
		for _, c := range g.Components() {
			c.Train(want)
		}
		g.UpdateHistory(pc, want)
	}
	if rate := float64(miss) / float64(total); rate > 0.02 {
		t.Errorf("local group missed period-7 pattern at rate %.3f", rate)
	}
}

func TestGroupSeparatesBranches(t *testing.T) {
	g := NewGroup(SmallConfig())
	a, b := uint64(0x100), uint64(0x104)
	for i := 0; i < 200; i++ {
		for _, c := range g.Components() {
			c.Vote(neural.Ctx{PC: a})
			c.Train(true)
			c.Vote(neural.Ctx{PC: b})
			c.Train(false)
		}
		g.UpdateHistory(a, true)
		g.UpdateHistory(b, false)
	}
	sumA, sumB := 0, 0
	for _, c := range g.Components() {
		sumA += c.Vote(neural.Ctx{PC: a})
		sumB += c.Vote(neural.Ctx{PC: b})
	}
	if sumA <= 0 || sumB >= 0 {
		t.Errorf("branches alias: sumA=%d sumB=%d", sumA, sumB)
	}
}

func TestTableHistClamped(t *testing.T) {
	cfg := Config{HistEntries: 64, HistBits: 8, TableEntries: 128, TableHists: []int{4, 100}, CtrBits: 6}
	g := NewGroup(cfg)
	if got := g.tables[1].histLen; got != 8 {
		t.Errorf("history length not clamped to table width: %d", got)
	}
}

func TestStorageBits(t *testing.T) {
	cfg := DefaultConfig()
	g := NewGroup(cfg)
	want := 256*24 + 4*2048*6
	if got := g.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
}

func TestComponentNames(t *testing.T) {
	g := NewGroup(DefaultConfig())
	seen := map[string]bool{}
	for _, c := range g.Components() {
		if seen[c.Name()] {
			t.Errorf("duplicate component name %q", c.Name())
		}
		seen[c.Name()] = true
	}
}

func TestHistoryAccessor(t *testing.T) {
	g := NewGroup(DefaultConfig())
	g.UpdateHistory(0x40, true)
	if g.History().Get(0x40) != 1 {
		t.Error("History() does not expose the shared table")
	}
}
