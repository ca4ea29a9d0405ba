package core

import (
	"testing"
	"testing/quick"

	"repro/internal/neural"
)

func TestIMLICounterHeuristic(t *testing.T) {
	m := NewIMLI()
	back, fwd := uint64(0x1000), uint64(0x2000)
	backTarget, fwdTarget := uint64(0x0f00), uint64(0x2100)

	// Forward branches never touch the counter.
	m.Observe(fwd, fwdTarget, true)
	m.Observe(fwd, fwdTarget, false)
	if m.Count() != 0 {
		t.Fatalf("forward branches moved the counter to %d", m.Count())
	}
	// Taken backward branches increment.
	for i := 1; i <= 5; i++ {
		m.Observe(back, backTarget, true)
		if m.Count() != uint32(i) {
			t.Fatalf("after %d taken backwards, count = %d", i, m.Count())
		}
	}
	// A not-taken backward branch resets.
	m.Observe(back, backTarget, false)
	if m.Count() != 0 {
		t.Fatalf("not-taken backward did not reset: %d", m.Count())
	}
}

func TestIMLICounterWraps(t *testing.T) {
	m := NewIMLI()
	for i := 0; i < (1<<CounterBits)+10; i++ {
		m.Observe(0x1000, 0x0f00, true)
	}
	if m.Count() >= 1<<CounterBits {
		t.Errorf("counter %d exceeds its %d-bit width", m.Count(), CounterBits)
	}
}

func TestIMLICheckpointRestore(t *testing.T) {
	f := func(steps []bool) bool {
		m := NewIMLI()
		for _, taken := range steps {
			m.Observe(0x1000, 0x0f00, taken)
		}
		cp := m.Checkpoint()
		want := m.Count()
		// Wrong-path observations...
		m.Observe(0x1000, 0x0f00, true)
		m.Observe(0x1000, 0x0f00, false)
		// ...must be fully undone by Restore.
		m.Restore(cp)
		return m.Count() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSICLearnsSameIterationPattern(t *testing.T) {
	// Out[N][M] = S[M]: the SIC table keyed by (PC, IMLIcount) must
	// become near perfect while a plain per-PC counter stays ~50%.
	m := NewIMLI()
	sic := NewSIC(DefaultSICConfig(), m)
	pattern := []bool{true, false, true, true, false, false, true, false}
	const backPC, backTgt = 0x1000, 0x0f00
	branchPC := uint64(0x1100)
	ctx := neural.Ctx{PC: branchPC}

	miss := 0
	total := 0
	for outer := 0; outer < 300; outer++ {
		for mIt, want := range pattern {
			pred := sic.Vote(ctx) >= 0
			if outer > 30 {
				total++
				if pred != want {
					miss++
				}
			}
			sic.Train(want)
			// Inner loop backward branch.
			m.Observe(backPC, backTgt, mIt < len(pattern)-1)
		}
	}
	if rate := float64(miss) / float64(total); rate > 0.02 {
		t.Errorf("SIC missed same-iteration pattern at rate %.3f", rate)
	}
}

func TestSICIndexUsesCounter(t *testing.T) {
	m := NewIMLI()
	sic := NewSIC(DefaultSICConfig(), m)
	i0 := sic.index(neural.MakeCtx(0x4040, false))
	m.Observe(0x1000, 0x0f00, true)
	i1 := sic.index(neural.MakeCtx(0x4040, false))
	if i0 == i1 {
		t.Error("SIC index ignores the IMLI counter")
	}
}

func TestSICStorageMatchesPaper(t *testing.T) {
	sic := NewSIC(DefaultSICConfig(), NewIMLI())
	if got := sic.StorageBits() / 8; got != 384 {
		t.Errorf("SIC storage = %d bytes, paper says 384", got)
	}
}

func TestOHRecoversOuterHistory(t *testing.T) {
	// Drive one branch through a 2-D nest and verify that at
	// prediction time the outer-history machinery exposes exactly
	// Out[N-1][M] (hist table) and Out[N-1][M-1] (PIPE).
	m := NewIMLI()
	oh := NewOH(DefaultOHConfig(), m)
	const backPC, backTgt = 0x1000, 0x0f00
	branchPC := uint64(0x2000)
	inner := 8
	outcomes := func(n, mIt int) bool { return (n+mIt*3)%5 < 2 } // arbitrary but fixed

	for n := 0; n < 6; n++ {
		for mIt := 0; mIt < inner; mIt++ {
			if n > 0 {
				idx := oh.histIndex(branchPC)
				gotSame := oh.hist[idx] == 1
				wantSame := outcomes(n-1, mIt)
				if gotSame != wantSame {
					t.Fatalf("n=%d m=%d: hist table has %v for Out[N-1][M], want %v", n, mIt, gotSame, wantSame)
				}
				if mIt > 0 {
					b := oh.slot(branchPC)
					gotPrev := (oh.pipe>>uint(b))&1 == 1
					wantPrev := outcomes(n-1, mIt-1)
					if gotPrev != wantPrev {
						t.Fatalf("n=%d m=%d: PIPE has %v for Out[N-1][M-1], want %v", n, mIt, gotPrev, wantPrev)
					}
				}
			}
			oh.UpdateHistory(branchPC, outcomes(n, mIt))
			m.Observe(backPC, backTgt, mIt < inner-1)
		}
	}
}

func TestOHLearnsDiagonalCorrelation(t *testing.T) {
	// Out[N][M] = Out[N-1][M-1] (the wormhole-class case). OH must be
	// near perfect after one outer iteration of warmup per scan.
	m := NewIMLI()
	oh := NewOH(DefaultOHConfig(), m)
	const backPC, backTgt = 0x1000, 0x0f00
	branchPC := uint64(0x2000)
	inner, outer := 12, 10
	ctx := neural.Ctx{PC: branchPC}

	diag := func(n, mIt int) bool { return (n-mIt)%3 == 0 } // constant along diagonals
	miss, total := 0, 0
	for scan := 0; scan < 30; scan++ {
		for n := 0; n < outer; n++ {
			for mIt := 0; mIt < inner; mIt++ {
				want := diag(n, mIt)
				pred := oh.Vote(ctx) >= 0
				if scan > 3 && n > 0 && mIt > 0 {
					total++
					if pred != want {
						miss++
					}
				}
				oh.Train(want)
				oh.UpdateHistory(branchPC, want)
				m.Observe(backPC, backTgt, mIt < inner-1)
			}
		}
	}
	if rate := float64(miss) / float64(total); rate > 0.05 {
		t.Errorf("OH missed diagonal correlation at rate %.3f", rate)
	}
}

func TestOHLearnsInvertedCorrelation(t *testing.T) {
	// Out[N][M] = 1 - Out[N-1][M]: the MM-4 case that SIC misses.
	m := NewIMLI()
	oh := NewOH(DefaultOHConfig(), m)
	const backPC, backTgt = 0x1000, 0x0f00
	branchPC := uint64(0x2000)
	inner := 10
	base := []bool{true, false, false, true, false, true, true, false, true, false}
	ctx := neural.Ctx{PC: branchPC}

	miss, total := 0, 0
	for n := 0; n < 400; n++ {
		for mIt := 0; mIt < inner; mIt++ {
			want := base[mIt] != (n%2 == 1) // inverts every outer iteration
			pred := oh.Vote(ctx) >= 0
			if n > 40 {
				total++
				if pred != want {
					miss++
				}
			}
			oh.Train(want)
			oh.UpdateHistory(branchPC, want)
			m.Observe(backPC, backTgt, mIt < inner-1)
		}
	}
	if rate := float64(miss) / float64(total); rate > 0.02 {
		t.Errorf("OH missed inverted correlation at rate %.3f", rate)
	}
}

func TestOHPipeCheckpointRestore(t *testing.T) {
	m := NewIMLI()
	oh := NewOH(DefaultOHConfig(), m)
	oh.UpdateHistory(0x2000, true)
	oh.UpdateHistory(0x2004, false)
	cp := oh.CheckpointPipe()
	oh.UpdateHistory(0x2000, false) // wrong path
	oh.RestorePipe(cp)
	if oh.CheckpointPipe() != cp {
		t.Error("PIPE restore did not recover the checkpoint")
	}
}

func TestOHDelayedUpdate(t *testing.T) {
	// With delay n, a write becomes visible only after n more updates.
	m := NewIMLI()
	oh := NewOH(DefaultOHConfig(), m)
	oh.SetUpdateDelay(3)
	pc := uint64(0x2000)
	idx := oh.histIndex(pc)
	oh.UpdateHistory(pc, true)
	if oh.hist[idx] == 1 {
		t.Fatal("delayed write applied immediately")
	}
	// Three more updates on other slots flush the first write.
	oh.UpdateHistory(0x2004, false)
	oh.UpdateHistory(0x2008, false)
	oh.UpdateHistory(0x200c, false)
	if oh.hist[idx] != 1 {
		t.Fatal("delayed write never applied")
	}
}

func TestOHStorageMatchesPaper(t *testing.T) {
	oh := NewOH(DefaultOHConfig(), NewIMLI())
	// 128 B outer history + 192 B prediction table + 2 B PIPE.
	bytes := oh.StorageBits() / 8
	if bytes != 128+192+2 {
		t.Errorf("OH storage = %d bytes, want 322 (128+192+2)", bytes)
	}
}

func TestCheckpointBitsMatchPaper(t *testing.T) {
	oh := NewOH(DefaultOHConfig(), NewIMLI())
	if got := CheckpointBits(oh); got != 26 {
		t.Errorf("IMLI speculative checkpoint = %d bits, paper says 26 (10+16)", got)
	}
}

func TestComponentTotalBudget(t *testing.T) {
	// The paper's §4.4 budget: 708 bytes total for both components.
	m := NewIMLI()
	sic := NewSIC(DefaultSICConfig(), m)
	oh := NewOH(DefaultOHConfig(), m)
	totalBytes := (sic.StorageBits() + oh.StorageBits() + m.StorageBits() + 7) / 8
	if totalBytes < 700 || totalBytes > 716 {
		t.Errorf("IMLI total budget = %d bytes, paper says 708", totalBytes)
	}
}

func TestComponentNames(t *testing.T) {
	m := NewIMLI()
	if NewSIC(DefaultSICConfig(), m).Name() != "imli-sic" {
		t.Error("SIC name")
	}
	if NewOH(DefaultOHConfig(), m).Name() != "imli-oh" {
		t.Error("OH name")
	}
}
