package core

import (
	"testing"
	"testing/quick"

	"repro/internal/neural"
)

// TestIMLICounterReferenceModel drives the counter with arbitrary
// branch streams against the paper's pseudo-code as a reference model.
func TestIMLICounterReferenceModel(t *testing.T) {
	type step struct {
		Backward bool
		Taken    bool
	}
	f := func(steps []step) bool {
		m := NewIMLI()
		ref := uint32(0)
		for _, s := range steps {
			pc, target := uint64(0x1000), uint64(0x1100)
			if s.Backward {
				target = 0x0f00
			}
			m.Observe(pc, target, s.Taken)
			// Reference: the paper's §4.1 heuristic.
			if s.Backward {
				if s.Taken {
					ref = (ref + 1) & ((1 << CounterBits) - 1)
				} else {
					ref = 0
				}
			}
			if m.Count() != ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOHIndexBounds: the outer-history index and prediction index stay
// in bounds for arbitrary PCs and counter states.
func TestOHIndexBounds(t *testing.T) {
	m := NewIMLI()
	oh := NewOH(DefaultOHConfig(), m)
	f := func(pc uint64, ticks uint16, taken bool) bool {
		for i := 0; i < int(ticks%200); i++ {
			m.Observe(0x1000, 0x0f00, true)
		}
		hi := oh.histIndex(pc)
		pi := oh.index(neural.MakeCtx(pc, false))
		if int(hi) >= len(oh.hist) || pi >= uint64(len(oh.ctr)) {
			return false
		}
		oh.Vote(neural.Ctx{PC: pc})
		oh.Train(taken)
		oh.UpdateHistory(pc, taken)
		m.Observe(0x1000, 0x0f00, false) // reset for the next case
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSICIndexBounds mirrors the OH bounds check for the SIC table.
func TestSICIndexBounds(t *testing.T) {
	m := NewIMLI()
	sic := NewSIC(DefaultSICConfig(), m)
	f := func(pc uint64, ticks uint16) bool {
		for i := 0; i < int(ticks%1100); i++ {
			m.Observe(0x1000, 0x0f00, true)
		}
		ok := sic.index(neural.MakeCtx(pc, false)) < uint64(len(sic.ctr))
		m.Observe(0x1000, 0x0f00, false)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIMLIWidthClamping: configurable widths stay in range and the
// counter wraps at the right power of two.
func TestIMLIWidthClamping(t *testing.T) {
	for _, bits := range []int{-3, 0, 1, 4, 10, 20, 31} {
		m := NewIMLIBits(bits)
		want := bits
		if want < 1 {
			want = 1
		}
		if want > 20 {
			want = 20
		}
		if m.StorageBits() != want {
			t.Errorf("NewIMLIBits(%d).StorageBits() = %d, want %d", bits, m.StorageBits(), want)
		}
		for i := 0; i < (1<<uint(want))+3; i++ {
			m.Observe(0x1000, 0x0f00, true)
		}
		if m.Count() >= 1<<uint(want) {
			t.Errorf("width %d counter reached %d", want, m.Count())
		}
	}
}

// TestDelayedUpdateEventuallyConsistent: with any delay, after enough
// further updates every pending write lands, leaving the same table as
// immediate updates would (for non-overlapping indices).
func TestDelayedUpdateEventuallyConsistent(t *testing.T) {
	f := func(delayByte uint8, outcomes []bool) bool {
		delay := int(delayByte%16) + 1
		mImm := NewIMLI()
		mDel := NewIMLI()
		imm := NewOH(DefaultOHConfig(), mImm)
		del := NewOH(DefaultOHConfig(), mDel)
		del.SetUpdateDelay(delay)
		// Counters stay at 0 (no backward branches); writes cycle the
		// 16 branch slots.
		for i, o := range outcomes {
			pc := uint64(0x1000 + (i%16)*4)
			imm.UpdateHistory(pc, o)
			del.UpdateHistory(pc, o)
		}
		// Drain the delayed queue in order; the tables must then be
		// identical (delay only reorders against reads, never loses or
		// reorders the writes themselves).
		for _, w := range del.pending {
			del.write(w.index, w.taken)
		}
		for i := range imm.hist {
			if imm.hist[i] != del.hist[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
