package sc

import (
	"testing"

	"repro/internal/hist"
	"repro/internal/neural"
	"repro/internal/tage"
)

func newSC() (*Corrector, *hist.Global, *hist.Path, *hist.FoldedBank) {
	g := hist.NewGlobal(1024)
	path := hist.NewPath(32)
	bank := hist.NewFoldedBank()
	c := New(DefaultConfig(), path, bank)
	return c, g, path, bank
}

func tagePred(taken bool, conf tage.Confidence) tage.Prediction {
	return tage.Prediction{Taken: taken, Conf: conf}
}

func TestAgreesWithConfidentTageByDefault(t *testing.T) {
	c, _, _, _ := newSC()
	if got := c.Predict(0x40, tagePred(true, tage.HighConf)); !got {
		t.Error("fresh corrector overruled a high-confidence TAGE prediction")
	}
	c.Update(true)
	if got := c.Predict(0x44, tagePred(false, tage.HighConf)); got {
		t.Error("fresh corrector overruled a high-confidence not-taken prediction")
	}
	c.Update(false)
}

func TestRevertsStatisticallyWrongTage(t *testing.T) {
	// TAGE keeps predicting taken with low confidence while the branch
	// is always not-taken; the corrector must learn to revert.
	c, g, path, bank := newSC()
	pc := uint64(0x80)
	reverted := false
	for i := 0; i < 600; i++ {
		pred := c.Predict(pc, tagePred(true, tage.LowConf))
		c.Update(false)
		g.Push(false)
		path.Push(pc)
		bank.Push(g)
		if i > 100 && !pred {
			reverted = true
		}
	}
	if !reverted {
		t.Error("corrector never reverted a statistically wrong TAGE prediction")
	}
}

func TestHighConfidenceHarderToRevert(t *testing.T) {
	// Count how many updates the corrector needs before it reverts a
	// high-confidence vs a low-confidence TAGE prediction.
	flipPoint := func(conf tage.Confidence) int {
		c, g, path, bank := newSC()
		pc := uint64(0x100)
		for i := 0; i < 2000; i++ {
			pred := c.Predict(pc, tagePred(true, conf))
			if !pred {
				return i
			}
			c.Update(false)
			g.Push(false)
			path.Push(pc)
			bank.Push(g)
		}
		return 2000
	}
	low := flipPoint(tage.LowConf)
	high := flipPoint(tage.HighConf)
	if high <= low {
		t.Errorf("high-confidence TAGE flipped after %d updates, low after %d; want high > low", high, low)
	}
}

func TestSumExposed(t *testing.T) {
	c, _, _, _ := newSC()
	c.Predict(0x40, tagePred(true, tage.HighConf))
	if c.Sum() == 0 {
		t.Log("sum may legitimately be zero early; just ensure the accessor works")
	}
	c.Update(true)
}

func TestGlobalTablesExposed(t *testing.T) {
	c, _, _, _ := newSC()
	if len(c.GlobalTables()) != len(DefaultConfig().GlobalHists) {
		t.Errorf("GlobalTables = %d, want %d", len(c.GlobalTables()), len(DefaultConfig().GlobalHists))
	}
}

func TestStorageBits(t *testing.T) {
	c, _, _, _ := newSC()
	if c.StorageBits() <= 0 {
		t.Error("empty storage")
	}
	// Adding a component grows the reported storage.
	before := c.StorageBits()
	c.Tree().Add(fakeComp{})
	if c.StorageBits() != before+128 {
		t.Errorf("added component not reflected: %d -> %d", before, c.StorageBits())
	}
}

type fakeComp struct{}

func (fakeComp) Vote(neural.Ctx) int { return 0 }
func (fakeComp) Name() string        { return "fake" }
func (fakeComp) StorageBits() int    { return 128 }
func (fakeComp) Train(bool)          {}
