package sc

import (
	"testing"

	"repro/internal/hist"
	"repro/internal/neural"
	"repro/internal/tage"
)

// TestCorrectorNoiseTolerance: a noisy extra component must not drag
// down an otherwise confident corrector — the §4.3.2 "weight
// reinforcement compensates" argument at the SC level.
func TestCorrectorNoiseTolerance(t *testing.T) {
	run := func(withNoise bool) int {
		g := hist.NewGlobal(1024)
		path := hist.NewPath(32)
		bank := hist.NewFoldedBank()
		c := New(DefaultConfig(), path, bank)
		if withNoise {
			c.Tree().Add(noiseComp{})
		}
		miss := 0
		// A branch TAGE predicts perfectly.
		for i := 0; i < 4000; i++ {
			taken := i%3 != 2
			pred := c.Predict(0x40, tage.Prediction{Taken: taken, Conf: tage.HighConf})
			if pred != taken && i > 500 {
				miss++
			}
			c.Update(taken)
			g.Push(taken)
			path.Push(0x40)
			bank.Push(g)
		}
		return miss
	}
	clean := run(false)
	noisy := run(true)
	if noisy > clean+80 {
		t.Errorf("noise component degraded the corrector: %d vs %d misses", noisy, clean)
	}
}

// noiseComp votes pseudo-randomly — a worst-case useless component.
type noiseComp struct{}

func (noiseComp) Vote(ctx neural.Ctx) int {
	// Deterministic hash-noise in [-8, 7].
	h := ctx.PC*0x9E3779B97F4A7C15 + 12345
	return int(h>>60) - 8
}
func (noiseComp) Train(bool)       {}
func (noiseComp) Name() string     { return "noise" }
func (noiseComp) StorageBits() int { return 0 }
