package gehl

import (
	"testing"

	"repro/internal/hist"
	"repro/internal/num"
	"repro/internal/snap"
)

// TestSnapshotRoundTrip: a restored GEHL (threshold plus all
// global-history tables) with restored shared histories continues
// prediction-for-prediction identical to the uninterrupted one.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := num.NewRand(53)
	cfg := Config{NumTables: 6, MinHist: 2, MaxHist: 64, Entries: 256, CtrBits: 6, InitialTheta: 20}
	build := func() (*hist.Global, *hist.Path, *hist.FoldedBank, *Predictor) {
		g := hist.NewGlobal(256)
		path := hist.NewPath(16)
		bank := hist.NewFoldedBank()
		return g, path, bank, New(cfg, path, bank)
	}
	g1, path1, bank1, p1 := build()
	drive := func(g *hist.Global, path *hist.Path, bank *hist.FoldedBank, p *Predictor, r *num.Rand, check func(step int, pred bool, sum int)) {
		for i := 0; i < 5000; i++ {
			pc := uint64(0xa000 + r.Intn(64)*4)
			taken := (pc>>2+uint64(i/3))%3 != 0
			pred := p.Predict(pc)
			if check != nil {
				check(i, pred, p.Sum())
			}
			p.Update(taken)
			g.Push(taken)
			path.Push(pc)
			bank.Push(g)
		}
	}
	drive(g1, path1, bank1, p1, rng, nil)

	e := snap.NewEncoder()
	g1.Snapshot(e)
	path1.Snapshot(e)
	bank1.Snapshot(e)
	p1.Snapshot(e)
	g2, path2, bank2, p2 := build()
	d := snap.NewDecoder(e.Bytes())
	for _, s := range []snap.Snapshotter{g2, path2, bank2, p2} {
		if err := s.RestoreSnapshot(d); err != nil {
			t.Fatal(err)
		}
	}

	cont := rng.State()
	r1, r2 := num.NewRand(1), num.NewRand(1)
	r1.SetState(cont)
	r2.SetState(cont)
	type obs struct {
		pred bool
		sum  int
	}
	var trace1 []obs
	drive(g1, path1, bank1, p1, r1, func(_ int, pred bool, sum int) { trace1 = append(trace1, obs{pred, sum}) })
	i := 0
	drive(g2, path2, bank2, p2, r2, func(step int, pred bool, sum int) {
		if (obs{pred, sum}) != trace1[i] {
			t.Fatalf("GEHL diverged at step %d", step)
		}
		i++
	})
}
