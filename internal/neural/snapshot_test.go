package neural

import (
	"testing"

	"repro/internal/hist"
	"repro/internal/num"
	"repro/internal/snap"
)

// TestTreeSnapshotRoundTrip: the adaptive threshold state survives the
// trip and continues identically (component tables snapshot through
// their owners; here the tree's own components are global tables whose
// state rides along).
func TestTreeSnapshotRoundTrip(t *testing.T) {
	rng := num.NewRand(31)
	build := func() (*hist.Global, *hist.FoldedBank, *Tree, *GlobalTable, *BiasTable) {
		g := hist.NewGlobal(256)
		bank := hist.NewFoldedBank()
		path := hist.NewPath(16)
		gt := NewGlobalTable("t", 512, 6, 20, path, bank)
		bt := NewBiasTable("b", 512, 6, 0)
		return g, bank, NewTree(35, gt, bt), gt, bt
	}
	g1, bank1, tree1, gt1, bt1 := build()
	drive := func(g *hist.Global, bank *hist.FoldedBank, tree *Tree, r *num.Rand, check func(step, sum int)) {
		for i := 0; i < 3000; i++ {
			pc := uint64(0x5000 + r.Intn(48)*4)
			taken := r.Bool()
			ctx := MakeCtx(pc, taken)
			sum := tree.Sum(ctx)
			if check != nil {
				check(i, sum)
			}
			tree.Train(taken, sum)
			g.Push(taken)
			bank.Push(g)
		}
	}
	drive(g1, bank1, tree1, rng, nil)

	e := snap.NewEncoder()
	g1.Snapshot(e)
	bank1.Snapshot(e)
	tree1.Snapshot(e)
	gt1.Snapshot(e)
	bt1.Snapshot(e)

	g2, bank2, tree2, gt2, bt2 := build()
	d := snap.NewDecoder(e.Bytes())
	for _, s := range []snap.Snapshotter{g2, bank2, tree2, gt2, bt2} {
		if err := s.RestoreSnapshot(d); err != nil {
			t.Fatal(err)
		}
	}
	if tree2.Theta() != tree1.Theta() {
		t.Fatalf("theta %d != %d", tree2.Theta(), tree1.Theta())
	}

	cont := rng.State()
	r1, r2 := num.NewRand(1), num.NewRand(1)
	r1.SetState(cont)
	r2.SetState(cont)
	var sums []int
	drive(g1, bank1, tree1, r1, func(_, sum int) { sums = append(sums, sum) })
	i := 0
	drive(g2, bank2, tree2, r2, func(step, sum int) {
		if sum != sums[i] {
			t.Fatalf("adder-tree sum diverged at step %d: %d != %d", step, sum, sums[i])
		}
		i++
	})
}
