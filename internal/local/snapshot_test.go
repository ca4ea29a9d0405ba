package local

import (
	"testing"

	"repro/internal/neural"
	"repro/internal/num"
	"repro/internal/snap"
)

// TestSnapshotRoundTrip: the shared local history table and every
// prediction table survive the trip; a restored group votes and trains
// identically to the uninterrupted one.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := num.NewRand(37)
	g1 := NewGroup(SmallConfig())
	drive := func(g *Group, r *num.Rand, check func(step, sum int)) {
		for i := 0; i < 3000; i++ {
			pc := uint64(0x6000 + r.Intn(40)*4)
			taken := r.Bool()
			ctx := neural.MakeCtx(pc, false)
			sum := 0
			for _, c := range g.Components() {
				sum += c.Vote(ctx)
			}
			if check != nil {
				check(i, sum)
			}
			for _, c := range g.Components() {
				c.Train(taken)
			}
			g.UpdateHistory(pc, taken)
		}
	}
	drive(g1, rng, nil)

	e := snap.NewEncoder()
	g1.Snapshot(e)
	g2 := NewGroup(SmallConfig())
	if err := g2.RestoreSnapshot(snap.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}

	cont := rng.State()
	r1, r2 := num.NewRand(1), num.NewRand(1)
	r1.SetState(cont)
	r2.SetState(cont)
	var sums []int
	drive(g1, r1, func(_, sum int) { sums = append(sums, sum) })
	i := 0
	drive(g2, r2, func(step, sum int) {
		if sum != sums[i] {
			t.Fatalf("local group vote diverged at step %d", step)
		}
		i++
	})
}

func TestSnapshotGeometryMismatch(t *testing.T) {
	e := snap.NewEncoder()
	NewGroup(SmallConfig()).Snapshot(e)
	if err := NewGroup(DefaultConfig()).RestoreSnapshot(snap.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("restore into a differently sized group succeeded")
	}
}
