package core

import (
	"testing"

	"repro/internal/neural"
	"repro/internal/num"
	"repro/internal/snap"
)

// TestIMLISnapshotRoundTrip: the counter survives the trip and
// continues identically.
func TestIMLISnapshotRoundTrip(t *testing.T) {
	rng := num.NewRand(23)
	m1 := NewIMLI()
	for i := 0; i < 500; i++ {
		m1.Observe(0x2000, 0x1000, rng.Bool())
	}
	e := snap.NewEncoder()
	m1.Snapshot(e)
	m2 := NewIMLI()
	if err := m2.RestoreSnapshot(snap.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if m2.Count() != m1.Count() {
		t.Fatalf("count %d != %d", m2.Count(), m1.Count())
	}
	for i := 0; i < 300; i++ {
		taken := rng.Bool()
		m1.Observe(0x2000, 0x1000, taken)
		m2.Observe(0x2000, 0x1000, taken)
		if m1.Count() != m2.Count() {
			t.Fatalf("count diverged at step %d", i)
		}
	}
}

// TestSICOHSnapshotRoundTrip drives SIC and OH (including a delayed-
// update OH with a populated pending queue) and checks restored
// instances vote and train identically.
func TestSICOHSnapshotRoundTrip(t *testing.T) {
	rng := num.NewRand(29)
	build := func() (*IMLI, *SIC, *OH, *OH) {
		imli := NewIMLI()
		sic := NewSIC(DefaultSICConfig(), imli)
		oh := NewOH(DefaultOHConfig(), imli)
		ohDelayed := NewOH(DefaultOHConfig(), imli)
		ohDelayed.SetUpdateDelay(12)
		return imli, sic, oh, ohDelayed
	}
	imli1, sic1, oh1, ohd1 := build()
	drive := func(imli *IMLI, sic *SIC, oh, ohd *OH, r *num.Rand, check func(step int, votes [3]int)) {
		for i := 0; i < 2000; i++ {
			pc := uint64(0x3000 + r.Intn(32)*4)
			taken := r.Bool()
			ctx := neural.MakeCtx(pc, false)
			votes := [3]int{sic.Vote(ctx), oh.Vote(ctx), ohd.Vote(ctx)}
			if check != nil {
				check(i, votes)
			}
			sic.Train(taken)
			oh.Train(taken)
			ohd.Train(taken)
			oh.UpdateHistory(pc, taken)
			ohd.UpdateHistory(pc, taken)
			imli.Observe(pc, pc-64, taken)
		}
	}
	drive(imli1, sic1, oh1, ohd1, rng, nil)

	e := snap.NewEncoder()
	imli1.Snapshot(e)
	sic1.Snapshot(e)
	oh1.Snapshot(e)
	ohd1.Snapshot(e)
	imli2, sic2, oh2, ohd2 := build()
	d := snap.NewDecoder(e.Bytes())
	for _, s := range []snap.Snapshotter{imli2, sic2, oh2, ohd2} {
		if err := s.RestoreSnapshot(d); err != nil {
			t.Fatal(err)
		}
	}

	cont := rng.State()
	r1, r2 := num.NewRand(1), num.NewRand(1)
	r1.SetState(cont)
	r2.SetState(cont)
	var trace1 [][3]int
	drive(imli1, sic1, oh1, ohd1, r1, func(_ int, v [3]int) { trace1 = append(trace1, v) })
	i := 0
	drive(imli2, sic2, oh2, ohd2, r2, func(step int, v [3]int) {
		if v != trace1[i] {
			t.Fatalf("votes diverged at step %d: %v != %v", step, v, trace1[i])
		}
		i++
	})
}

// TestOHSnapshotRejectsBadPendingIndex: corrupt pending-write indices
// must fail the decode, not corrupt the table later.
func TestOHSnapshotRejectsBadPendingIndex(t *testing.T) {
	imli := NewIMLI()
	oh := NewOH(DefaultOHConfig(), imli)
	oh.SetUpdateDelay(4)
	oh.UpdateHistory(0x40, true)
	e := snap.NewEncoder()
	oh.Snapshot(e)
	data := e.Bytes()
	// The pending entry's index is the last 5 bytes (u32 + bool); smash
	// the index to an out-of-range value.
	data[len(data)-5] = 0xff
	data[len(data)-4] = 0xff
	data[len(data)-3] = 0xff
	data[len(data)-2] = 0x7f
	fresh := NewOH(DefaultOHConfig(), imli)
	fresh.SetUpdateDelay(4)
	if err := fresh.RestoreSnapshot(snap.NewDecoder(data)); err == nil {
		t.Fatal("out-of-range pending index restored without error")
	}
}
