package gehl

import (
	"math/rand"
	"testing"

	"repro/internal/hist"
)

type harness struct {
	p    *Predictor
	g    *hist.Global
	path *hist.Path
}

func newHarness(cfg Config) *harness {
	g := hist.NewGlobal(2048)
	path := hist.NewPath(32)
	p := New(cfg, path, nil)
	return &harness{p: p, g: g, path: path}
}

func smallConfig() Config {
	return Config{NumTables: 6, MinHist: 2, MaxHist: 64, Entries: 512, CtrBits: 6, InitialTheta: 20}
}

func (h *harness) step(pc uint64, taken bool) bool {
	pred := h.p.Predict(pc)
	h.p.Update(taken)
	h.g.Push(taken)
	h.path.Push(pc)
	h.p.Bank().Push(h.g)
	return pred
}

func TestLengthsSeries(t *testing.T) {
	lens := Lengths(DefaultConfig())
	if len(lens) != 17 {
		t.Fatalf("got %d lengths", len(lens))
	}
	if lens[0] != 0 {
		t.Errorf("first table must be history-free, got %d", lens[0])
	}
	if lens[1] != 2 || lens[16] != 600 {
		t.Errorf("series bounds = %d..%d, want 2..600 (paper config)", lens[1], lens[16])
	}
	for i := 2; i < len(lens); i++ {
		if lens[i] <= lens[i-1] {
			t.Errorf("series not strictly increasing: %v", lens)
		}
	}
}

func TestPaperStorageBudget(t *testing.T) {
	p := New(DefaultConfig(), hist.NewPath(32), nil)
	kbits := p.StorageBits() / 1024
	// Paper: 17 tables x 2K x 6b = 204 Kbits.
	if kbits != 204 {
		t.Errorf("GEHL storage = %d Kbits, paper says 204", kbits)
	}
}

func TestLearnsBias(t *testing.T) {
	h := newHarness(smallConfig())
	miss := 0
	for i := 0; i < 2000; i++ {
		if h.step(0x40, true) != true && i > 200 {
			miss++
		}
	}
	if miss > 5 {
		t.Errorf("always-taken missed %d times", miss)
	}
}

func TestLearnsPattern(t *testing.T) {
	h := newHarness(smallConfig())
	miss := 0
	for i := 0; i < 6000; i++ {
		taken := i%4 == 0
		if h.step(0x88, taken) != taken && i > 2000 {
			miss++
		}
	}
	if rate := float64(miss) / 4000; rate > 0.05 {
		t.Errorf("period-4 pattern missed at rate %.3f", rate)
	}
}

func TestLearnsCorrelation(t *testing.T) {
	h := newHarness(smallConfig())
	rng := rand.New(rand.NewSource(9))
	var lastA bool
	miss := 0
	for i := 0; i < 8000; i++ {
		a := rng.Intn(2) == 0
		h.step(0x100, a)
		if h.step(0x104, lastA) != lastA && i > 3000 {
			miss++
		}
		lastA = a
	}
	if rate := float64(miss) / 5000; rate > 0.08 {
		t.Errorf("1-bit correlation missed at rate %.3f", rate)
	}
}

func TestSumExposed(t *testing.T) {
	h := newHarness(smallConfig())
	for i := 0; i < 500; i++ {
		h.step(0x200, true)
	}
	h.p.Predict(0x200)
	if h.p.Sum() <= 0 {
		t.Errorf("sum = %d 	after training taken, want positive", h.p.Sum())
	}
	h.p.Update(true)
}

func TestTreeAccess(t *testing.T) {
	p := New(smallConfig(), nil, nil)
	if p.Tree() == nil || len(p.Tables()) != 6 {
		t.Error("tree/tables accessors broken")
	}
}
