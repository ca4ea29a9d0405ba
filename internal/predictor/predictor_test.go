package predictor

import (
	"sort"
	"testing"

	"repro/internal/num"
	"repro/internal/trace"
)

// expected registry names; gate against accidental removal.
var requiredConfigs = []string{
	"tage-gsc", "tage-gsc+sic", "tage-gsc+imli", "tage-gsc+oh",
	"tage-gsc+wh", "tage-gsc+sic+wh", "tage-sc-l", "tage-sc-l+imli",
	"tage-gsc+loop16", "tage-gsc+loop", "tage-gsc+sic+loop",
	"gehl", "gehl+sic", "gehl+imli", "gehl+oh", "gehl+wh", "gehl+sic+wh",
	"gehl+l", "gehl+imli+l", "bimodal", "gshare",
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range requiredConfigs {
		if !have[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestUnknownConfig(t *testing.T) {
	const want = `predictor: unknown configuration "no-such-predictor"`
	if _, err := New("no-such-predictor"); err == nil || err.Error() != want {
		t.Errorf("New err = %v, want %s", err, want)
	}
	if err := Known("no-such-predictor"); err == nil || err.Error() != want {
		t.Errorf("Known err = %v, want %s", err, want)
	}
}

func TestKnownMatchesRegistry(t *testing.T) {
	for _, name := range Names() {
		if err := Known(name); err != nil {
			t.Errorf("Known(%s) = %v", name, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew("no-such-predictor")
}

func TestNameRoundTrip(t *testing.T) {
	for _, n := range requiredConfigs {
		p := MustNew(n)
		if p.Name() != n {
			t.Errorf("Name() = %q, want %q", p.Name(), n)
		}
	}
}

// feed runs a short synthetic stream through a predictor and returns
// the misprediction count; used for determinism and sanity checks.
func feed(p Predictor, seed uint64, n int) int {
	rng := num.NewRand(seed)
	miss := 0
	pattern := []bool{true, true, false, true, false, false, true, true}
	for i := 0; i < n; i++ {
		pc := uint64(0x1000 + (i%13)*4)
		var taken bool
		switch i % 4 {
		case 0:
			taken = pattern[i%len(pattern)]
		case 1:
			taken = rng.Bool()
		case 2:
			taken = true
		default:
			taken = i%7 < 6 // loop-ish
		}
		if i%11 == 0 {
			p.TrackOther(pc, pc+128, trace.Call, true)
			continue
		}
		target := pc + 64
		if i%4 == 3 {
			target = pc - 256
		}
		if p.Predict(pc) != taken {
			miss++
		}
		p.Train(pc, target, taken)
	}
	return miss
}

func TestAllConfigsRun(t *testing.T) {
	for _, n := range Names() {
		p := MustNew(n)
		miss := feed(p, 1, 4000)
		if miss <= 0 || miss >= 4000 {
			t.Errorf("%s: implausible misprediction count %d", n, miss)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, n := range requiredConfigs {
		a := feed(MustNew(n), 42, 5000)
		b := feed(MustNew(n), 42, 5000)
		if a != b {
			t.Errorf("%s: runs diverged (%d vs %d mispredictions)", n, a, b)
		}
	}
}

func TestStorageBreakdownSums(t *testing.T) {
	for _, n := range []string{"tage-gsc+imli", "tage-sc-l+imli", "gehl+imli+l", "tage-gsc+wh"} {
		p := MustNew(n)
		bd, ok := p.(Breakdowner)
		if !ok {
			t.Fatalf("%s: no breakdown", n)
		}
		sum := 0
		for _, it := range bd.StorageBreakdown() {
			if it.Bits < 0 {
				t.Errorf("%s: negative component %q", n, it.Name)
			}
			sum += it.Bits
		}
		if sum != p.StorageBits() {
			t.Errorf("%s: breakdown sums to %d, StorageBits %d", n, sum, p.StorageBits())
		}
	}
}

func TestIMLIAddsPaperBudget(t *testing.T) {
	base := MustNew("tage-gsc").StorageBits()
	withIMLI := MustNew("tage-gsc+imli").StorageBits()
	extraBytes := (withIMLI - base) / 8
	// Paper: 708 bytes.
	if extraBytes < 690 || extraBytes > 730 {
		t.Errorf("IMLI components add %d bytes, paper says ~708", extraBytes)
	}
}

func TestCheckpointBits(t *testing.T) {
	base := MustNew("tage-gsc").(Checkpointer).CheckpointBits()
	imli := MustNew("tage-gsc+imli").(Checkpointer).CheckpointBits()
	if imli-base != 26 {
		t.Errorf("IMLI adds %d checkpoint bits, paper says 26", imli-base)
	}
}

func TestSpeculativeSearchBits(t *testing.T) {
	if MustNew("tage-gsc+imli").(*Composite).SpeculativeSearchBits() != 0 {
		t.Error("IMLI config must not need in-flight history search")
	}
	if MustNew("tage-sc-l").(*Composite).SpeculativeSearchBits() == 0 {
		t.Error("local config must report in-flight history cost")
	}
	if MustNew("tage-gsc+wh").(*Composite).SpeculativeSearchBits() == 0 {
		t.Error("WH config must report in-flight history cost")
	}
}

func TestGEHLBudgetMatchesPaper(t *testing.T) {
	if got := MustNew("gehl").StorageBits() / 1024; got != 204 {
		t.Errorf("GEHL = %d Kbits, paper says 204", got)
	}
}

func TestRelativeBudgets(t *testing.T) {
	// The paper's Table 1/2 ordering: Base < +I < +L < +I+L in size.
	sizes := map[string]int{}
	for _, n := range []string{"tage-gsc", "tage-gsc+imli", "tage-sc-l", "tage-sc-l+imli"} {
		sizes[n] = MustNew(n).StorageBits()
	}
	order := []string{"tage-gsc", "tage-gsc+imli", "tage-sc-l", "tage-sc-l+imli"}
	vals := make([]int, len(order))
	for i, n := range order {
		vals[i] = sizes[n]
	}
	if !sort.IntsAreSorted(vals) {
		t.Errorf("size ordering violated: %v", sizes)
	}
}

func TestDelayedOHComposite(t *testing.T) {
	p := DelayedOHComposite(63)
	if feed(p, 3, 2000) <= 0 {
		t.Error("delayed composite did not run")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration accepted")
		}
	}()
	Register("bimodal", func() Predictor { return nil })
}
