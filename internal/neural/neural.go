// Package neural provides the adder-tree machinery shared by the GEHL
// predictor and the statistical corrector of TAGE-GSC: centered
// saturating-counter components, the summing tree, and O-GEHL style
// dynamic threshold fitting. The IMLI components of the paper plug
// into this machinery as additional components (Figures 5 and 6).
package neural

import (
	"repro/internal/hist"
	"repro/internal/num"
)

// Ctx carries the per-prediction inputs a component may index with.
type Ctx struct {
	// PC is the branch address.
	PC uint64
	// PCMix caches num.Mix(PC>>2) so the PC is mixed once per branch
	// instead of once per component table. Fill it with MakeCtx (or
	// from tage.Prediction.PCMix); components read it via PCHash.
	PCMix uint64
	// TagePred is the main TAGE prediction, used by the statistical
	// corrector's bias tables. False when there is no TAGE component.
	TagePred bool
}

// MakeCtx returns a Ctx for pc with the PC hash precomputed.
func MakeCtx(pc uint64, tagePred bool) Ctx {
	return Ctx{PC: pc, PCMix: num.Mix(pc >> 2), TagePred: tagePred}
}

// PCHash returns the mixed PC. A zero PCMix falls back to mixing on
// the spot, which is exact: num.Mix is a bijection, so PCMix is zero
// only when it was never filled in or when PC>>2 == 0 — and in both
// cases num.Mix(PC>>2) is the correct value.
func (c Ctx) PCHash() uint64 {
	if c.PCMix != 0 {
		return c.PCMix
	}
	return num.Mix(c.PC >> 2)
}

// Component is one table (or table group) contributing a signed,
// centered vote to an adder tree. Per branch the tree calls Vote once
// and then, when it decides to train, Train once: Vote records the
// index it read and Train updates the counter at that index. Reusing
// the index is exact under the predictor call protocol (DESIGN.md §7):
// nothing that feeds an index changes between a branch's prediction
// and its table training.
type Component interface {
	// Vote returns the component's contribution to the sum for ctx and
	// records the index it read for the following Train.
	Vote(ctx Ctx) int
	// Train moves the counter at the index recorded by the last Vote
	// toward taken. The adder tree decides when training happens (on
	// mispredictions and low-confidence sums).
	Train(taken bool)
	// Name identifies the component in storage reports.
	Name() string
	// StorageBits is the component's table storage cost.
	StorageBits() int
}

// Tree sums components and maintains the adaptive update threshold.
type Tree struct {
	//lint:allow snapcomplete component wiring built by NewTree/Add at construction
	comps []Component

	theta    int // update/confidence threshold
	thetaMin int
	thetaMax int
	tc       int // threshold training counter
	tcLim    int
}

// NewTree returns an adder tree over comps with an initial threshold.
func NewTree(initialTheta int, comps ...Component) *Tree {
	t := &Tree{
		theta:    initialTheta,
		thetaMin: 1,
		thetaMax: 1 << 10,
		tcLim:    64,
	}
	for _, c := range comps {
		t.Add(c)
	}
	return t
}

// Add appends a component (used when a configuration enables optional
// components such as IMLI or local history).
func (t *Tree) Add(c Component) { t.comps = append(t.comps, c) }

// Components returns the component list (for storage reports).
func (t *Tree) Components() []Component { return t.comps }

// Sum returns the adder-tree output for ctx.
func (t *Tree) Sum(ctx Ctx) int {
	s := 0
	for _, c := range t.comps {
		s += c.Vote(ctx)
	}
	return s
}

// Theta returns the current update threshold.
func (t *Tree) Theta() int { return t.theta }

// Train applies the O-GEHL update policy given the sum that produced
// the prediction: components train when the prediction was wrong or
// the sum's magnitude was at or below the threshold, and the threshold
// itself adapts so that the two training causes stay balanced. It must
// follow the Sum that produced sum (components train the entries that
// Sum's votes recorded).
func (t *Tree) Train(taken bool, sum int) {
	pred := sum >= 0
	mag := sum
	if mag < 0 {
		mag = -mag
	}
	if pred != taken || mag <= t.theta {
		for _, c := range t.comps {
			c.Train(taken)
		}
	}
	// Dynamic threshold fitting: mispredictions push the threshold up,
	// correct low-confidence predictions push it down.
	switch {
	case pred != taken:
		t.tc++
		if t.tc >= t.tcLim {
			t.tc = 0
			if t.theta < t.thetaMax {
				t.theta++
			}
		}
	case mag <= t.theta:
		t.tc--
		if t.tc <= -t.tcLim {
			t.tc = 0
			if t.theta > t.thetaMin {
				t.theta--
			}
		}
	}
}

// StorageBits sums component storage plus the threshold state.
func (t *Tree) StorageBits() int {
	bits := 12 + 8 // theta + tc registers
	for _, c := range t.comps {
		bits += c.StorageBits()
	}
	return bits
}

// GlobalTable is a component indexed by a hash of the PC and a folded
// global history of a fixed length — the building block of GEHL and of
// the global part of the statistical corrector. Its folded register
// lives in a hist.FoldedBank the owner pushes once per branch.
type GlobalTable struct {
	name    string
	ctr     []int8
	mask    uint64
	ctrBits int
	histLen int
	bank    *hist.FoldedBank
	fold    hist.FoldedRef
	path    *hist.Path
	// extraIndex, when non-nil, contributes additional bits to the
	// index hash. The paper's "inserting the IMLI counter in the
	// indices of two tables in the global history component of the SC"
	// (§4.2) is implemented by setting this to read the IMLI counter.
	//lint:allow snapcomplete wiring: index hook installed by SetExtraIndex at construction
	extraIndex func() uint64

	idx uint64 //lint:allow snapcomplete vote-to-train scratch, dead at branch-boundary snapshot points
}

// NewGlobalTable returns a global-history component with entries
// counters (rounded to a power of two) of ctrBits bits, indexed with
// histLen bits of global history folded down to the index width. The
// folded register is allocated in bank; a nil bank gets a private one
// (standalone use) — retrieve it with Bank and Push it after every
// global history push.
func NewGlobalTable(name string, entries, ctrBits, histLen int, path *hist.Path, bank *hist.FoldedBank) *GlobalTable {
	n := num.Pow2Ceil(entries)
	if bank == nil {
		bank = hist.NewFoldedBank()
	}
	return &GlobalTable{
		name:    name,
		ctr:     make([]int8, n),
		mask:    uint64(n - 1),
		ctrBits: ctrBits,
		histLen: histLen,
		bank:    bank,
		fold:    bank.Add(histLen, num.Log2(n)),
		path:    path,
	}
}

// SetExtraIndex installs an additional index-hash input (e.g. the IMLI
// counter).
func (t *GlobalTable) SetExtraIndex(f func() uint64) { t.extraIndex = f }

// Bank returns the folded-history bank holding this table's register.
func (t *GlobalTable) Bank() *hist.FoldedBank { return t.bank }

// HistLen returns the history length the table is indexed with.
func (t *GlobalTable) HistLen() int { return t.histLen }

func (t *GlobalTable) index(ctx Ctx) uint64 {
	h := ctx.PCHash() ^ uint64(t.bank.Value(t.fold))
	if t.path != nil {
		pathBits := t.histLen
		if pathBits > 16 {
			pathBits = 16
		}
		h ^= (t.path.Value() & ((1 << uint(pathBits)) - 1)) * 0x9E3779B97F4A7C15 >> 48
	}
	if t.extraIndex != nil {
		h ^= num.Mix(t.extraIndex())
	}
	return h & t.mask
}

// Vote implements Component: the centered counter value at the
// indexed entry.
func (t *GlobalTable) Vote(ctx Ctx) int {
	t.idx = t.index(ctx)
	return num.Centered(t.ctr[t.idx])
}

// Train implements Component.
func (t *GlobalTable) Train(taken bool) {
	t.ctr[t.idx] = num.SatUpdate(t.ctr[t.idx], taken, t.ctrBits)
}

// Name implements Component.
func (t *GlobalTable) Name() string { return t.name }

// StorageBits implements Component.
func (t *GlobalTable) StorageBits() int { return len(t.ctr) * t.ctrBits }

// BiasTable is the statistical corrector's bias component: counters
// indexed with the PC concatenated with the TAGE prediction, so the
// corrector learns, per branch and per TAGE opinion, whether TAGE is
// statistically wrong (§3.2.1).
type BiasTable struct {
	name    string
	ctr     []int8
	mask    uint64
	ctrBits int
	skew    uint64 // distinguishes multiple bias tables

	idx uint64 //lint:allow snapcomplete vote-to-train scratch, dead at branch-boundary snapshot points
}

// NewBiasTable returns a bias component.
func NewBiasTable(name string, entries, ctrBits int, skew uint64) *BiasTable {
	n := num.Pow2Ceil(entries)
	return &BiasTable{name: name, ctr: make([]int8, n), mask: uint64(n - 1), ctrBits: ctrBits, skew: skew}
}

func (t *BiasTable) index(ctx Ctx) uint64 {
	// An unskewed table's hash is exactly the shared PC mix.
	h := ctx.PCMix
	if t.skew != 0 || h == 0 {
		h = num.Mix((ctx.PC >> 2) ^ t.skew)
	}
	b := uint64(0)
	if ctx.TagePred {
		b = 1
	}
	return (h<<1 | b) & t.mask
}

// Vote implements Component; the bias tables vote with double weight,
// mirroring the strong agree-with-TAGE prior of the GSC.
func (t *BiasTable) Vote(ctx Ctx) int {
	t.idx = t.index(ctx)
	return 2 * num.Centered(t.ctr[t.idx])
}

// Train implements Component.
func (t *BiasTable) Train(taken bool) {
	t.ctr[t.idx] = num.SatUpdate(t.ctr[t.idx], taken, t.ctrBits)
}

// Name implements Component.
func (t *BiasTable) Name() string { return t.name }

// StorageBits implements Component.
func (t *BiasTable) StorageBits() int { return len(t.ctr) * t.ctrBits }
