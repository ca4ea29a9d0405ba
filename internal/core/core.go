// Package core implements the paper's contribution: the Inner Most
// Loop Iteration (IMLI) counter and the two predictor components built
// on it, IMLI-SIC (Same Iteration Correlation, §4.2) and IMLI-OH
// (Outer History, §4.3). Both plug into the adder tree of a neural
// predictor (the statistical corrector of TAGE-GSC or a GEHL
// predictor) as neural.Component implementations.
//
// The speculative state of the whole mechanism is 26 bits — the IMLI
// counter (10 bits) and the PIPE vector (16 bits) — checkpointable per
// fetch block, which is the paper's core hardware argument against
// local-history and wormhole predictors (§4.4).
package core

import (
	"repro/internal/neural"
	"repro/internal/num"
)

// CounterBits is the width of the IMLI counter the paper budgets
// (10 bits).
const CounterBits = 10

// IMLI tracks the iteration number of the dynamically inner-most loop
// using the paper's fetch-time heuristic (§4.1):
//
//	if (backward) { if (taken) IMLIcount++; else IMLIcount = 0; }
//
// Any backward conditional branch is treated as a loop-exit branch; the
// count is the number of consecutive taken occurrences of the most
// recent one.
type IMLI struct {
	count uint32
	mask  uint32
	bits  int
}

// NewIMLI returns an IMLI counter of the paper's default width.
func NewIMLI() *IMLI { return NewIMLIBits(CounterBits) }

// NewIMLIBits returns an IMLI counter of the given width in [1,20]
// (for the width-ablation experiments; narrower counters wrap earlier
// inside deep loops).
func NewIMLIBits(bits int) *IMLI {
	if bits < 1 {
		bits = 1
	}
	if bits > 20 {
		bits = 20
	}
	return &IMLI{mask: (1 << bits) - 1, bits: bits}
}

// Observe updates the counter with a fetched conditional branch. Only
// backward branches (target below PC) affect the count.
func (m *IMLI) Observe(pc, target uint64, taken bool) {
	if target >= pc {
		return
	}
	if taken {
		m.count = (m.count + 1) & m.mask
	} else {
		m.count = 0
	}
}

// Count returns the current inner-most-loop iteration number.
func (m *IMLI) Count() uint32 { return m.count }

// Checkpoint returns the state to save per fetch block (CounterBits
// bits in hardware).
func (m *IMLI) Checkpoint() uint32 { return m.count }

// Restore rewinds the counter to a checkpoint, repairing the
// speculative state after a misprediction (§4.2.1).
func (m *IMLI) Restore(c uint32) { m.count = c & m.mask }

// StorageBits is the hardware cost of the counter itself.
func (m *IMLI) StorageBits() int { return m.bits }

// SICConfig sizes an IMLI-SIC component.
type SICConfig struct {
	// Entries is the prediction table size (paper: 512).
	Entries int
	// CtrBits is the counter width (paper: 6-bit counters → 384 bytes).
	CtrBits int
}

// DefaultSICConfig matches the paper's 512-entry, 6-bit-counter table.
func DefaultSICConfig() SICConfig { return SICConfig{Entries: 512, CtrBits: 6} }

// SIC is the Same Iteration Correlation component: a single table
// indexed with a hash of the PC and the IMLI counter. It captures
// branches whose outcome repeats for the same inner-most-loop
// iteration number across outer iterations (Out[N][M] ≡ Out[N-1][M]),
// including loop exits of constant-trip-count loops (which is why the
// loop predictor becomes nearly redundant once SIC is present, §4.2.2).
type SIC struct {
	imli *IMLI
	ctr  []int8
	mask uint64
	bits int

	idx uint64 //lint:allow snapcomplete vote-to-train scratch, dead at branch-boundary snapshot points
}

// NewSIC returns an IMLI-SIC component reading the shared counter.
func NewSIC(cfg SICConfig, imli *IMLI) *SIC {
	n := num.Pow2Ceil(cfg.Entries)
	return &SIC{imli: imli, ctr: make([]int8, n), mask: uint64(n - 1), bits: cfg.CtrBits}
}

func (s *SIC) index(ctx neural.Ctx) uint64 {
	return (ctx.PCHash() ^ num.Mix(uint64(s.imli.Count()))) & s.mask
}

// Vote implements neural.Component. The IMLI counter is read here, at
// predict time; Train reusing the recorded index is exact because the
// counter only advances at SpecPush, after table training.
func (s *SIC) Vote(ctx neural.Ctx) int {
	s.idx = s.index(ctx)
	return num.Centered(s.ctr[s.idx])
}

// Train implements neural.Component.
func (s *SIC) Train(taken bool) { s.ctr[s.idx] = num.SatUpdate(s.ctr[s.idx], taken, s.bits) }

// Name implements neural.Component.
func (s *SIC) Name() string { return "imli-sic" }

// StorageBits implements neural.Component.
func (s *SIC) StorageBits() int { return len(s.ctr) * s.bits }

// OHConfig sizes an IMLI-OH component.
type OHConfig struct {
	// HistBits is the outer-history table size in bits (paper: 1 Kbit,
	// tracking 16 branch slots × 64 iterations).
	HistBits int
	// BranchSlots is the number of distinct low-PC-bits branch slots
	// (paper: 16, giving the 16-bit PIPE vector).
	BranchSlots int
	// Entries is the prediction table size (paper: 256).
	Entries int
	// CtrBits is the prediction counter width (paper: 6).
	CtrBits int
}

// DefaultOHConfig matches the paper's 708-byte budget breakdown.
func DefaultOHConfig() OHConfig {
	return OHConfig{HistBits: 1024, BranchSlots: 16, Entries: 256, CtrBits: 6}
}

// OH is the Outer History component (Figure 12). The outcome of the
// branch in slot b at inner iteration M is stored in the outer-history
// table at b*iterSlots + M. When predicting iteration M of outer
// iteration N:
//
//   - Out[N-1][M] is still in the table at that address (it is only
//     overwritten by this branch's own update), and
//   - Out[N-1][M-1] was overwritten one inner iteration ago, so the
//     update saved it in the PIPE (Previous Inner iteration in
//     Previous External iteration) vector first.
//
// The prediction table is indexed with a hash of the PC and those two
// recovered outcome bits, letting the adder tree learn wormhole-class
// correlations Out[N][M] ~ f(Out[N-1][M-1], Out[N-1][M]) including the
// inverted form that IMLI-SIC misses.
type OH struct {
	imli      *IMLI
	hist      []uint8 // outer-history bit table
	pipe      uint32  // PIPE vector, one bit per branch slot
	ctr       []int8
	ctrMask   uint64
	bits      int
	slotMask  uint64
	iterSlots uint32 // history entries per branch slot
	iterMask  uint32

	// Optional delayed-update modelling (§4.3.2): writes to the
	// outer-history table are applied delay conditional branches late.
	delay   int //lint:allow snapcomplete configuration set once by SetDelay at wiring time
	pending []pendingWrite

	idx uint64 //lint:allow snapcomplete vote-to-train scratch, dead at branch-boundary snapshot points
}

type pendingWrite struct {
	index uint32
	taken bool
}

// NewOH returns an IMLI-OH component reading the shared counter.
func NewOH(cfg OHConfig, imli *IMLI) *OH {
	slots := num.Pow2Ceil(cfg.BranchSlots)
	histBits := num.Pow2Ceil(cfg.HistBits)
	iterSlots := histBits / slots
	n := num.Pow2Ceil(cfg.Entries)
	return &OH{
		imli:      imli,
		hist:      make([]uint8, histBits),
		ctr:       make([]int8, n),
		ctrMask:   uint64(n - 1),
		bits:      cfg.CtrBits,
		slotMask:  uint64(slots - 1),
		iterSlots: uint32(iterSlots),
		iterMask:  uint32(iterSlots - 1),
	}
}

// SetUpdateDelay makes outer-history table writes take effect n
// conditional branches late, modelling the delayed commit-time update
// of a large instruction window (§4.3.2). n=0 restores immediate
// updates.
func (o *OH) SetUpdateDelay(n int) {
	o.delay = n
	o.pending = o.pending[:0]
}

func (o *OH) slot(pc uint64) uint64 { return (pc >> 2) & o.slotMask }

func (o *OH) histIndex(pc uint64) uint32 {
	return uint32(o.slot(pc))*o.iterSlots + (o.imli.Count() & o.iterMask)
}

func (o *OH) index(ctx neural.Ctx) uint64 {
	pc := ctx.PC
	b := o.slot(pc)
	outPrevSame := uint64(o.hist[o.histIndex(pc)]) // Out[N-1][M]
	outPrevPrev := uint64((o.pipe >> uint(b)) & 1) // Out[N-1][M-1]
	return (ctx.PCHash()<<2 ^ outPrevSame<<1 ^ outPrevPrev) & o.ctrMask
}

// Vote implements neural.Component. The outer-history and PIPE reads
// that feed the index happen here; Train reusing the recorded index is
// exact because UpdateHistory runs after table training.
func (o *OH) Vote(ctx neural.Ctx) int {
	o.idx = o.index(ctx)
	return num.Centered(o.ctr[o.idx])
}

// Train implements neural.Component.
func (o *OH) Train(taken bool) { o.ctr[o.idx] = num.SatUpdate(o.ctr[o.idx], taken, o.bits) }

// UpdateHistory records the resolved outcome in the outer-history
// table and rotates the overwritten bit into the PIPE vector. Unlike
// Train, this must run for every conditional branch (it is history
// maintenance, not counter training), and it must run before the IMLI
// counter observes the branch.
func (o *OH) UpdateHistory(pc uint64, taken bool) {
	idx := o.histIndex(pc)
	b := uint(o.slot(pc))
	// Save Out[N-1][M] into PIPE before it is overwritten; it becomes
	// Out[N-1][M-1] for the next inner iteration.
	o.pipe &^= 1 << b
	o.pipe |= uint32(o.hist[idx]) << b
	if o.delay == 0 {
		o.write(idx, taken)
		return
	}
	o.pending = append(o.pending, pendingWrite{index: idx, taken: taken})
	if len(o.pending) > o.delay {
		w := o.pending[0]
		o.pending = o.pending[1:]
		o.write(w.index, w.taken)
	}
}

func (o *OH) write(idx uint32, taken bool) {
	if taken {
		o.hist[idx] = 1
	} else {
		o.hist[idx] = 0
	}
}

// CheckpointPipe returns the PIPE vector, the per-fetch-block
// speculative state of the component (16 bits in hardware).
func (o *OH) CheckpointPipe() uint32 { return o.pipe }

// RestorePipe rewinds the PIPE vector after a misprediction.
func (o *OH) RestorePipe(pipe uint32) { o.pipe = pipe }

// Name implements neural.Component.
func (o *OH) Name() string { return "imli-oh" }

// StorageBits implements neural.Component: prediction table +
// outer-history table + PIPE vector.
func (o *OH) StorageBits() int {
	return len(o.ctr)*o.bits + len(o.hist) + int(o.slotMask+1)
}

// CheckpointBits returns the total per-fetch-block speculative state
// of the IMLI mechanism: the counter plus the PIPE vector. The paper
// reports 10 + 16 = 26 bits.
func CheckpointBits(o *OH) int {
	return CounterBits + int(o.slotMask+1)
}
