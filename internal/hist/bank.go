package hist

// FoldedBank stores every folded history register of a composed
// predictor in one contiguous struct-of-arrays block, replacing the
// per-register heap objects a `[]*Folded` walk chases. A composite
// predictor allocates all of its registers — TAGE index/tag folds plus
// the statistical corrector's (or GEHL's) table folds, ~40 for
// TAGE-SC-L — into a single bank and advances them all with one Push
// per branch.
//
// Push fetches the newest global-history bit once for the whole bank
// and fetches each distinct oldest bit once per run of registers with
// equal history length (a TAGE table's index fold and both tag folds
// share their histLen, so its three registers cost one oldest-bit
// fetch). The per-register update arithmetic is bit-identical to
// Folded.Update, which remains as the executable reference that the
// property tests check the bank against.
type FoldedBank struct {
	value []uint32
	//lint:allow snapcomplete geometry built by Add at construction, fixed afterwards
	width []uint32 // kept for the Width accessor and Reset/ResetAll
	//lint:allow snapcomplete geometry built by Add at construction, fixed afterwards
	histLen []int32

	// Push-time derived forms, precomputed at Add so the per-register
	// update is branch-free straight-line ALU work with no variable
	// shifts:
	//lint:allow snapcomplete geometry built by Add at construction, fixed afterwards
	outBit []uint32 // 1<<(histLen%width), the exit position; the oldest bit is folded in as outBit & -oldest
	//lint:allow snapcomplete geometry built by Add at construction, fixed afterwards
	wrapBit []uint32 // 1<<(width-1): the bit that <<1 pushes past the top
	//lint:allow snapcomplete geometry built by Add at construction, fixed afterwards
	wrapTerm []uint32 // 1<<width | 1: clears the pushed-out bit and lands it on bit 0
	// groups are maximal runs of registers added consecutively with the
	// same histLen; Push fetches one oldest bit per group.
	//lint:allow snapcomplete run boundaries built by Add at construction, fixed afterwards
	groups []foldGroup
}

type foldGroup struct {
	histLen int32
	end     int32 // one past the last register of the run
}

// FoldedRef identifies one register inside a FoldedBank.
type FoldedRef int32

// NewFoldedBank returns an empty bank; registers are added with Add.
func NewFoldedBank() *FoldedBank { return &FoldedBank{} }

// Add appends a folded register of the given original length
// compressed into width bits and returns its handle. width must be in
// [1,32]; histLen must be non-negative (matching NewFolded).
func (b *FoldedBank) Add(histLen, width int) FoldedRef {
	if width < 1 || width > 32 {
		panic("hist: folded width out of range")
	}
	if histLen < 0 {
		panic("hist: negative history length")
	}
	b.value = append(b.value, 0)
	b.width = append(b.width, uint32(width))
	b.histLen = append(b.histLen, int32(histLen))
	b.outBit = append(b.outBit, uint32(1)<<uint(histLen%width))
	b.wrapBit = append(b.wrapBit, uint32(1)<<uint(width-1))
	// wrapTerm both clears the bit the <<1 pushed past the top (bit
	// width, present iff the wrap bit was set) and XORs the wrap onto
	// bit 0 — together exactly Folded.Update's wrap-and-mask step. At
	// width 32 the container drops the pushed-out bit on its own and
	// Folded.Update's (v>>32)&1 is 0, so the term degenerates to 0|1=1
	// on the bit-0 side only — suppress the bit-0 wrap to match.
	if width == 32 {
		b.wrapTerm = append(b.wrapTerm, 0)
	} else {
		b.wrapTerm = append(b.wrapTerm, uint32(1)<<uint(width)|1)
	}
	n := int32(len(b.value))
	if k := len(b.groups); k > 0 && b.groups[k-1].histLen == int32(histLen) {
		b.groups[k-1].end = n
	} else {
		b.groups = append(b.groups, foldGroup{histLen: int32(histLen), end: n})
	}
	return FoldedRef(n - 1)
}

// Value returns the folded history of register r.
func (b *FoldedBank) Value(r FoldedRef) uint32 { return b.value[r] }

// Values returns the live register values indexed by FoldedRef, so a
// hot loop reading many registers loads the slice header once. The
// view is read-only and must not be retained across Add calls.
func (b *FoldedBank) Values() []uint32 { return b.value }

// HistLen returns the uncompressed history length of register r.
func (b *FoldedBank) HistLen(r FoldedRef) int { return int(b.histLen[r]) }

// Width returns the compressed width in bits of register r.
func (b *FoldedBank) Width(r FoldedRef) int { return int(b.width[r]) }

// Len returns the number of registers in the bank.
func (b *FoldedBank) Len() int { return len(b.value) }

// Push rotates the newest history bit into every register and rotates
// out the bit that fell off each register's window. g must be the
// global history after the newest outcome was pushed — the same
// contract as Folded.Update, applied to the whole bank in one pass.
func (b *FoldedBank) Push(g *Global) {
	n := len(b.value)
	if n == 0 {
		return
	}
	value := b.value[:n]
	outBit := b.outBit[:n]
	wrapBit := b.wrapBit[:n]
	wrapTerm := b.wrapTerm[:n]

	newest := uint32(g.Bit(0))
	start := 0
	for _, grp := range b.groups {
		end := int(grp.end)
		if grp.histLen == 0 {
			// Empty windows fold to zero forever.
			start = end
			continue
		}
		// The bit that exits the window was pushed histLen outcomes
		// ago; every register of the run shares the fetch (a TAGE
		// table adds its three folds together, so its run costs one).
		oldSel := -uint32(g.Bit(int(grp.histLen))) // 0 or all-ones
		for i := start; i < end; i++ {
			// Bit-identical to Folded.Update, restated as straight-line
			// ALU work: the wrap bit is read from the pre-shift value
			// (the newest/oldest XORs never touch it), and wrapTerm
			// both clears the pushed-out top bit and folds the wrap
			// onto bit 0, absorbing the final mask step.
			old := value[i]
			x := old & wrapBit[i]
			wrapSel := uint32(int32(x|-x) >> 31) // 0 or all-ones
			value[i] = (old<<1 | newest) ^ (outBit[i] & oldSel) ^ (wrapTerm[i] & wrapSel)
		}
		start = end
	}
}

// Reset recomputes register r from scratch out of the global history.
func (b *FoldedBank) Reset(r FoldedRef, g *Global) {
	b.value[r] = Fold(g, int(b.histLen[r]), int(b.width[r]))
}

// ResetAll recomputes every register from the global history; used
// after a speculative-history restore (in hardware the folded values
// are checkpointed alongside the head pointer).
func (b *FoldedBank) ResetAll(g *Global) {
	for i := range b.value {
		b.value[i] = Fold(g, int(b.histLen[i]), int(b.width[i]))
	}
}
