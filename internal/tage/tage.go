// Package tage implements the TAGE predictor (Seznec & Michaud, 2006;
// Seznec, 2011): a bimodal base predictor plus a set of partially
// tagged tables indexed with geometrically increasing global history
// lengths. It is the main component of the paper's reference TAGE-GSC
// predictor (Figure 4).
package tage

import (
	"math"

	"repro/internal/bimodal"
	"repro/internal/hist"
	"repro/internal/num"
)

// Confidence classifies how strongly TAGE believes its prediction; the
// statistical corrector weighs the TAGE vote by it.
type Confidence uint8

const (
	// LowConf marks weak (often newly allocated) provider counters.
	LowConf Confidence = iota
	// MedConf marks partially saturated provider counters.
	MedConf
	// HighConf marks saturated provider counters.
	HighConf
)

// Config sizes a TAGE predictor.
type Config struct {
	// NumTables is the number of tagged tables.
	NumTables int
	// MinHist and MaxHist bound the geometric history length series.
	MinHist, MaxHist int
	// LogEntries is the log2 of each tagged table's entry count. If a
	// single value is given it applies to every table.
	LogEntries []int
	// TagBits is the tag width of each tagged table. If a single value
	// is given it applies to every table.
	TagBits []int
	// CtrBits is the width of the signed prediction counters.
	CtrBits int
	// UBits is the width of the usefulness counters.
	UBits int
	// BimodalLog is the log2 of the base bimodal table size.
	BimodalLog int
	// ResetPeriod is the number of updates between graceful u resets.
	ResetPeriod int
}

// DefaultConfig returns a ~212 Kbit TAGE comparable to the TAGE part
// of the CBP4 TAGE-SC-L the paper's TAGE-GSC reference derives from.
func DefaultConfig() Config {
	return Config{
		NumTables:   12,
		MinHist:     4,
		MaxHist:     640,
		LogEntries:  []int{10},
		TagBits:     []int{8, 8, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14},
		CtrBits:     3,
		UBits:       2,
		BimodalLog:  13,
		ResetPeriod: 512 << 10,
	}
}

type taggedEntry struct {
	ctr int8
	tag uint16
	u   uint8
}

type table struct {
	entries  []taggedEntry
	mask     uint64
	tagBits  int
	tagMask  uint16
	histLen  int
	pathBits int // min(histLen, 16), hoisted out of the index hash
	foldIdx  hist.FoldedRef
	foldTag1 hist.FoldedRef
	foldTag2 hist.FoldedRef
}

// Prediction is the full TAGE prediction output.
type Prediction struct {
	// Taken is the final TAGE direction.
	Taken bool
	// Conf is the provider counter confidence.
	Conf Confidence
	// PCMix is num.Mix(pc>>2), computed once per Predict and exported
	// so downstream consumers of the same branch (the statistical
	// corrector) reuse it instead of re-mixing the PC.
	PCMix uint64
	// provider bookkeeping used by Update
	hitBank  int // 0 = bimodal, 1..N = tagged table
	altBank  int
	altPred  bool
	provPred bool
	weak     bool
}

// Predictor is a TAGE predictor. It reads (but does not own) the
// shared speculative global history and path history. Its folded
// history registers live in a hist.FoldedBank — shared with the rest
// of a composed predictor — that the owner must Push once per branch.
type Predictor struct {
	cfg    Config
	base   *bimodal.Table
	tables []table
	g      *hist.Global
	path   *hist.Path
	bank   *hist.FoldedBank
	rng    *num.Rand

	useAltOnNA int8 // chooser between provider and alt on weak entries
	tick       int

	// per-prediction scratch reused between Predict and Update to
	// avoid allocating on every branch
	indices []uint64 //lint:allow snapcomplete per-prediction scratch buffer recomputed by each Predict
	tags    []uint16 //lint:allow snapcomplete per-prediction scratch buffer recomputed by each Predict
}

// New returns a TAGE predictor over the shared histories g and path,
// allocating its folded history registers in bank. A nil bank gets a
// private one (standalone use); retrieve it with Bank and Push it
// after every history push.
func New(cfg Config, g *hist.Global, path *hist.Path, bank *hist.FoldedBank) *Predictor {
	if cfg.NumTables <= 0 {
		panic("tage: need at least one tagged table")
	}
	if bank == nil {
		bank = hist.NewFoldedBank()
	}
	p := &Predictor{
		cfg:  cfg,
		base: bimodal.New(1<<cfg.BimodalLog, 2),
		g:    g,
		path: path,
		bank: bank,
		rng:  num.NewRand(0x7a9e),
	}
	lens := geometricLengths(cfg.MinHist, cfg.MaxHist, cfg.NumTables)
	for i := 0; i < cfg.NumTables; i++ {
		logE := pick(cfg.LogEntries, i)
		tagBits := pick(cfg.TagBits, i)
		n := 1 << logE
		pb := lens[i]
		if pb > 16 {
			pb = 16
		}
		p.tables = append(p.tables, table{
			entries:  make([]taggedEntry, n),
			mask:     uint64(n - 1),
			tagBits:  tagBits,
			tagMask:  uint16((1 << tagBits) - 1),
			histLen:  lens[i],
			pathBits: pb,
			foldIdx:  bank.Add(lens[i], logE),
			foldTag1: bank.Add(lens[i], tagBits),
			foldTag2: bank.Add(lens[i], tagBits-1),
		})
	}
	p.indices = make([]uint64, cfg.NumTables)
	p.tags = make([]uint16, cfg.NumTables)
	return p
}

func pick(vals []int, i int) int {
	if i < len(vals) {
		return vals[i]
	}
	return vals[len(vals)-1]
}

// geometricLengths returns n history lengths forming a geometric
// series from min to max.
func geometricLengths(min, max, n int) []int {
	lens := make([]int, n)
	if n == 1 {
		lens[0] = min
		return lens
	}
	ratio := math.Pow(float64(max)/float64(min), 1/float64(n-1))
	prev := 0
	for i := range lens {
		l := int(float64(min)*math.Pow(ratio, float64(i)) + 0.5)
		if l <= prev {
			l = prev + 1 // lengths must strictly increase
		}
		lens[i] = l
		prev = l
	}
	return lens
}

// HistoryLengths returns the geometric series in use (for reports and
// tests).
func (p *Predictor) HistoryLengths() []int {
	out := make([]int, len(p.tables))
	for i := range p.tables {
		out[i] = p.tables[i].histLen
	}
	return out
}

// Bank returns the folded-history bank holding this predictor's
// registers. The owner must call Bank().Push(g) after every global
// history push (the composite predictor shares one bank across all of
// its components and pushes it once per branch).
func (p *Predictor) Bank() *hist.FoldedBank { return p.bank }

// Predict computes the TAGE prediction for pc. The returned Prediction
// must be passed back to Update once the branch resolves, before the
// next Predict (the predictor reuses internal index scratch space).
func (p *Predictor) Predict(pc uint64) Prediction {
	// The PC is mixed once per branch; the per-table index and tag
	// hashes both derive from pcMix, and the path-history mix is
	// computed once per distinct pathBits (the history-length cap of 16
	// makes the long-history tables share one value).
	pcMix := num.Mix(pc >> 2)
	pr := Prediction{hitBank: 0, altBank: 0, PCMix: pcMix}
	tagHigh := uint16(pcMix >> 7)
	var pv, pathMix uint64
	if p.path != nil {
		pv = p.path.Value()
	}
	prevPB := -1
	folds := p.bank.Values()
	for i := range p.tables {
		t := &p.tables[i]
		h := pcMix ^ uint64(folds[t.foldIdx])
		if p.path != nil {
			if t.pathBits != prevPB {
				pathMix = num.Mix(pv & (1<<uint(t.pathBits) - 1))
				prevPB = t.pathBits
			}
			h ^= pathMix
		}
		p.indices[i] = h & t.mask
		p.tags[i] = (tagHigh ^ uint16(folds[t.foldTag1]) ^ uint16(folds[t.foldTag2]<<1)) & t.tagMask
	}
	basePred := p.base.Predict(pc)
	pr.altPred = basePred
	pr.provPred = basePred
	pr.Taken = basePred
	if p.base.Confident(pc) {
		pr.Conf = HighConf
	} else {
		pr.Conf = LowConf
	}

	for i := len(p.tables) - 1; i >= 0; i-- {
		e := &p.tables[i].entries[p.indices[i]]
		if e.tag != p.tags[i] {
			continue
		}
		if pr.hitBank == 0 {
			pr.hitBank = i + 1
		} else {
			pr.altBank = i + 1
			break
		}
	}
	if pr.hitBank == 0 {
		return pr
	}
	prov := &p.tables[pr.hitBank-1].entries[p.indices[pr.hitBank-1]]
	pr.provPred = prov.ctr >= 0
	if pr.altBank > 0 {
		alt := &p.tables[pr.altBank-1].entries[p.indices[pr.altBank-1]]
		pr.altPred = alt.ctr >= 0
	}
	centered := num.Centered(prov.ctr)
	if centered < 0 {
		centered = -centered
	}
	maxCentered := (1 << p.cfg.CtrBits) - 1
	pr.weak = centered == 1 && prov.u == 0
	switch {
	case centered >= maxCentered:
		pr.Conf = HighConf
	case centered >= maxCentered/2:
		pr.Conf = MedConf
	default:
		pr.Conf = LowConf
	}

	if pr.weak && p.useAltOnNA >= 0 {
		pr.Taken = pr.altPred
		pr.Conf = LowConf
	} else {
		pr.Taken = pr.provPred
	}

	return pr
}

// Update trains TAGE with the resolved outcome. pr must be the value
// returned by the immediately preceding Predict for the same pc.
func (p *Predictor) Update(pc uint64, taken bool, pr Prediction) {
	p.tick++
	if p.cfg.ResetPeriod > 0 && p.tick%p.cfg.ResetPeriod == 0 {
		p.gracefulReset()
	}

	allocate := pr.Taken != taken && pr.hitBank < len(p.tables)

	if pr.hitBank > 0 {
		prov := &p.tables[pr.hitBank-1].entries[p.indices[pr.hitBank-1]]
		// Chooser training: on weak entries where provider and alt
		// disagree, learn which side tends to be right.
		if pr.weak && pr.provPred != pr.altPred {
			if pr.altPred == taken {
				p.useAltOnNA = num.SatIncr(p.useAltOnNA, 4)
			} else {
				p.useAltOnNA = num.SatDecr(p.useAltOnNA, 4)
			}
		}
		// Avoid wasting a new allocation when the provider was a weak
		// freshly allocated entry that got it right.
		if pr.provPred == taken && pr.weak {
			allocate = false
		}
		prov.ctr = num.SatUpdate(prov.ctr, taken, p.cfg.CtrBits)
		// Usefulness: the provider proved useful when it disagreed
		// with the alternate prediction and was right.
		if pr.provPred != pr.altPred {
			if pr.provPred == taken {
				if int(prov.u) < (1<<p.cfg.UBits)-1 {
					prov.u++
				}
			} else if prov.u > 0 {
				prov.u--
			}
		}
		// Train the alternate provider too when the provider entry is
		// still weak (standard TAGE refinement).
		if pr.weak {
			if pr.altBank > 0 {
				alt := &p.tables[pr.altBank-1].entries[p.indices[pr.altBank-1]]
				alt.ctr = num.SatUpdate(alt.ctr, taken, p.cfg.CtrBits)
			} else {
				p.base.Update(pc, taken)
			}
		}
	} else {
		p.base.Update(pc, taken)
	}

	if allocate {
		p.allocate(pr, taken)
	}
}

// allocate claims up to one entry in a table with longer history than
// the provider, preferring entries whose usefulness has decayed to
// zero and randomising the start bank to avoid ping-pong allocation.
func (p *Predictor) allocate(pr Prediction, taken bool) {
	start := pr.hitBank // first candidate is hitBank (0-based: table index hitBank)
	// Randomise: skip up to 2 banks with decreasing probability, the
	// CBP-style de-synchronisation of allocation.
	r := p.rng.Intn(4)
	if r > 0 && start+1 < len(p.tables) {
		start++
		if r > 2 && start+1 < len(p.tables) {
			start++
		}
	}
	for i := start; i < len(p.tables); i++ {
		e := &p.tables[i].entries[p.indices[i]]
		if e.u == 0 {
			e.tag = p.tags[i]
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			e.u = 0
			return
		}
	}
	// Nothing free: decay usefulness on the candidate path so a later
	// allocation can succeed.
	for i := start; i < len(p.tables); i++ {
		e := &p.tables[i].entries[p.indices[i]]
		if e.u > 0 {
			e.u--
		}
	}
}

// gracefulReset halves the usefulness counters periodically, the
// classic TAGE aging policy (alternately clearing the MSB and LSB).
func (p *Predictor) gracefulReset() {
	clearMSB := (p.tick/p.cfg.ResetPeriod)%2 == 0
	msb := uint8(1 << (p.cfg.UBits - 1))
	for i := range p.tables {
		t := &p.tables[i]
		for j := range t.entries {
			if clearMSB {
				t.entries[j].u &^= msb
			} else {
				t.entries[j].u &= msb
			}
		}
	}
}

// StorageBits returns the predictor storage cost.
func (p *Predictor) StorageBits() int {
	bits := p.base.StorageBits()
	for i := range p.tables {
		t := &p.tables[i]
		perEntry := p.cfg.CtrBits + t.tagBits + p.cfg.UBits
		bits += len(t.entries) * perEntry
	}
	bits += 4 // use_alt_on_na
	return bits
}

// NumTables returns the tagged table count.
func (p *Predictor) NumTables() int { return len(p.tables) }
