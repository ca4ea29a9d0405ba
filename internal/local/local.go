// Package local implements the local-history predictor components that
// state-of-the-art academic predictors (TAGE-SC-L, FTL) add to their
// neural parts, and that the paper argues IMLI components can largely
// replace (§5): a shared local history table feeding a set of
// adder-tree tables indexed with hashes of the PC and the branch's own
// history.
package local

import (
	"repro/internal/hist"
	"repro/internal/neural"
	"repro/internal/num"
)

// Config sizes the local component group.
type Config struct {
	// HistEntries is the local history table size (paper's GEHL+L uses
	// a 256-entry table).
	HistEntries int
	// HistBits is the local history length kept per entry (paper: 24).
	HistBits int
	// TableEntries is the per-prediction-table entry count (paper: 2K).
	TableEntries int
	// TableHists lists the local history length each prediction table
	// is indexed with (paper's GEHL+L uses 4 tables).
	TableHists []int
	// CtrBits is the counter width (paper: 6).
	CtrBits int
}

// DefaultConfig matches the paper's §5 GEHL local component: 4 tables
// of 2K 6-bit counters plus a 256-entry table of 24-bit histories.
func DefaultConfig() Config {
	return Config{
		HistEntries:  256,
		HistBits:     24,
		TableEntries: 2048,
		TableHists:   []int{4, 9, 15, 24},
		CtrBits:      6,
	}
}

// SmallConfig is the slimmer local component used inside the TAGE-SC-L
// statistical corrector (the SC budget is much smaller than GEHL's).
func SmallConfig() Config {
	return Config{
		HistEntries:  256,
		HistBits:     16,
		TableEntries: 512,
		TableHists:   []int{4, 10, 16},
		CtrBits:      6,
	}
}

// Group is the local-history component group: the shared history table
// plus one adder-tree component per configured history length.
type Group struct {
	cfg    Config
	hist   *hist.Local
	tables []*Table
	// source supplies the (possibly speculative) local history the
	// prediction tables index with. It defaults to the committed
	// table; the §2.3.2 pipeline model replaces it with an in-flight
	// window lookup (Figure 3 of the paper).
	//lint:allow snapcomplete wiring: history source installed at setup, not runtime state
	source func(pc uint64) uint64
}

// NewGroup returns a local component group.
func NewGroup(cfg Config) *Group {
	g := &Group{cfg: cfg, hist: hist.NewLocal(cfg.HistEntries, cfg.HistBits)}
	g.source = g.hist.Get
	for i, hl := range cfg.TableHists {
		if hl > cfg.HistBits {
			hl = cfg.HistBits
		}
		g.tables = append(g.tables, &Table{
			name:    "local-" + string(rune('0'+i)),
			ctr:     make([]int8, num.Pow2Ceil(cfg.TableEntries)),
			mask:    uint64(num.Pow2Ceil(cfg.TableEntries) - 1),
			bits:    cfg.CtrBits,
			histLen: hl,
			hist:    g.hist,
			source:  g.hist.Get,
		})
	}
	return g
}

// Components returns the adder-tree components to register.
func (g *Group) Components() []neural.Component {
	out := make([]neural.Component, len(g.tables))
	for i, t := range g.tables {
		out[i] = t
	}
	return out
}

// UpdateHistory shifts the resolved outcome into the branch's local
// history. In hardware this is the commit-time update; the speculative
// value for in-flight occurrences requires the associative window
// search modelled in internal/hist (§2.3.2).
func (g *Group) UpdateHistory(pc uint64, taken bool) { g.hist.Push(pc, taken) }

// History exposes the shared local history table.
func (g *Group) History() *hist.Local { return g.hist }

// SetSource overrides where prediction tables read local history from
// (the speculative pipeline model); nil restores the committed table.
func (g *Group) SetSource(f func(pc uint64) uint64) {
	if f == nil {
		f = g.hist.Get
	}
	g.source = f
	for _, t := range g.tables {
		t.source = f
	}
}

// StorageBits returns the group storage cost including the history
// table.
func (g *Group) StorageBits() int {
	bits := g.hist.StorageBits()
	for _, t := range g.tables {
		bits += t.StorageBits()
	}
	return bits
}

// Table is one local-history prediction table.
type Table struct {
	name    string
	ctr     []int8
	mask    uint64
	bits    int
	histLen int
	hist    *hist.Local
	source  func(pc uint64) uint64

	idx uint64 //lint:allow snapcomplete vote-to-train scratch, dead at branch-boundary snapshot points
}

func (t *Table) index(ctx neural.Ctx) uint64 {
	h := t.source(ctx.PC) & ((1 << uint(t.histLen)) - 1)
	return (ctx.PCHash() ^ num.Mix(h*0x9E3779B97F4A7C15+uint64(t.histLen))) & t.mask
}

// Vote implements neural.Component. The first-level local-history
// load (t.source) happens here; Train reusing the recorded index is
// exact because the local history table is only pushed after table
// training.
func (t *Table) Vote(ctx neural.Ctx) int {
	t.idx = t.index(ctx)
	return num.Centered(t.ctr[t.idx])
}

// Train implements neural.Component.
func (t *Table) Train(taken bool) { t.ctr[t.idx] = num.SatUpdate(t.ctr[t.idx], taken, t.bits) }

// Name implements neural.Component.
func (t *Table) Name() string { return t.name }

// StorageBits implements neural.Component.
func (t *Table) StorageBits() int { return len(t.ctr) * t.bits }
