// Package predictor composes the substrate packages into the complete
// predictors the paper evaluates: TAGE-GSC and GEHL bases, optionally
// augmented with IMLI components (SIC/OH), local history, a loop
// predictor, and the wormhole side predictor. A string registry maps
// configuration names (e.g. "tage-gsc+imli") to constructors so the
// simulator, benchmarks and CLI all share one set of definitions.
package predictor

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Predictor is the common interface of every composed predictor. The
// call protocol per conditional branch is Predict then Train; other
// branch kinds are fed through TrackOther to keep path and global
// history context consistent with real fetch streams.
type Predictor interface {
	// Name returns the registry name of the configuration.
	Name() string
	// Predict returns the predicted direction for a conditional branch.
	Predict(pc uint64) bool
	// Train resolves the conditional branch last predicted (same pc)
	// and updates all predictor state.
	Train(pc, target uint64, taken bool)
	// TrackOther observes a non-conditional branch (jump, call,
	// return, indirect) for history maintenance.
	TrackOther(pc, target uint64, kind trace.Kind, taken bool)
	// StorageBits returns the total hardware storage cost.
	StorageBits() int
}

// StorageItem is one line of a storage budget breakdown.
type StorageItem struct {
	Name string
	Bits int
}

// Breakdowner is implemented by predictors that can itemise their
// storage (used by the E13 budget report).
type Breakdowner interface {
	StorageBreakdown() []StorageItem
}

// Checkpointer is implemented by predictors with speculative state
// that can be checkpointed per fetch block; CheckpointBits is the
// hardware width of one checkpoint (the §4.4 argument).
type Checkpointer interface {
	CheckpointBits() int
}

// Builder constructs a predictor.
type Builder func() Predictor

var registry = map[string]Builder{}

// Register installs a named configuration. Panics on duplicates (the
// registry is assembled at init time from static definitions).
func Register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic("predictor: duplicate registration of " + name)
	}
	registry[name] = b
}

// New builds the named configuration.
func New(name string) (Predictor, error) {
	if err := Known(name); err != nil {
		return nil, err
	}
	return registry[name](), nil
}

// Known reports, without building anything, the error New would
// return for name: nil for a registered configuration.
func Known(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("predictor: unknown configuration %q", name)
	}
	return nil
}

// MustNew builds the named configuration and panics on error; for
// experiment definitions whose names are static.
func MustNew(name string) Predictor {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns all registered configuration names in sorted order,
// so listings and catalogs built from it are deterministic without
// every caller re-sorting.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
