package dist

import (
	"testing"

	"repro/internal/sim"
)

// TestNewEngineWorkersShareStreams: the coordinating engine and every
// loopback worker read one stream cache, so each benchmark's stream
// materializes once however the items spread over the workers. The
// coordinator itself simulates nothing here, so every generation and
// hit its cache records came from the workers.
func TestNewEngineWorkersShareStreams(t *testing.T) {
	benches := identBenches(t)
	e, closeEngine, err := NewEngine(sim.EngineConfig{Shards: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine()
	ref := sim.NewEngine(sim.EngineConfig{Shards: 3}).RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 6000)
	run := e.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 6000)
	requireSameRun(t, "cluster", "gshare", ref, run)
	if st := e.Stats(); st.Simulated != 0 {
		t.Errorf("coordinating engine simulated %d items itself, want 0", st.Simulated)
	}
	st := e.Streams().Stats()
	if st.Generated != uint64(len(benches)) {
		t.Errorf("shared stream cache generated %d streams, want one per benchmark (%d)", st.Generated, len(benches))
	}
	if want := uint64(len(benches) * (3 - 1)); st.Hits != want {
		t.Errorf("shared stream cache hits = %d, want %d (the other shards of each benchmark)", st.Hits, want)
	}
}
