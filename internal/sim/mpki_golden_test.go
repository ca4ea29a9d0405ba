package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenBudget keeps the cross-config sweep fast while still
// exercising TAGE allocation, the loop predictor, wormhole, local
// history and the IMLI components.
const goldenBudget = 12000

// goldenBenches picks benchmarks that cover the distinct correlation
// kernels (same-iteration, previous-outer-diagonal, inverted-outer,
// call/return noise) so a history-layer regression in any component
// shifts at least one count.
func goldenBenches(t *testing.T) []workload.Benchmark {
	t.Helper()
	names := []string{"SPEC2K6-04", "SPEC2K6-12", "MM-4", "SERVER-1", "CLIENT02"}
	var out []workload.Benchmark
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// goldenLocalDelay is the commit delay, in conditional branches, of
// the local-history pipeline runs pinned by the speculative-model
// goldens (the same modest window the localspec experiment uses).
const goldenLocalDelay = 32

// goldenCount is the exact simulation outcome of one (config, trace)
// pair; integer counts rather than float MPKI so "bit-identical" is
// literal. Speculative-model entries name the mode after a slash in
// Config ("tage-gsc+imli/unrepaired", "tage-sc-l/forwarded"), the
// Result.Predictor naming of FeedSpeculative and RunLocalSpec.
type goldenCount struct {
	Config       string `json:"config"`
	Trace        string `json:"trace"`
	Instructions uint64 `json:"instructions"`
	Conditionals uint64 `json:"conditionals"`
	Mispredicted uint64 `json:"mispredicted"`
}

// TestMPKIBitIdentityAllConfigs locks the exact mispredict counts of
// every registry configuration over a quick multi-kernel suite. The
// goldens were captured before the flattened-history-bank refactor
// (hist.FoldedBank, packed hist.Global, hoisted PC hashing); any
// change in predictor arithmetic — however small — fails this test.
// Regenerate deliberately with: go test ./internal/sim -run
// MPKIBitIdentity -update (which also rewrites the speculative-model
// entries of TestSpecModelGolden).
func TestMPKIBitIdentityAllConfigs(t *testing.T) {
	benches := goldenBenches(t)
	configs := predictor.Names()
	sort.Strings(configs)

	var got []goldenCount
	for _, cfg := range configs {
		run, err := RunSuite(cfg, "golden", benches, goldenBudget)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range run.Results {
			got = append(got, countOf(cfg, r))
		}
	}

	if *updateGolden {
		for _, cfg := range compositeConfigs() {
			got = append(got, specModelCounts(t, cfg, benches)...)
		}
		writeGolden(t, got)
		return
	}
	compareGolden(t, got, func(g goldenCount) bool { return !strings.Contains(g.Config, "/") })
}

// TestSpecModelGolden locks the exact counts of the speculative
// pipeline model on every composite configuration: FeedSpeculative
// under SpecCheckpointed and SpecUnrepaired — predictions made on
// wrong-path history, checkpoint/restore repair — and, for the
// configurations with local history, RunLocalSpec in all three
// local-history modes.
func TestSpecModelGolden(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by TestMPKIBitIdentityAllConfigs")
	}
	benches := goldenBenches(t)
	for _, cfg := range compositeConfigs() {
		t.Run(cfg, func(t *testing.T) {
			compareGolden(t, specModelCounts(t, cfg, benches), func(g goldenCount) bool {
				return strings.HasPrefix(g.Config, cfg+"/")
			})
		})
	}
}

// compositeConfigs returns the registry configurations built as
// *predictor.Composite; the bimodal/gshare adapters have no
// speculative hooks.
func compositeConfigs() []string {
	var out []string
	for _, cfg := range predictor.Names() {
		if _, ok := predictor.MustNew(cfg).(*predictor.Composite); ok {
			out = append(out, cfg)
		}
	}
	return out
}

// specModelCounts runs the speculative pipeline model for one
// composite configuration over benches.
func specModelCounts(t *testing.T, cfg string, benches []workload.Benchmark) []goldenCount {
	t.Helper()
	local := predictor.MustNew(cfg).(*predictor.Composite).LocalGroup() != nil
	var got []goldenCount
	for _, b := range benches {
		for _, mode := range []SpecMode{SpecCheckpointed, SpecUnrepaired} {
			res, err := RunSpecBenchmark(cfg, mode, b, goldenBudget)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, countOf(res.Predictor, res))
		}
		if !local {
			continue
		}
		for _, mode := range []LocalMode{LocalIdeal, LocalCommitOnly, LocalForwarded} {
			res, err := RunLocalSpec(cfg, mode, goldenLocalDelay, b, goldenBudget)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, countOf(res.Predictor, res.Result))
		}
	}
	return got
}

func countOf(config string, r Result) goldenCount {
	return goldenCount{
		Config:       config,
		Trace:        r.Trace,
		Instructions: r.Instructions,
		Conditionals: r.Conditionals,
		Mispredicted: r.Mispredicted,
	}
}

// TestSpecCheckpointedMatchesGolden pins the documented invariant that
// SpecCheckpointed — speculative history pushes at fetch, repaired from
// per-branch checkpoints on mispredictions — is prediction-for-
// prediction identical to SpecImmediate, for every golden composite
// configuration, by checking its counts against the same golden file
// the immediate-update sweep is pinned to.
func TestSpecCheckpointedMatchesGolden(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by TestMPKIBitIdentityAllConfigs")
	}
	benches := goldenBenches(t)
	var got []goldenCount
	for _, cfg := range compositeConfigs() {
		for _, b := range benches {
			res, err := RunSpecBenchmark(cfg, SpecCheckpointed, b, goldenBudget)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, countOf(cfg, res))
		}
	}
	compareGolden(t, got, nil)
}

// writeGolden rewrites the golden file (the -update flow).
func writeGolden(t *testing.T, got []goldenCount) {
	t.Helper()
	path := filepath.Join("testdata", "mpki_golden.json")
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s with %d entries", path, len(got))
}

// compareGolden checks counts against the golden file. When section
// is non-nil, got must cover exactly the golden entries it selects;
// otherwise golden entries absent from got (non-composite configs in
// the checkpointed sweep) are simply not checked. Either way every got
// entry must match its golden counterpart.
func compareGolden(t *testing.T, got []goldenCount, section func(goldenCount) bool) {
	t.Helper()
	path := filepath.Join("testdata", "mpki_golden.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	var want []goldenCount
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[[2]string]goldenCount, len(want))
	inSection := 0
	for _, w := range want {
		wantByKey[[2]string{w.Config, w.Trace}] = w
		if section != nil && section(w) {
			inSection++
		}
	}
	if section != nil && len(got) != inSection {
		t.Errorf("result count %d, golden has %d", len(got), inSection)
	}
	for _, g := range got {
		w, ok := wantByKey[[2]string{g.Config, g.Trace}]
		if !ok {
			t.Errorf("%s/%s: not in golden file (new config? regenerate with -update)", g.Config, g.Trace)
			continue
		}
		if g != w {
			t.Errorf("%s/%s: counts diverged from pre-refactor golden:\n got  %+v\n want %+v",
				g.Config, g.Trace, g, w)
		}
	}
}
