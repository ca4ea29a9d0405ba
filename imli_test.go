package imli_test

import (
	"strings"
	"testing"

	imli "repro"
)

func TestFacadePredictors(t *testing.T) {
	names := imli.PredictorNames()
	if len(names) < 20 {
		t.Fatalf("only %d configurations exposed", len(names))
	}
	p, err := imli.NewPredictor("tage-gsc+imli")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "tage-gsc+imli" {
		t.Errorf("Name = %q", p.Name())
	}
	if _, err := imli.NewPredictor("nope"); err == nil {
		t.Error("unknown predictor accepted")
	}
}

func TestFacadeSuites(t *testing.T) {
	if len(imli.CBP4Suite()) != 40 || len(imli.CBP3Suite()) != 40 {
		t.Error("suite sizes wrong")
	}
	b, err := imli.BenchmarkByName("MM-4")
	if err != nil {
		t.Fatal(err)
	}
	if b.Suite != "cbp4" {
		t.Errorf("MM-4 suite = %q", b.Suite)
	}
}

func TestFacadeSimulate(t *testing.T) {
	p, err := imli.NewPredictor("gshare")
	if err != nil {
		t.Fatal(err)
	}
	b, err := imli.BenchmarkByName("SPEC2K6-00")
	if err != nil {
		t.Fatal(err)
	}
	res := imli.Simulate(p, b, 10000)
	if res.Conditionals == 0 || res.MPKI() <= 0 {
		t.Errorf("implausible result %+v", res)
	}
}

func TestFacadeIMLIComponents(t *testing.T) {
	c := imli.NewIMLICounter()
	sic := imli.NewSIC(c)
	oh := imli.NewOH(c)
	// Drive the counter through a loop and check it ticks.
	for i := 0; i < 5; i++ {
		c.Observe(0x1000, 0x0f00, true)
	}
	if c.Count() != 5 {
		t.Errorf("counter = %d", c.Count())
	}
	if sic.StorageBits() != 512*6 {
		t.Errorf("SIC storage = %d", sic.StorageBits())
	}
	if oh.StorageBits() <= 0 {
		t.Error("OH storage empty")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(imli.Experiments()) < 16 {
		t.Errorf("only %d experiments exposed", len(imli.Experiments()))
	}
	rep, err := imli.RunExperiment("storage", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "storage" || rep.Text == "" {
		t.Errorf("bad report: %+v", rep.ID)
	}
	if _, err := imli.RunExperiment("nope", 1000); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeSeeds(t *testing.T) {
	// Duplicate seeds are rejected as an error, not a panic: a
	// duplicated seed would double-weight one stream instance in every
	// reported mean and interval.
	if _, err := imli.RunExperiment("seeds", 1000, imli.WithSeeds(1, 1)); err == nil {
		t.Error("duplicate seed list accepted")
	}

	rep, err := imli.RunExperiment("seeds", 1500, imli.WithSeeds(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Values["seeds"] != 2 {
		t.Errorf("sweep ran %v seeds, want 2", rep.Values["seeds"])
	}
	if !strings.Contains(rep.Text, "±") {
		t.Error("seed-sweep report has no ± columns")
	}
}

func TestFacadeSuiteRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	run, err := imli.SimulateSuite("bimodal", "cbp4", 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 40 || run.AvgMPKI() <= 0 {
		t.Errorf("suite run = %d results, %.3f MPKI", len(run.Results), run.AvgMPKI())
	}
	if _, err := imli.SimulateSuite("bimodal", "nope", 4000); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestFacadeSuiteOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	dir := t.TempDir()
	opts := []imli.Option{imli.WithParallel(4), imli.WithShards(2), imli.WithCacheDir(dir)}
	run1, err := imli.SimulateSuite("bimodal", "cbp4", 4000, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if run1.RanShards != 80 || run1.CachedShards != 0 {
		t.Fatalf("first run shard accounting = %d ran / %d cached", run1.RanShards, run1.CachedShards)
	}
	run2, err := imli.SimulateSuite("bimodal", "cbp4", 4000, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if run2.CachedShards != 80 || run2.RanShards != 0 {
		t.Errorf("second run shard accounting = %d ran / %d cached, want fully cached",
			run2.RanShards, run2.CachedShards)
	}
	for i := range run1.Results {
		if run1.Results[i] != run2.Results[i] {
			t.Errorf("%s: cached result differs", run1.Results[i].Trace)
		}
	}
}

func TestFacadeSnapshotOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	dir := t.TempDir()
	// Ascending budgets with WithSnapshots: the longer run resumes from
	// the shorter run's snapshot and still matches a cold run exactly.
	if _, err := imli.SimulateSuite("gshare", "cbp4", 2000,
		imli.WithSnapshots(true), imli.WithCacheDir(dir)); err != nil {
		t.Fatal(err)
	}
	resumed, err := imli.SimulateSuite("gshare", "cbp4", 5000,
		imli.WithSnapshots(true), imli.WithCacheDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := imli.SimulateSuite("gshare", "cbp4", 5000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resumed.Results {
		if resumed.Results[i] != cold.Results[i] {
			t.Errorf("%s: snapshot-resumed result differs from cold run", resumed.Results[i].Trace)
		}
	}

	// WithExactSharding: merged results bit-identical to unsharded.
	exact, err := imli.SimulateSuite("gshare", "cbp4", 5000,
		imli.WithShards(4), imli.WithExactSharding(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.Results {
		if exact.Results[i] != cold.Results[i] {
			t.Errorf("%s: exact-sharded result differs from unsharded run", exact.Results[i].Trace)
		}
	}
}

func TestFacadeExperimentOptions(t *testing.T) {
	dir := t.TempDir()
	var progress strings.Builder
	rep1, err := imli.RunExperiment("e1", 2000,
		imli.WithShards(2), imli.WithCacheDir(dir), imli.WithProgress(&progress))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "ran") {
		t.Errorf("no progress lines: %q", progress.String())
	}
	rep2, err := imli.RunExperiment("e1", 2000, imli.WithShards(2), imli.WithCacheDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Text != rep2.Text {
		t.Error("cached experiment differs from fresh run")
	}
}

func TestFacadeWorkersBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	ref, err := imli.SimulateSuite("gshare", "cbp4", 4000, imli.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	run, err := imli.SimulateSuite("gshare", "cbp4", 4000, imli.WithShards(2), imli.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Results {
		if run.Results[i] != ref.Results[i] {
			t.Errorf("%s: distributed result differs from in-process", ref.Results[i].Trace)
		}
	}

	if _, err := imli.SimulateSuite("gshare", "cbp4", 4000, imli.WithWorkers(0)); err == nil {
		t.Error("WithWorkers(0) accepted")
	}
	if _, err := imli.RunExperiment("e1", 2000, imli.WithWorkers(-1)); err == nil {
		t.Error("RunExperiment WithWorkers(-1) accepted")
	}
	if _, err := imli.NewService(imli.ServiceConfig{}, imli.WithWorkers(2)); err == nil {
		t.Error("NewService WithWorkers accepted")
	}
}

func TestFacadeExperimentWithWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	ref, err := imli.RunExperiment("e1", 2000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := imli.RunExperiment("e1", 2000, imli.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text != ref.Text {
		t.Error("distributed experiment report differs from in-process run")
	}
}
