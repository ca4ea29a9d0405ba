// Package imli is the public API of this reproduction of "The Inner
// Most Loop Iteration counter: a new dimension in branch history"
// (Seznec, San Miguel, Albericio — MICRO 2015).
//
// The package re-exports the pieces a downstream user needs:
//
//   - branch predictors, by configuration name (NewPredictor), covering
//     every configuration in the paper's evaluation: TAGE-GSC and GEHL
//     bases, +IMLI (SIC/OH), +local/loop, +wormhole;
//   - the IMLI mechanism itself (NewIMLICounter, NewSIC, NewOH) for
//     embedding into other predictors;
//   - the synthetic CBP-like benchmark suites and the trace-driven
//     simulator used to evaluate them;
//   - the experiment harness that regenerates every table and figure of
//     the paper (Experiments, RunExperiment);
//   - engine controls for both (WithParallel, WithShards, WithCacheDir,
//     WithStreamCache, WithSnapshots, WithExactSharding, WithSeeds,
//     WithProgress):
//     suite runs fan (benchmark × shard) work items over a bounded
//     worker pool, read each benchmark's stream from a shared
//     once-per-run materialization, and can be cached on disk so
//     repeated runs are incremental — including resuming longer-budget
//     runs from snapshots of shorter ones;
//   - the imlid evaluation service (NewService; daemon: cmd/imlid),
//     which serves all of the above as deduplicated HTTP jobs with SSE
//     progress, spoken to by the repro/client package.
//
// Quick start:
//
//	p, _ := imli.NewPredictor("tage-gsc+imli")
//	b, _ := imli.BenchmarkByName("SPEC2K6-12")
//	res := imli.Simulate(p, b, 200000)
//	fmt.Printf("%s on %s: %.3f MPKI\n", p.Name(), b.Name, res.MPKI())
package imli

import (
	"fmt"
	"io"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Predictor is the common interface of all composed predictors; see
// PredictorNames for the available configurations.
type Predictor = predictor.Predictor

// Record is one dynamic branch in a trace.
type Record = trace.Record

// Kind classifies branch records.
type Kind = trace.Kind

// Branch kinds.
const (
	CondDirect   = trace.CondDirect
	UncondDirect = trace.UncondDirect
	Call         = trace.Call
	Return       = trace.Return
	Indirect     = trace.Indirect
)

// Result is the outcome of simulating one predictor over one trace.
type Result = sim.Result

// SuiteRun is the outcome of simulating a predictor over a whole suite.
type SuiteRun = sim.SuiteRun

// Benchmark is one synthetic benchmark definition.
type Benchmark = workload.Benchmark

// IMLICounter is the paper's inner-most-loop iteration counter.
type IMLICounter = core.IMLI

// SIC is the IMLI-SIC predictor component.
type SIC = core.SIC

// OH is the IMLI-OH predictor component.
type OH = core.OH

// NewPredictor builds a predictor configuration by registry name
// (e.g. "tage-gsc", "tage-gsc+imli", "gehl+imli", "tage-sc-l+imli").
func NewPredictor(name string) (Predictor, error) { return predictor.New(name) }

// PredictorNames lists the available configurations.
func PredictorNames() []string { return predictor.Names() }

// NewIMLICounter returns a fresh IMLI counter.
func NewIMLICounter() *IMLICounter { return core.NewIMLI() }

// NewSIC returns an IMLI-SIC component with the paper's default
// geometry, reading the given counter.
func NewSIC(counter *IMLICounter) *SIC { return core.NewSIC(core.DefaultSICConfig(), counter) }

// NewOH returns an IMLI-OH component with the paper's default
// geometry, reading the given counter.
func NewOH(counter *IMLICounter) *OH { return core.NewOH(core.DefaultOHConfig(), counter) }

// CBP4Suite returns the 40 CBP4-like synthetic benchmarks.
func CBP4Suite() []Benchmark { return workload.CBP4() }

// CBP3Suite returns the 40 CBP3-like synthetic benchmarks.
func CBP3Suite() []Benchmark { return workload.CBP3() }

// BenchmarkByName returns the named benchmark from either suite.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// Simulate runs a predictor over a benchmark generated with the given
// branch budget and returns accuracy statistics.
func Simulate(p Predictor, b Benchmark, budget int) Result {
	return sim.Feed(p, b.Name, func(emit func(Record)) { b.Generate(budget, emit) })
}

// Option tunes the simulation engine behind SimulateSuite and
// RunExperiment: worker-pool width, per-benchmark sharding, and the
// on-disk result cache.
type Option func(*engineOptions)

type engineOptions struct {
	parallel   int
	shards     int
	cacheDir   string
	streamMem  int64
	snapshots  bool
	exact      bool
	workers    int
	workersSet bool
	seeds      []int64
	progress   io.Writer
}

// WithParallel bounds concurrent shard simulations (default:
// GOMAXPROCS).
func WithParallel(n int) Option { return func(o *engineOptions) { o.parallel = n } }

// WithShards splits every benchmark's branch budget into n
// deterministic stream segments simulated as independent work items.
// Merged MPKI stays within a few percent of the unsharded run; see
// DESIGN.md §5 for the tolerance and the warm-up caveat.
func WithShards(n int) Option { return func(o *engineOptions) { o.shards = n } }

// WithCacheDir backs the run with a content-addressed on-disk result
// store rooted at dir, so repeated identical runs are incremental.
func WithCacheDir(dir string) Option { return func(o *engineOptions) { o.cacheDir = dir } }

// WithStreamCache bounds the resident memory of materialized benchmark
// streams (each benchmark's record stream is generated once per run
// and shared across shards and configurations; see DESIGN.md §6).
// 0 selects the default bound; a negative value disables
// materialization so every shard regenerates its stream prefix.
func WithStreamCache(maxBytes int64) Option {
	return func(o *engineOptions) { o.streamMem = maxBytes }
}

// WithSnapshots enables the predictor-state snapshot layer (DESIGN.md
// §8): runs persist their end-of-run predictor state in the result
// store (WithCacheDir) and later, longer-budget runs of the same
// configuration and trace resume from the longest cached prefix
// instead of re-training from record 0 — an ascending budget sweep
// costs max(budget) simulation work instead of sum(budgets).
func WithSnapshots(on bool) Option { return func(o *engineOptions) { o.snapshots = on } }

// WithExactSharding switches WithShards from functional warm-up to
// boundary-snapshot chaining: merged sharded results are bit-identical
// to the unsharded run (no DESIGN.md §5 tolerance), at the cost of
// serializing each benchmark's shards on one worker. Implies
// WithSnapshots.
func WithExactSharding(on bool) Option { return func(o *engineOptions) { o.exact = on } }

// WithWorkers distributes the run over n in-process workers pulling
// work items from a loopback coordinator queue (DESIGN.md §14) — the
// one-machine form of the multi-node imlid deployment (imlid
// -coordinator plus imlid -worker fleets). Results are bit-identical
// to in-process execution: work items are values, simulation is
// deterministic, and remote results merge through the same
// content-addressed store keys. n must be at least 1.
func WithWorkers(n int) Option {
	return func(o *engineOptions) { o.workers, o.workersSet = n, true }
}

// WithSeeds fans experiment simulations out over stream-seed variants
// (DESIGN.md §10): seed 0 is the base stream every single-seed run
// reports, other values deterministically remix each benchmark's seed.
// Seed-sweep experiments (the "seeds" experiment, and any experiment
// calling the runner's sweep primitives) report mean ± CI over the
// listed seeds instead of a point estimate. The list must be
// duplicate-free; RunExperiment rejects duplicates with an error.
func WithSeeds(seeds ...int64) Option {
	return func(o *engineOptions) { o.seeds = append([]int64(nil), seeds...) }
}

// WithProgress streams per-suite progress lines (with cache
// accounting) to w while an experiment runs.
func WithProgress(w io.Writer) Option { return func(o *engineOptions) { o.progress = w } }

func applyOptions(opts []Option) (engineOptions, error) {
	var o engineOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.workersSet && o.workers < 1 {
		return o, fmt.Errorf("imli: WithWorkers needs at least one worker, got %d", o.workers)
	}
	return o, nil
}

// engineConfig maps the collected options onto the engine's
// configuration — the one place the facade's knobs meet sim.
func (o engineOptions) engineConfig() sim.EngineConfig {
	return sim.EngineConfig{
		Workers: o.parallel, Shards: o.shards, CacheDir: o.cacheDir, StreamMemory: o.streamMem,
		Snapshots: o.snapshots, ExactShards: o.exact,
	}
}

// SimulateSuite runs a registry configuration over a whole suite
// ("cbp4" or "cbp3") in parallel, honoring sharding and caching
// options.
func SimulateSuite(config, suite string, budget int, opts ...Option) (SuiteRun, error) {
	benches, ok := workload.Suites()[suite]
	if !ok {
		return SuiteRun{}, fmt.Errorf("imli: unknown suite %q (want cbp4 or cbp3)", suite)
	}
	if _, err := predictor.New(config); err != nil {
		return SuiteRun{}, err
	}
	o, err := applyOptions(opts)
	if err != nil {
		return SuiteRun{}, err
	}
	engine, closeEngine, err := dist.NewEngine(o.engineConfig(), o.workers)
	if err != nil {
		return SuiteRun{}, err
	}
	defer closeEngine()
	builder := func() Predictor { return predictor.MustNew(config) }
	return engine.RunSuite(builder, config, suite, benches, budget), nil
}

// TargetUnit is the fetch-target substrate (BTB + return address
// stack + indirect predictor) that supplies the fetch-time backward
// bit the IMLI heuristic consumes.
type TargetUnit = btb.Unit

// NewTargetUnit returns a default-sized fetch-target unit.
func NewTargetUnit() *TargetUnit { return btb.New(btb.DefaultConfig()) }

// TargetResult summarises fetch-target prediction over a benchmark.
type TargetResult = sim.TargetResult

// SimulateTargets measures fetch-target prediction (and IMLI
// backward-hint coverage) over a benchmark.
func SimulateTargets(u *TargetUnit, b Benchmark, budget int) TargetResult {
	return sim.RunTargets(u, b, budget)
}

// SpecMode selects the speculative-history model for SimulateSpec.
type SpecMode = sim.SpecMode

// Speculative-history modes (see internal/sim).
const (
	SpecImmediate    = sim.SpecImmediate
	SpecCheckpointed = sim.SpecCheckpointed
	SpecUnrepaired   = sim.SpecUnrepaired
)

// SimulateSpec runs a registry configuration over a benchmark under a
// speculative-history mode. SpecCheckpointed is prediction-for-
// prediction identical to SpecImmediate (the paper's §2.3 repair
// argument); SpecUnrepaired quantifies the cost of not checkpointing.
func SimulateSpec(config string, mode SpecMode, b Benchmark, budget int) (Result, error) {
	return sim.RunSpecBenchmark(config, mode, b, budget)
}

// Service is the imlid evaluation service: a long-running job server
// over one shared simulation engine, accepting predictor-evaluation
// and experiment-report jobs with in-flight deduplication and SSE
// progress (DESIGN.md §9). Mount Handler on an HTTP server (or run
// cmd/imlid); talk to it with the repro/client package.
type Service = serve.Server

// ServiceConfig sizes a Service beyond its engine: JobWorkers bounds
// concurrently running jobs (<=0 means 2; simulation work inside jobs
// is bounded engine-wide by WithParallel), QueueDepth bounds queued
// jobs (<=0 means 1024; past it submissions are shed with 429 +
// Retry-After), DefaultBudget fills submissions that omit a
// budget (<=0 means the full-size 250000), and KeepJobs bounds the
// retained finished-job history (<=0 means 1000; evicted jobs'
// simulated work survives in the result store).
type ServiceConfig struct {
	JobWorkers    int
	QueueDepth    int
	DefaultBudget int
	KeepJobs      int
}

// NewService returns a running evaluation service backed by an engine
// built from the usual engine options. The caller owns its lifecycle:
// serve its Handler, and stop it with Drain. WithWorkers is not an
// engine option here — a multi-machine service is imlid -coordinator
// (its engine dispatches to a worker-pull queue served under
// /v1/work/; see DESIGN.md §14), so the option reports an error.
func NewService(cfg ServiceConfig, opts ...Option) (*Service, error) {
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.workersSet {
		return nil, fmt.Errorf("imli: NewService does not take WithWorkers; run the service as a coordinator (imlid -coordinator) with a worker fleet instead")
	}
	return serve.NewServer(serve.Config{
		Engine:        sim.NewEngine(o.engineConfig()),
		JobWorkers:    cfg.JobWorkers,
		QueueDepth:    cfg.QueueDepth,
		DefaultBudget: cfg.DefaultBudget,
		KeepJobs:      cfg.KeepJobs,
	}), nil
}

// Experiment reproduces one paper table or figure.
type Experiment = experiments.Experiment

// ExperimentReport is the rendered output of an experiment.
type ExperimentReport = experiments.Report

// Experiments lists every paper artifact experiment (one per table and
// figure; see DESIGN.md for the index).
func Experiments() []Experiment { return experiments.All() }

// RunExperiment reproduces one paper artifact by experiment ID (e.g.
// "fig8", "table1", "storage") with the given per-trace branch budget
// (0 = full size), honoring parallelism, sharding, caching, and
// progress options.
func RunExperiment(id string, budget int, opts ...Option) (ExperimentReport, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return ExperimentReport{}, err
	}
	o, err := applyOptions(opts)
	if err != nil {
		return ExperimentReport{}, err
	}
	if err := experiments.CheckSeeds(o.seeds); err != nil {
		return ExperimentReport{}, err
	}
	r := experiments.NewRunner(experiments.Params{
		Budget:       budget,
		Parallel:     o.parallel,
		Shards:       o.shards,
		CacheDir:     o.cacheDir,
		StreamMemory: o.streamMem,
		Snapshots:    o.snapshots,
		ExactShards:  o.exact,
		Workers:      o.workers,
		Seeds:        o.seeds,
		Progress:     o.progress,
	})
	defer r.Close()
	return e.Run(r), nil
}
