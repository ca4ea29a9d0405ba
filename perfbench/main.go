// Command perfbench is the repository benchmark. It runs one workload
// against the simulator's layers for a fixed time, checks every
// simulated counter it delivered, and prints its metrics by name and
// unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
//
// Workloads: suite-cold, sweep-resume, service-jobs, fleet, or all.
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes a separate traced run and reports the per-layer metrics. See
// README.md for the workloads, the metrics and which layer moves
// which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/workload"
)

// defaultSeed is the seed golden.json is recorded for; heldOutSeed was
// not used while the benchmark was tuned.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

type workloadFunc func(*env, *runStats) error

// command is one workload the command runs.
type command struct {
	name string
	run  workloadFunc
}

// workloads are the command's workloads. BENCHMARK.json lists all but
// service-jobs, whose figures drifted too far between runs on the
// shared reference host (see README.md).
var workloads = []command{
	{"suite-cold", suiteCold},
	{"sweep-resume", sweepResume},
	{"service-jobs", serviceJobs},
	{"fleet", fleet},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the final line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite-cold, sweep-resume, service-jobs, fleet or all")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed: remixes the trace streams and draws the service job mix (golden digests are recorded for %d; %d is held out)", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 20, "seconds each workload measures for")
	traced := fs.Int("trace", 0, "1 makes a traced run and reports the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch stores and journals (removed at exit) and the traced run's spans")
	record := fs.String("record-golden", "", "merge the reference digests of this run's results into this golden file (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if *record != "" && *seed != defaultSeed {
		fmt.Fprintf(stderr, "perfbench: golden digests are recorded for the default seed %d only\n", defaultSeed)
		return 2
	}
	var selected []int
	for i, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}
	check, err := newChecker()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		check.golden = map[string]string{}
	}
	scratch, err := os.MkdirTemp(mustMkdir(*workdir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	printFingerprint(stdout)
	final := result{Correct: true, Metrics: metrics{}}
	for _, i := range selected {
		w := workloads[i]
		e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, sz: sz, scratch: scratch}
		var res result
		var err error
		if *traced == 1 {
			res, err = runTraced(e, w.name, w.run, check, stdout, stderr, filepath.Join(*workdir, "spans"))
		} else {
			res, err = runTimed(e, w.run, check, stdout, stderr)
		}
		if err == nil && *record != "" && res.Correct {
			err = recordGolden(e, w.run, check, *record)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(stdout, "%-14s %-28s %16s %s\n", w.name, k, strconv.FormatFloat(res.Metrics[k].Value, 'g', 8, 64), res.Metrics[k].Unit)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		fmt.Fprintln(stderr, "perfbench: output mismatch: see the failures above")
		return 1
	}
	return 0
}

func mustMkdir(parts ...string) string {
	dir := filepath.Join(parts...)
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// measure runs a workload.
func measure(e *env, w workloadFunc) (*runStats, error) {
	st := newRunStats()
	if err := w(e, st); err != nil {
		return nil, err
	}
	return st, nil
}

// verdict checks the run's outputs and counts its failed jobs.
func verdict(st *runStats, check *checker, stderr io.Writer) (result, error) {
	failed, err := check.check(st.outcomes)
	if err != nil {
		return result{}, err
	}
	for job, why := range st.failed {
		if _, dup := failed[job]; !dup {
			failed[job] = why
		}
	}
	jobs := make([]int, 0, len(failed))
	for j := range failed {
		jobs = append(jobs, j)
	}
	sort.Ints(jobs)
	for _, j := range jobs {
		fmt.Fprintf(stderr, "perfbench: job %d failed: %s\n", j, failed[j])
	}
	return result{Correct: len(failed) == 0, Attempted: st.jobs, Failed: len(failed), Metrics: metrics{}}, nil
}

// runTimed is an untraced run: it reports the end-to-end metrics.
func runTimed(e *env, w workloadFunc, check *checker, stdout, stderr io.Writer) (result, error) {
	st, err := measure(e, w)
	if err != nil {
		return result{}, err
	}
	rss := peakRSSMiB()
	res, err := verdict(st, check, stderr)
	if err != nil {
		return result{}, err
	}
	m := res.Metrics
	setups := make([]float64, len(st.setups))
	for i, d := range st.setups {
		setups[i] = d.Seconds()
	}
	m.put("setup_s", medianF(setups), "s")
	m.put("records_per_s", recordsPerSec(st.reps), "1/s")
	m.put("peak_rss_mib", rss, "MiB")
	m.put("ok_ratio", float64(res.Attempted-res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	jps := make([]float64, len(st.reps))
	for i, r := range st.reps {
		jps[i] = float64(r.jobs) / r.wall.Seconds()
	}
	m.put("jobs_per_s", medianF(jps), "1/s")
	m.put("job_p50_ms", ms(percentile(st.latencies, 50)), "ms")
	m.put("job_p90_ms", ms(percentile(st.latencies, 90)), "ms")
	printSteal(stdout, st)
	return res, nil
}

// printSteal reports how much runnable CPU time the host withheld from
// the VM during the job phases; the job times are scaled by the rest.
func printSteal(w io.Writer, st *runStats) {
	fmt.Fprintf(w, "host steal: %.1f%% of the VM's runnable CPU time during job phases\n", 100*(1-received(st.busy, st.steal)))
}

// recordsPerSec is the median over repetitions of the branch records
// covered by delivered results per second of job time.
func recordsPerSec(reps []rep) float64 {
	rps := make([]float64, len(reps))
	for i, r := range reps {
		rps[i] = float64(r.records) / r.wall.Seconds()
	}
	return medianF(rps)
}

// runTraced makes the traced run: it measures the workload with every
// second repetition traced, replays its layer calls, and reports the
// per-layer metrics. Layers the workload does not use get a small
// probe run for their per-call timings.
func runTraced(e *env, name string, w workloadFunc, check *checker, stdout, stderr io.Writer, spanDir string) (result, error) {
	traced := *e
	traced.keep, traced.tracer = true, newTracer(name)
	st, err := measure(&traced, w)
	if err != nil {
		return result{}, err
	}
	res, err := verdict(st, check, stderr)
	if err != nil {
		return result{}, err
	}
	pr, err := runProbes(&traced, st)
	if err != nil {
		return result{}, err
	}
	var serveProbe, distProbe *runStats
	if st.serve.submits == 0 {
		if serveProbe, err = probeServe(&traced, st, check); err != nil {
			return result{}, err
		}
	}
	if len(st.dist.item) == 0 {
		if distProbe, err = probeFleet(&traced, st, check); err != nil {
			return result{}, err
		}
	}
	res.Metrics = layerMetrics(st, pr, traced.tracer, serveProbe, distProbe)
	splitHost(st, pr, traced.tracer).print(stdout, name, st.jobs)
	printSteal(stdout, st)
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	if err := traced.tracer.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(traced.tracer.spans), path)
	return res, nil
}

// probeServe runs one small service round of bench jobs drawn from the
// workload's own groups, for the serve timings of a workload that does
// not use the service.
func probeServe(e *env, st *runStats, check *checker) (*runStats, error) {
	items, err := sample(st.outcomes, 2)
	if err != nil {
		return nil, err
	}
	var queue []client.Spec
	for i := 0; i < 4; i++ {
		it := items[i/2%len(items)]
		queue = append(queue, client.Spec{Type: client.JobBench, Config: it.key.Config,
			Bench: it.bench.Name, Budget: min(it.key.Budget, e.sz.serviceBudget)})
	}
	probe := newRunStats()
	p := *e
	p.keep = false
	if err := serviceRound(&p, probe, queue); err != nil {
		return nil, err
	}
	return probe, checkProbe("serve", probe, check)
}

// probeFleet runs one small sharded suite of the workload's first
// group through a loopback fleet, for the dist timings of a workload
// that does not use the fleet.
func probeFleet(e *env, st *runStats, check *checker) (*runStats, error) {
	items, err := sample(st.outcomes, 1)
	if err != nil {
		return nil, err
	}
	k := items[0].key
	benches, err := k.benches()
	if err != nil {
		return nil, err
	}
	benches = benches[:min(4, len(benches))]
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name
	}
	plan := fleetPlan{config: k.Config, benches: map[string][]workload.Benchmark{k.Suite: benches},
		budget: min(k.Budget, e.sz.fleetBudget), shards: 2, warmup: e.sz.fleetWarmup}
	plan.keys = map[string]groupKey{k.Suite: {Config: k.Config, Suite: k.Suite, Traces: strings.Join(names, ","),
		Variant: k.Variant, Budget: plan.budget, Shards: plan.shards, Warmup: plan.warmup}}
	probe := newRunStats()
	if err := fleetRep(e, probe, plan); err != nil {
		return nil, err
	}
	return probe, checkProbe("dist", probe, check)
}

// checkProbe fails a probe round whose jobs failed or whose results
// disagree with the reference: probe results are outputs too.
func checkProbe(name string, probe *runStats, check *checker) error {
	failed, err := check.check(probe.outcomes)
	if err != nil {
		return err
	}
	if n := len(failed) + len(probe.failed); n > 0 {
		return fmt.Errorf("%s probe: %d jobs failed or disagree with the reference", name, n)
	}
	return nil
}

// recordGolden reruns the workload briefly and merges the reference
// digests of its groups into the golden file.
func recordGolden(e *env, w workloadFunc, check *checker, path string) error {
	p := *e
	p.seconds = time.Millisecond
	st, err := measure(&p, w)
	if err != nil {
		return err
	}
	failed, err := check.check(st.outcomes)
	if err != nil {
		return err
	}
	if len(failed) > 0 || len(st.failed) > 0 {
		return fmt.Errorf("not recording: %d jobs disagree with the reference", len(failed)+len(st.failed))
	}
	return check.record(path, st.outcomes)
}

// percentile returns the p-th percentile of ds by linear
// interpolation between closest ranks.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printFingerprint prints the environment the figures were measured
// in.
func printFingerprint(w io.Writer) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "env: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}
