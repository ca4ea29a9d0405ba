package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload's code paths in a fraction of a second
// per repetition.
var tinySizes = sizes{
	minReps:     1,
	coldConfigs: []string{"gehl+imli"},
	coldBudget:  500,

	sweepTraces: []int{0},
	sweepBase:   400, sweepStep: 50, sweepSteps: 2,

	serviceConfigs: []string{"bimodal", "gshare"},
	serviceBudget:  300, serviceSuiteBudget: 200,

	fleetConfig: "bimodal",
	fleetBudget: 400, fleetShards: 2, fleetWarmup: 100,

	probeItems: 2, probeBudget: 500,
}

// benchmarkSpec is the part of BENCHMARK.json the command must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryWorkloadEmitsItsMetrics runs every workload of the command,
// untraced and traced, at tiny sizes and checks that the last line
// names exactly the metrics BENCHMARK.json lists, each with its unit,
// and that every workload BENCHMARK.json lists exists.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if !slices.ContainsFunc(workloads, func(c command) bool { return c.name == w.Name }) {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command", w.Name)
		}
	}
	for _, w := range workloads {
		for trace, want := range map[int]map[string]string{0: units(spec.EndToEnd), 1: units(spec.PerLayer)} {
			t.Run(w.name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1",
					"--trace", strconv.Itoa(trace), "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr, tinySizes); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

func units(ms []specMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestCorruptedCounterTripsGate checks both gate paths, the recorded
// digest and the in-process reference, against one flipped counter.
func TestCorruptedCounterTripsGate(t *testing.T) {
	e := &env{seed: 3, seconds: time.Millisecond, sz: tinySizes, scratch: t.TempDir()}
	st := newRunStats()
	if err := suiteCold(e, st); err != nil {
		t.Fatal(err)
	}
	c, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := c.check(st.outcomes); err != nil || len(failed) != 0 {
		t.Fatalf("clean run: failed=%v err=%v", failed, err)
	}
	o := st.outcomes[len(st.outcomes)-1]
	recorded := digest(o.results)
	o.results = append(o.results[:0:0], o.results...)
	o.results[len(o.results)/2].Mispredicted++

	if failed, err := c.check([]outcome{o}); err != nil || failed[o.job] == "" {
		t.Errorf("reference path: corrupted counter passed (failed=%v err=%v)", failed, err)
	}
	c.golden[o.key.String()] = recorded
	if failed, err := c.check([]outcome{o}); err != nil || !strings.Contains(failed[o.job], "recorded") {
		t.Errorf("digest path: corrupted counter passed (failed=%v err=%v)", failed, err)
	}
}
