package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/predictor"
	"repro/internal/sim"
)

// golden.json holds, for the default seed, the digest of every suite
// result the workloads deliver, recorded from the plain in-process
// engine with -record-golden.
//
//go:embed golden.json
var goldenJSON []byte

// checker is the output-correctness gate. A delivered result is
// compared with its recorded digest when one exists, and otherwise
// counter for counter with the same group simulated by a plain
// in-process engine (unsharded, or with the group's own shard
// geometry, and no store, snapshots or fleet).
type checker struct {
	golden  map[string]string
	refs    map[groupKey][]sim.Result
	engines map[[2]int]*sim.Engine
}

func newChecker() (*checker, error) {
	c := &checker{golden: map[string]string{}, refs: map[groupKey][]sim.Result{}, engines: map[[2]int]*sim.Engine{}}
	if err := json.Unmarshal(goldenJSON, &c.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return c, nil
}

// digest hashes the counters of a suite result in benchmark order.
func digest(results []sim.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%s %d %d %d %d\n", r.Trace, r.Records, r.Instructions, r.Conditionals, r.Mispredicted)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// reference simulates the group on the plain in-process engine.
func (c *checker) reference(k groupKey) ([]sim.Result, error) {
	if r, ok := c.refs[k]; ok {
		return r, nil
	}
	benches, err := k.benches()
	if err != nil {
		return nil, err
	}
	if _, err := predictor.New(k.Config); err != nil {
		return nil, err
	}
	geom := [2]int{k.Shards, k.Warmup}
	eng, ok := c.engines[geom]
	if !ok {
		// The reference runs after the timed phase, on every vCPU.
		eng = sim.NewEngine(sim.EngineConfig{Shards: k.Shards, Warmup: k.Warmup})
		c.engines[geom] = eng
	}
	r := eng.RunSuite(builder(k.Config), k.Config, k.Suite, benches, k.Budget).Results
	c.refs[k] = r
	return r, nil
}

// check verifies every outcome and returns the failed jobs with the
// first reason each failed.
func (c *checker) check(outcomes []outcome) (map[int]string, error) {
	failed := map[int]string{}
	fail := func(job int, format string, args ...any) {
		if _, dup := failed[job]; !dup {
			failed[job] = fmt.Sprintf(format, args...)
		}
	}
	for _, o := range outcomes {
		if want, ok := c.golden[o.key.String()]; ok {
			if got := digest(o.results); got != want {
				fail(o.job, "%s: digest %s, recorded %s", o.key, got, want)
			}
			continue
		}
		ref, err := c.reference(o.key)
		if err != nil {
			return nil, err
		}
		if len(ref) != len(o.results) {
			fail(o.job, "%s: %d results, reference has %d", o.key, len(o.results), len(ref))
			continue
		}
		for i, got := range o.results {
			want := ref[i]
			if got.Trace != want.Trace || got.Records != want.Records || got.Instructions != want.Instructions ||
				got.Conditionals != want.Conditionals || got.Mispredicted != want.Mispredicted {
				fail(o.job, "%s: %s got %d/%d/%d/%d, reference %s %d/%d/%d/%d (records/instructions/conditionals/mispredicted)",
					o.key, got.Trace, got.Records, got.Instructions, got.Conditionals, got.Mispredicted,
					want.Trace, want.Records, want.Instructions, want.Conditionals, want.Mispredicted)
				break
			}
		}
	}
	return failed, nil
}

// record merges the reference digests of every outcome's group into
// the golden file at path. The outcomes must already have passed the
// reference check.
func (c *checker) record(path string, outcomes []outcome) error {
	merged := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, o := range outcomes {
		ref, err := c.reference(o.key)
		if err != nil {
			return err
		}
		merged[o.key.String()] = digest(ref)
	}
	// Maps marshal with sorted keys, so the file diffs cleanly.
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
