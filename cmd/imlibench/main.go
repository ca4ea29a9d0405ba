// Command imlibench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports, preceded by the paper's own numbers for comparison.
// Simulation goes through the sharded parallel engine; with
// -cache-dir, re-running after an interruption (or with overlapping
// experiment selections) only simulates what is missing.
//
// Usage:
//
//	imlibench -exp=all                 # every experiment, full size
//	imlibench -exp=fig8 -branches=100000
//	imlibench -exp=all -shards=4 -cache-dir=.imli-cache
//	imlibench -exp=seeds -seeds=5      # 5-seed sweep: mean ± CI, paired tests
//	imlibench -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "imlibench:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("imlibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment ID to run (see -list), or 'all'")
	branches := fs.Int("branches", 250000, "branch records generated per trace")
	eng := cliflags.Register(fs)
	seeds := cliflags.RegisterSeeds(fs)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	quiet := fs.Bool("q", false, "suppress per-suite progress lines")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	params := eng.Params(*branches)
	seedList, err := cliflags.SeedList(*seeds)
	if err != nil {
		return err
	}
	params.Seeds = seedList
	if !*quiet {
		params.Progress = stderr
	}
	runner := experiments.NewRunner(params)

	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			toRun = append(toRun, e)
		}
	}

	for _, e := range toRun {
		start := time.Now()
		rep := e.Run(runner)
		fmt.Fprintf(stdout, "==== %s — %s ====\n\n%s\n(%.1fs)\n\n",
			rep.ID, e.Title, rep.Text, time.Since(start).Seconds())
	}
	if st := runner.EngineStats(); (st.CacheHits > 0 || st.Resumed > 0) && !*quiet {
		fmt.Fprintf(stderr, "engine: %d shards simulated, %d served from cache, %d resumed from snapshots\n",
			st.Simulated, st.CacheHits, st.Resumed)
	}
	return nil
}
