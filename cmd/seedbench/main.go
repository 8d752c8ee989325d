// Command seedbench runs the reproduction experiments (one per evaluation
// artifact of the paper; see DESIGN.md section 5) and prints their reports.
//
// Usage:
//
//	seedbench            # run everything
//	seedbench -exp e3    # run one experiment
//	seedbench -list      # list experiments (the authoritative set)
//
// E1-E5 reproduce the paper's evaluation artifacts; E7 measures the
// snapshot-read/check-in concurrency engine. The features beyond the paper
// are measured end to end by seedmark (benchmark/, BENCHMARK.json); the
// results of the retired per-feature experiments E6 and E8-E14 are
// recorded in EXPERIMENTS.md. The
// experiment list below is the single source of truth: -list, the -exp flag
// help and the unknown-id error all enumerate it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

var experiments = []struct {
	id, doc string
	run     func() *bench.Result
}{
	{"e1", "figures 1+2: sample structure under the sample schema", bench.E1},
	{"e2", "figure 3: generalization, vague data, refinement walk", bench.E2},
	{"e3", "figure 4: versions, views, delta storage, alternatives", bench.E3},
	{"e4", "figure 5: variants defined by means of patterns", bench.E4},
	{"e5", "SPADES on SEED vs. direct data structures", bench.E5},
	{"e7", "concurrency: parallel snapshot reads under contended check-ins", bench.E7},
}

// experimentIDs enumerates the registered experiments, so the flag help, the
// -list output and the unknown-id error can never drift from the actual set.
func experimentIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ", ")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the selected experiments
// and returns the exit code — 0 when every assertion held, 1 when one
// failed, 2 for a usage error (a bad flag or an experiment id that matches
// nothing).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run ("+experimentIDs()+", or all)")
	list := fs.Bool("list", false, "list experiments")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "%-4s %s\n", e.id, e.doc)
		}
		return 0
	}

	failed, ran := false, false
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		ran = true
		r := e.run()
		fmt.Fprint(stdout, r.String())
		fmt.Fprintln(stdout)
		if r.Failed {
			failed = true
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "seedbench: unknown experiment %q (have %s, or all)\n", *exp, experimentIDs())
		return 2
	}
	if failed {
		fmt.Fprintln(stderr, "seedbench: some assertions FAILED")
		return 1
	}
	return 0
}
