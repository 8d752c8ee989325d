// Command seedbench runs the reproduction experiments (one per evaluation
// artifact of the paper; see DESIGN.md section 5) and prints their reports.
//
// Usage:
//
//	seedbench                       # run everything
//	seedbench -exp e3               # run one experiment
//	seedbench -list                 # list experiments (the authoritative set)
//	seedbench -exp e8 -json BENCH_E8.json  # export a measurement experiment
//	seedbench -short                # reduced workloads (CI smoke)
//
// E1-E5 reproduce the paper's evaluation artifacts; E6 measures the
// storage engine's group-commit pipeline, E7 the snapshot-read/check-in
// concurrency engine, E8 the copy-on-write snapshot generations plus the
// class-indexed query path beyond the paper, E9 the concurrent
// lock-scoped check-in path against a harness-serialized baseline, E10
// the pipelined v2 wire protocol with server-side queries, E11 the
// follower-replication read scale-out with its lag and convergence
// differential, E13 the attribute indexes and cost-based planner against the
// forced linear scan, and E14 the production-hardening fault harness
// (overload shedding, chaos clients, graceful drain). With -json, the
// machine-readable data of the selected measurement experiment (e8, or
// e9/e10/e11/e13/e14 when selected with -exp)
// is written out so the perf trajectory is tracked across PRs. The experiment list below is the
// single source of truth: -list and the -exp flag help enumerate it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	{"e6", "storage: group commit vs per-record fsync", bench.E6},
	{"e7", "concurrency: parallel snapshot reads vs serialized check-ins", bench.E7},
	{"e8", "snapshots: COW generations and the class-indexed read path", nil},     // wired in main
	{"e9", "check-ins: lock-scoped concurrency vs the global write gate", nil},    // wired in main
	{"e10", "wire v2: pipelined frames and server-side queries", nil},             // wired in main
	{"e11", "replication: follower read scale-out, lag, convergence", nil},        // wired in main
	{"e13", "planner: attribute-indexed predicates vs forced linear scan", nil},   // wired in main
	{"e14", "hardening: overload shedding, fault injection, graceful drain", nil}, // wired in main
}

// experimentIDs enumerates the registered experiments, so the flag help and
// the -list output can never drift from the actual set.
func experimentIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ", ")
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+experimentIDs()+", or all)")
	list := flag.Bool("list", false, "list experiments")
	short := flag.Bool("short", false, "reduced workloads (CI smoke)")
	jsonPath := flag.String("json", "", "write the selected measurement experiment's machine-readable data to this file")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.doc)
		}
		return
	}

	e8Workload := bench.DefaultChurnWorkload
	e9Workload := bench.DefaultCheckinWorkload
	e10Workload := bench.DefaultPipelineWorkload
	e11Workload := bench.DefaultReplicaWorkload
	e13Workload := bench.DefaultPredicateWorkload
	e14Workload := bench.DefaultFaultWorkload
	if *short {
		e8Workload = bench.ShortChurnWorkload
		e9Workload = bench.ShortCheckinWorkload
		e10Workload = bench.ShortPipelineWorkload
		e11Workload = bench.ShortReplicaWorkload
		e13Workload = bench.ShortPredicateWorkload
		e14Workload = bench.ShortFaultWorkload
	}
	var e8Data *bench.E8Data
	var e9Data *bench.E9Data
	var e10Data *bench.E10Data
	var e11Data *bench.E11Data
	var e13Data *bench.E13Data
	var e14Data *bench.E14Data

	failed := false
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		var r *bench.Result
		switch e.id {
		case "e8":
			r, e8Data = bench.E8Stats(e8Workload)
		case "e9":
			r, e9Data = bench.E9Stats(e9Workload)
		case "e10":
			r, e10Data = bench.E10Stats(e10Workload)
		case "e11":
			r, e11Data = bench.E11Stats(e11Workload)
		case "e13":
			r, e13Data = bench.E13Stats(e13Workload)
		case "e14":
			r, e14Data = bench.E14Stats(e14Workload)
		default:
			r = e.run()
		}
		fmt.Print(r.String())
		fmt.Println()
		if r.Failed {
			failed = true
		}
	}
	if *jsonPath != "" {
		// -exp e9/e10 exports that experiment's data; everything else keeps
		// the historical behavior of exporting E8.
		var payload any
		switch {
		case strings.EqualFold(*exp, "e9"):
			if e9Data == nil {
				fmt.Fprintf(os.Stderr, "seedbench: -json given but experiment e9 did not run (-exp %s)\n", *exp)
				os.Exit(1)
			}
			payload = e9Data
		case strings.EqualFold(*exp, "e10"):
			if e10Data == nil {
				fmt.Fprintf(os.Stderr, "seedbench: -json given but experiment e10 did not run (-exp %s)\n", *exp)
				os.Exit(1)
			}
			payload = e10Data
		case strings.EqualFold(*exp, "e11"):
			if e11Data == nil {
				fmt.Fprintf(os.Stderr, "seedbench: -json given but experiment e11 did not run (-exp %s)\n", *exp)
				os.Exit(1)
			}
			payload = e11Data
		case strings.EqualFold(*exp, "e13"):
			if e13Data == nil {
				fmt.Fprintf(os.Stderr, "seedbench: -json given but experiment e13 did not run (-exp %s)\n", *exp)
				os.Exit(1)
			}
			payload = e13Data
		case strings.EqualFold(*exp, "e14"):
			if e14Data == nil {
				fmt.Fprintf(os.Stderr, "seedbench: -json given but experiment e14 did not run (-exp %s)\n", *exp)
				os.Exit(1)
			}
			payload = e14Data
		default:
			if e8Data == nil {
				fmt.Fprintf(os.Stderr, "seedbench: -json given but experiment e8 did not run (-exp %s)\n", *exp)
				os.Exit(1)
			}
			payload = e8Data
		}
		buf, err := json.MarshalIndent(payload, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "seedbench: some assertions FAILED")
		os.Exit(1)
	}
}
