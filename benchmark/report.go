package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/seed"
)

// Printing results: a readable block per run, a JSON file under out/, and —
// with -workload — the one-line result the benchmark driver reads.

// environment is recorded with every result: numbers from different
// machines or settings are not comparable.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	ReadWindow int    `json:"read_window"`
	Seed       int64  `json:"seed"`
}

func currentEnvironment(seed int64) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Clients: clients, ReadWindow: readWindow, Seed: seed,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func policyName(w *workload) string {
	switch {
	case !w.fileBacked:
		return "none (in-memory)"
	case w.policy == seed.SyncGroupCommit:
		return "SyncGroupCommit"
	}
	return "SyncOnRequest"
}

func printHeader(w *workload, env environment, mode string) {
	fmt.Printf("== %s  %s  seed=%d clients=%d window=%d closed-loop  sync=%s  NumCPU=%d GOMAXPROCS=%d %s commit=%s\n",
		w.name, mode, env.Seed, env.Clients, w.window, policyName(w), env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit)
}

// metrics maps a timed result onto the end-to-end metric names.
func (res *timedResult) metrics() map[string]float64 {
	return map[string]float64{
		"throughput_units_s":  res.Throughput,
		"p50_us":              res.P50us,
		"heap_bytes_per_item": res.HeapPerItem,
		"setup_s":             res.SetupS,
	}
}

func (res *timedResult) print() {
	m := res.metrics()
	for _, def := range endToEnd {
		note := ""
		switch def.name {
		case "throughput_units_s":
			note = fmt.Sprintf("upper quartile of %v slices %.0f; mean %.1f", sliceLen, res.Slices, res.ThroughputMean)
		case "p50_us":
			note = fmt.Sprintf("lower quartile of the slices' medians; %d samples, whole-window median %.3f", res.Samples, res.P50Window)
		case "heap_bytes_per_item":
			note = fmt.Sprintf("%d items", res.Items)
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups %.3f", len(res.Setups), res.Setups)
		}
		fmt.Printf("  %-30s %14.3f %-5s (%s)\n", def.name, m[def.name], def.unit, note)
	}
	fmt.Printf("  %-30s %14.6f %-5s (%d failed of %d attempted)\n", "failed_share", res.FailedShare, "share", res.Failed, res.Attempted)
	fmt.Printf("  %-30s %14.3f %-5s (diagnostic; %d samples beyond it)\n", "tail.p99_us", res.P99us, "us", res.P99Beyond)
	fmt.Printf("  %-30s %14.3f %-5s (diagnostic; polled every %v)\n", "wal_bytes_per_unit", res.WALBytesPerUnit, "B", pollEvery)
	fmt.Printf("  %-30s %14d %-5s (diagnostic; worst unit beside one %.3f ms)\n", "storage.compactions", res.Compactions, "count", res.StallMs)
	printChecks(res.Errors, res.Checks)
}

// printChecks lists a run's failed units and the outcome of its checks.
func printChecks(failures []string, checks []checkResult) {
	for _, f := range failures {
		fmt.Printf("  failed unit: %s\n", f)
	}
	for _, c := range checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("  check %s %s %s\n", status, c.Name, c.Detail)
	}
}

// driverLine prints the result line of the benchmark contract; it must be
// the last line on standard output.
func driverLine(correct bool, attempted, failed int, defs []metricDef, values map[string]float64) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, make(map[string]metric)}
	for _, def := range defs {
		line.Metrics[def.name] = metric{values[def.name], def.unit}
	}
	data, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Println(string(data))
}

// runOne is the driver's entry: one workload, timed or traced, ending in
// the result line. A failed check makes the exit code non-zero.
func runOne(w *workload, seed int64, window time.Duration, traced bool, out, tmp string) int {
	env := currentEnvironment(seed)
	if traced {
		printHeader(w, env, "traced")
		tr, err := runTraced(w, w.objects, seed, w.tracedUnits, window, out, tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		tr.print()
		if !tr.Correct {
			return 1
		}
		driverLine(true, tr.Attempted, tr.Failed, perLayer, tr.Metrics)
		return 0
	}
	printHeader(w, env, "timed")
	res, err := runTimed(w, w.objects, seed, window, setupRounds, tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	res.print()
	if !res.Correct {
		return 1
	}
	driverLine(true, res.Attempted, res.Failed, endToEnd, res.metrics())
	return 0
}

// fullResult is out/result.json: every workload's timed and traced run.
type fullResult struct {
	Environment environment     `json:"environment"`
	Claim       *string         `json:"claim"` // this benchmark claims no gain
	Timed       []*timedResult  `json:"timed"`
	Traced      []*tracedResult `json:"traced"`
}

// runAll runs every workload timed, then traced, and writes out/result.json.
func runAll(seed int64, window time.Duration, out, tmp string) int {
	full := fullResult{Environment: currentEnvironment(seed)}
	code := 0
	for i := range workloads {
		w := &workloads[i]
		printHeader(w, full.Environment, "timed")
		res, err := runTimed(w, w.objects, seed, window, setupRounds, tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		res.print()
		full.Timed = append(full.Timed, res)
		printHeader(w, full.Environment, "traced")
		tr, err := runTraced(w, w.objects, seed, w.tracedUnits, window, out, tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		tr.print()
		full.Traced = append(full.Traced, tr)
		if !res.Correct || !tr.Correct {
			code = 1
		}
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if code != 0 {
		fmt.Println("FAILED: a correctness check did not pass")
	}
	return code
}
