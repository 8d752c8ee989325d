package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the contract the benchmark
// driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryMatchesBenchmarkJSON is the drift check: the names, units,
// directions and bounds in registry.go and in BENCHMARK.json are one list.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the registry %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, listed []jsonMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(listed), len(defs))
		}
		for i, def := range defs {
			if got := (metricDef{listed[i].Name, listed[i].Unit, listed[i].Better, listed[i].Bound}); got != def {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the registry %+v", kind, i, got, def)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

const (
	smokeObjects = 500
	smokeWindow  = 500 * time.Millisecond
	smokeUnits   = 100
)

// exactCounts are the traced-run metrics that must repeat bit for bit under
// one seed: they count bytes, rows and freezes, and time nothing.
var exactCounts = []string{
	"wal_bytes_per_unit", "wire.bytes_per_unit", "query.candidates_per_result", "core.freezes_per_unit",
	"query.plans.scan", "query.plans.name", "query.plans.class", "query.plans.attr-eq", "query.plans.attr-range",
}

// TestSmoke runs every workload small and short, timed and traced, and
// checks that each metric BENCHMARK.json names comes out finite, that every
// correctness check passes, and that a traced run repeated under the same
// seed repeats its exact counts.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			tmp := t.TempDir()
			res, err := runTimed(w, smokeObjects, 1, smokeWindow, 1, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("timed run: correct=%v attempted=%d failed=%d errors=%v checks=%+v",
					res.Correct, res.Attempted, res.Failed, res.Errors, res.Checks)
			}
			got := res.metrics()
			for _, def := range endToEnd {
				if v, ok := got[def.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || def.unit == "" {
					t.Errorf("end-to-end metric %s = %v (emitted %v, unit %q)", def.name, v, ok, def.unit)
				}
			}

			var runs [2]*tracedResult
			for r := range runs {
				if runs[r], err = runTraced(w, smokeObjects, 1, smokeUnits, time.Minute, tmp, tmp); err != nil {
					t.Fatal(err)
				}
				if !runs[r].Correct {
					t.Errorf("traced run: failed=%d errors=%v checks=%+v", runs[r].Failed, runs[r].Errors, runs[r].Checks)
				}
			}
			for _, def := range perLayer {
				if v, ok := runs[0].Metrics[def.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || def.unit == "" {
					t.Errorf("per-layer metric %s = %v (emitted %v, unit %q)", def.name, v, ok, def.unit)
				}
			}
			for _, name := range exactCounts {
				if a, b := runs[0].Metrics[name], runs[1].Metrics[name]; a != b {
					t.Errorf("%s: %v then %v under the same seed", name, a, b)
				}
			}
			var sum float64
			for _, row := range runs[0].Budget {
				sum += row.SelfUs
			}
			if math.Abs(sum-runs[0].RoundTripUs) > 1e-6*runs[0].RoundTripUs {
				t.Errorf("budget rows sum to %v us, the round trip is %v us", sum, runs[0].RoundTripUs)
			}
		})
	}
}

// TestSeedDeterminism: the op stream is a function of the seed alone.
func TestSeedDeterminism(t *testing.T) {
	d := newDataset(smokeObjects)
	for _, w := range workloads {
		a := opDigest(d, w.next, 1, clients, 200)
		if b := opDigest(d, w.next, 1, clients, 200); a != b {
			t.Errorf("%s: seed 1 digests %s then %s", w.name, a, b)
		}
		if b := opDigest(d, w.next, 2, clients, 200); a == b {
			t.Errorf("%s: seeds 1 and 2 share the digest %s", w.name, a)
		}
	}
}
