package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/seed"
)

// E13 measures the value-predicate secondary indexes and the cost-based
// planner (DESIGN.md section 14): equality and range predicate queries at
// each database size, once letting the planner pick its access path and
// once with the scan path forced, in the same process. The numbers are
// exported as BENCH_E13.json by cmd/seedbench; CI runs the short workload
// and gates only the structural claims (the planner actually chose the
// attribute indexes, and indexed execution beat the forced scan at the
// largest size) plus a lenient flatness bound on indexed latency growth,
// because absolute wall-clock ratios flake across machines — the committed
// artifact records the measured speedups.

// PredicateWorkload sizes the E13 planner comparison.
type PredicateWorkload struct {
	Sizes     []int   // total objects per measured database
	Hits      int     // objects matching each predicate (fixed across sizes)
	QueryReps int     // repetitions of each query measurement
	MaxGrowth float64 // gated ceiling on indexed latency largest/smallest size
}

// DefaultPredicateWorkload is the standard E13 size ladder: two orders of
// magnitude of growth under a fixed result set. Indexed latency may grow
// with the log factor and cache effects but must stay far from linear; a
// 100x data growth is allowed at most 10x indexed latency growth.
var DefaultPredicateWorkload = PredicateWorkload{
	Sizes: []int{1000, 10000, 100000}, Hits: 64, QueryReps: 30, MaxGrowth: 10.0,
}

// ShortPredicateWorkload keeps the CI smoke run cheap; tiny runs are noisy,
// so the growth gate is loosened to a sanity bound.
var ShortPredicateWorkload = PredicateWorkload{
	Sizes: []int{500, 5000}, Hits: 16, QueryReps: 6, MaxGrowth: 20.0,
}

// E13SizeStats compares planned against forced-scan execution of the same
// two predicate queries at one database size. Speedups above 1.0 mean the
// planner's chosen path beat the scan.
type E13SizeStats struct {
	Objects           int     `json:"objects"`
	EqAccess          string  `json:"eq_access"`    // access path the planner chose
	RangeAccess       string  `json:"range_access"` // access path the planner chose
	IndexedEqNanos    int64   `json:"indexed_eq_ns"`
	IndexedRangeNanos int64   `json:"indexed_range_ns"`
	ScanEqNanos       int64   `json:"scan_eq_ns"`
	ScanRangeNanos    int64   `json:"scan_range_ns"`
	EqSpeedup         float64 `json:"eq_speedup"`    // scan / indexed
	RangeSpeedup      float64 `json:"range_speedup"` // scan / indexed
}

// E13Data is the BENCH_E13.json payload.
type E13Data struct {
	Experiment string         `json:"experiment"`
	GoVersion  string         `json:"go"`
	CPUs       int            `json:"cpus"`
	Hits       int            `json:"hits"`
	QueryReps  int            `json:"query_reps"`
	Sizes      []E13SizeStats `json:"sizes"`
}

// buildPredicateDB populates a database of n objects where exactly
// hits Data objects carry the needle Description and a Revised date at or
// after the range cut; every other object carries hay values. The dataset
// has no patterns or inheritance, so the user view splices nothing virtual
// and the attribute indexes stay eligible. Both indexes are registered
// before population, exercising the incremental per-generation maintenance
// path at full scale rather than the bulk build.
func buildPredicateDB(n, hits int) *seed.Database {
	db := mustDB()
	if err := db.CreateAttrIndex("Data", "Description", seed.AttrHash); err != nil {
		panic(err)
	}
	if err := db.CreateAttrIndex("Data", "Revised", seed.AttrOrdered); err != nil {
		panic(err)
	}
	classes := []string{"Data", "InputData", "Thing", "Action"}
	hay := e13RangeCut().AddDate(-10, 0, 0)
	for i := 0; i < n; i++ {
		class := classes[i%len(classes)]
		desc, revised := fmt.Sprintf("hay-%d", i), hay
		if i < hits {
			class = "Data"
			desc = "needle"
			revised = e13RangeCut().AddDate(0, 0, i)
		}
		id, err := db.CreateObject(class, fmt.Sprintf("Obj%06d", i))
		if err != nil {
			panic(err)
		}
		if _, err := db.CreateValueObject(id, "Description", seed.NewString(desc)); err != nil {
			panic(err)
		}
		if _, err := db.CreateValueObject(id, "Revised", seed.NewDate(revised)); err != nil {
			panic(err)
		}
	}
	return db
}

// e13RangeCut is the date boundary separating hit from hay Revised values.
func e13RangeCut() time.Time {
	return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
}

// e13EqQuery selects the hit set by Description equality.
func e13EqQuery() *seed.Query {
	return seed.NewQuery().Class("Data", false).
		Where("Description", seed.Eq, seed.NewString("needle"))
}

// e13RangeQuery selects the hit set by Revised date range.
func e13RangeQuery() *seed.Query {
	return seed.NewQuery().Class("Data", false).
		Where("Revised", seed.Ge, seed.NewDate(e13RangeCut()))
}

// measurePlanned times one query under the given forced access (AccessAuto
// lets the planner choose) and reports the executed plan. One untimed
// warm-up rep precedes the clock: the first read of a generation pays the
// one-time freeze of the attribute indexes (an O(n) cost the snapshot
// amortizes), and E13's claim is about
// the steady-state query latency after it.
func measurePlanned(v seed.View, mk func() *seed.Query, force seed.Access, hits, reps int) (time.Duration, *seed.Plan, error) {
	var plan *seed.Plan
	start := time.Now()
	for i := -1; i < reps; i++ {
		if i == 0 {
			start = time.Now()
		}
		ids, p, err := seed.RunPlan(mk().Force(force), v)
		if err != nil {
			return 0, nil, err
		}
		if len(ids) != hits {
			return 0, nil, fmt.Errorf("query found %d of %d", len(ids), hits)
		}
		plan = p
	}
	return time.Duration(int64(time.Since(start)) / int64(reps)), plan, nil
}

// measurePredicates runs the full E13 measurement at one database size.
func measurePredicates(w PredicateWorkload, n int) (E13SizeStats, error) {
	st := E13SizeStats{Objects: n}
	db := buildPredicateDB(n, w.Hits)
	defer db.Close()
	v := db.View()

	for _, m := range []struct {
		mk                      func() *seed.Query
		access                  *string
		indexedNanos, scanNanos *int64
	}{
		{e13EqQuery, &st.EqAccess, &st.IndexedEqNanos, &st.ScanEqNanos},
		{e13RangeQuery, &st.RangeAccess, &st.IndexedRangeNanos, &st.ScanRangeNanos},
	} {
		indexed, plan, err := measurePlanned(v, m.mk, seed.AccessAuto, w.Hits, w.QueryReps)
		if err != nil {
			return st, err
		}
		*m.access = plan.Access.String()
		*m.indexedNanos = int64(indexed)
		scan, _, err := measurePlanned(v, m.mk, seed.AccessScan, w.Hits, w.QueryReps)
		if err != nil {
			return st, err
		}
		*m.scanNanos = int64(scan)
	}
	st.EqSpeedup = float64(st.ScanEqNanos) / float64(st.IndexedEqNanos)
	st.RangeSpeedup = float64(st.ScanRangeNanos) / float64(st.IndexedRangeNanos)
	return st, nil
}

// E13 runs the standard workload.
func E13() *Result {
	r, _ := E13Stats(DefaultPredicateWorkload)
	return r
}

// E13Stats runs the planned-vs-scan predicate comparison for every database
// size and returns both the report and the machine-readable data.
func E13Stats(w PredicateWorkload) (*Result, *E13Data) {
	r := &Result{Name: "E13: attribute indexes — cost-based planning vs linear scan"}
	data := &E13Data{
		Experiment: "E13",
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Hits:       w.Hits,
		QueryReps:  w.QueryReps,
	}
	r.logf("workload: %d-hit equality and range predicates x%d reps per size", w.Hits, w.QueryReps)
	for _, n := range w.Sizes {
		st, err := measurePredicates(w, n)
		if err != nil {
			r.assert(false, "%7d objects: %v", n, err)
			return r, data
		}
		data.Sizes = append(data.Sizes, st)
		r.logf("%7d objects: eq %8v via %-10s vs scan %8v (%5.1fx); "+
			"range %8v via %-10s vs scan %8v (%5.1fx)",
			n, time.Duration(st.IndexedEqNanos), st.EqAccess,
			time.Duration(st.ScanEqNanos), st.EqSpeedup,
			time.Duration(st.IndexedRangeNanos), st.RangeAccess,
			time.Duration(st.ScanRangeNanos), st.RangeSpeedup)
	}
	first, last := data.Sizes[0], data.Sizes[len(data.Sizes)-1]
	r.assert(last.EqAccess == "attr-eq",
		"planner chose the hash index for equality at %d objects (%s)", last.Objects, last.EqAccess)
	r.assert(last.RangeAccess == "attr-range",
		"planner chose the ordered index for the range at %d objects (%s)", last.Objects, last.RangeAccess)
	r.assert(last.EqSpeedup > 1.0,
		"indexed equality beat the forced scan at %d objects (%.1fx)", last.Objects, last.EqSpeedup)
	r.assert(last.RangeSpeedup > 1.0,
		"indexed range beat the forced scan at %d objects (%.1fx)", last.Objects, last.RangeSpeedup)
	growth := float64(last.IndexedEqNanos) / float64(first.IndexedEqNanos)
	r.assert(growth <= w.MaxGrowth,
		"indexed equality latency stayed near-flat from %d to %d objects (%.1fx <= %.1fx)",
		first.Objects, last.Objects, growth, w.MaxGrowth)
	return r, data
}
