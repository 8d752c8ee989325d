package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/seed"
)

// E10 measures wire protocol v2 (DESIGN.md section 9) on its two claims:
//
//   - Pipelining: request throughput on ONE connection as the number of
//     in-flight requests grows, against a lockstep baseline where each
//     request waits out a full round trip. The workload is a small OpGet,
//     so the numbers isolate protocol overhead, not payload cost.
//   - Server-side queries: latency of a by-class selection executed on the
//     server's indexed snapshot (OpQuery) against the only option without
//     it — download every subtree and filter locally.
//
// The database is in-memory: E10 measures the protocol layer, not fsync.

// PipelineWorkload sizes the E10 measurement.
type PipelineWorkload struct {
	Requests  int   // gets per throughput cell
	InFlight  []int // pipeline windows to sweep (1 compares protocol cost)
	Objects   int   // database size for the query comparison
	QueryReps int   // repetitions of each query-path measurement
}

// DefaultPipelineWorkload is the standard E10 size.
var DefaultPipelineWorkload = PipelineWorkload{
	Requests: 3000, InFlight: []int{1, 2, 4, 8, 16}, Objects: 10000, QueryReps: 10,
}

// ShortPipelineWorkload keeps the CI smoke run cheap.
var ShortPipelineWorkload = PipelineWorkload{
	Requests: 600, InFlight: []int{1, 8}, Objects: 2000, QueryReps: 3,
}

// E10RunStats is one (mode, in-flight) throughput cell.
type E10RunStats struct {
	Mode         string  `json:"mode"` // "lockstep" or "pipelined"
	InFlight     int     `json:"in_flight"`
	Requests     int     `json:"requests"`
	ElapsedNanos int64   `json:"elapsed_ns"`
	Throughput   float64 `json:"requests_per_sec"`
}

// E10Data is the BENCH_E10.json payload.
type E10Data struct {
	Experiment string        `json:"experiment"`
	GoVersion  string        `json:"go"`
	CPUs       int           `json:"cpus"`
	Objects    int           `json:"objects"`
	Runs       []E10RunStats `json:"runs"`
	// PipelineSpeedup8 compares pipelined throughput at 8 in-flight
	// requests against the lockstep baseline on the same connection — the
	// headline protocol number.
	PipelineSpeedup8 float64 `json:"pipeline_speedup_8"`
	// RemoteQueryNanos is the per-operation latency of a server-side
	// by-class query; GetFilterNanos is the same selection done without it
	// (download everything, filter locally).
	RemoteQueryNanos int64   `json:"remote_query_ns"`
	GetFilterNanos   int64   `json:"get_filter_ns"`
	QueryMatches     int     `json:"query_matches"`
	QuerySpeedup     float64 `json:"query_speedup_vs_get_filter"`
}

// e10DB builds the in-memory benchmark database: Objects independent
// objects, each with one Description value, every tenth an OutputData (the
// query target class), the rest plain Data.
func e10DB(objects int) (*seed.Database, error) {
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		return nil, err
	}
	for i := 0; i < objects; i++ {
		class, name := "Data", fmt.Sprintf("D%05d", i)
		if i%10 == 0 {
			class, name = "OutputData", fmt.Sprintf("O%05d", i)
		}
		id, err := db.CreateObject(class, name)
		if err != nil {
			db.Close()
			return nil, err
		}
		if _, err := db.CreateValueObject(id, "Description", seed.NewString(fmt.Sprintf("object %d", i))); err != nil {
			db.Close()
			return nil, err
		}
	}
	// The pipelining target: one bare object, so the measured op carries
	// the smallest meaningful payload and the numbers isolate the
	// protocol's round-trip economics.
	if _, err := db.CreateObject("Data", "Tiny"); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// lockstepGets is the one-in-flight baseline: raw v2 frames, one WriteFrame,
// one ReadFrame, strictly alternating — every request waits out the full
// round trip before the next leaves the client.
func lockstepGets(conn net.Conn, name string, total int) error {
	for i := 0; i < total; i++ {
		seq := uint64(i + 1)
		if err := wire.WriteFrame(conn, &wire.Request{Op: wire.OpGet, Seq: seq, Names: []string{name}}); err != nil {
			return err
		}
		var resp wire.Response
		if err := wire.ReadFrame(conn, &resp); err != nil {
			return err
		}
		if resp.Err != "" || resp.Seq != seq || len(resp.Snapshots) != 1 {
			return fmt.Errorf("bench: lockstep get answered %+v", &resp)
		}
	}
	return nil
}

// runGets drives total small gets over one v2 connection with up to window
// requests in flight.
func runGets(c *client.Client, name string, total, window int) error {
	if window <= 1 {
		for i := 0; i < total; i++ {
			if _, err := c.Get(name); err != nil {
				return err
			}
		}
		return nil
	}
	var queue []*client.Pending
	issued := 0
	for done := 0; done < total; done++ {
		for len(queue) < window && issued < total {
			p, err := c.Send(&wire.Request{Op: wire.OpGet, Names: []string{name}})
			if err != nil {
				return err
			}
			queue = append(queue, p)
			issued++
		}
		p := queue[0]
		queue = queue[1:]
		resp, err := p.Await()
		if err != nil {
			return err
		}
		if len(resp.Snapshots) != 1 {
			return fmt.Errorf("bench: get returned %d snapshots", len(resp.Snapshots))
		}
	}
	return nil
}

// E10 runs the standard workload.
func E10() *Result {
	r, _ := E10Stats(DefaultPipelineWorkload)
	return r
}

// E10Stats measures the pipeline sweep and the query-path comparison and
// returns the report plus the machine-readable data.
func E10Stats(w PipelineWorkload) (*Result, *E10Data) {
	r := &Result{Name: "E10: wire v2 — pipelined frames and server-side queries"}
	data := &E10Data{
		Experiment: "E10",
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Objects:    w.Objects,
	}
	db, err := e10DB(w.Objects)
	if err != nil {
		r.assert(false, "building database: %v", err)
		return r, data
	}
	defer db.Close()
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		r.assert(false, "listen: %v", err)
		return r, data
	}
	defer srv.Close()
	r.logf("workload: %d objects in-memory, %d gets per cell, one connection", w.Objects, w.Requests)

	// --- Pipelining sweep. The lockstep cell is harness-made: raw v2
	// frames on a bare socket, one in flight, strict alternation; the
	// pipelined cells use one client connection each.
	target := "Tiny"
	record := func(mode string, window int, elapsed time.Duration) float64 {
		st := E10RunStats{
			Mode: mode, InFlight: window, Requests: w.Requests,
			ElapsedNanos: int64(elapsed),
			Throughput:   float64(w.Requests) / elapsed.Seconds(),
		}
		data.Runs = append(data.Runs, st)
		r.logf("%-10s %2d in flight: %5d gets in %8v (%7.0f/s)",
			mode, window, st.Requests, elapsed.Round(time.Millisecond), st.Throughput)
		return st.Throughput
	}
	// Every cell is the best of three timed passes: on a small, loaded
	// container a single pass is dominated by scheduler noise, and the
	// minimum is the standard noise-free estimate for a CPU-bound cell.
	const passes = 3
	measureLockstep := func() (float64, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		if err := wire.WriteFrame(conn, &wire.Request{Op: wire.OpHello, Proto: wire.ProtoV2}); err != nil {
			return 0, err
		}
		var hello wire.Response
		if err := wire.ReadFrame(conn, &hello); err != nil {
			return 0, err
		}
		if err := lockstepGets(conn, target, w.Requests/10+1); err != nil { // warm-up
			return 0, err
		}
		best := time.Duration(0)
		for p := 0; p < passes; p++ {
			start := time.Now()
			if err := lockstepGets(conn, target, w.Requests); err != nil {
				return 0, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return record("lockstep", 1, best), nil
	}
	measurePipelined := func(window int) (float64, error) {
		c, err := client.Dial(addr)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if err := runGets(c, target, w.Requests/10+1, window); err != nil { // warm-up
			return 0, err
		}
		best := time.Duration(0)
		for p := 0; p < passes; p++ {
			start := time.Now()
			if err := runGets(c, target, w.Requests, window); err != nil {
				return 0, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return record("pipelined", window, best), nil
	}
	lockstep, err := measureLockstep()
	if err != nil {
		r.assert(false, "lockstep cell: %v", err)
		return r, data
	}
	var at8 float64
	for _, k := range w.InFlight {
		tp, err := measurePipelined(k)
		if err != nil {
			r.assert(false, "pipelined cell (%d): %v", k, err)
			return r, data
		}
		if k == 8 {
			at8 = tp
		}
	}
	if at8 == 0 && len(data.Runs) > 1 { // window sweep without an 8 cell
		at8 = data.Runs[len(data.Runs)-1].Throughput
	}
	data.PipelineSpeedup8 = at8 / lockstep
	r.assert(data.PipelineSpeedup8 >= 2,
		"pipelined v2 sustains >= 2x lockstep throughput at 8 in flight (%.1fx)", data.PipelineSpeedup8)

	// --- Server-side query vs get-and-filter-locally, same selection: all
	// OutputData objects by class.
	c, err := client.Dial(addr)
	if err != nil {
		r.assert(false, "dial: %v", err)
		return r, data
	}
	defer c.Close()
	wantMatches := (w.Objects + 9) / 10
	queryOnce := func() (int, error) {
		objs, _, err := c.Query(&wire.Query{Class: "OutputData", Specs: true})
		return len(objs), err
	}
	filterOnce := func() (int, error) {
		names, err := c.List("")
		if err != nil {
			return 0, err
		}
		snaps, err := c.Get(names...)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, s := range snaps {
			for _, o := range s.Objects {
				if o.Class == "OutputData" {
					n++
				}
			}
		}
		return n, nil
	}
	timeOp := func(op func() (int, error), reps int) (time.Duration, int, error) {
		if _, err := op(); err != nil { // warm-up
			return 0, 0, err
		}
		start := time.Now()
		n := 0
		for i := 0; i < reps; i++ {
			var err error
			if n, err = op(); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start) / time.Duration(reps), n, nil
	}
	qLat, qN, err := timeOp(queryOnce, w.QueryReps)
	if err != nil {
		r.assert(false, "remote query: %v", err)
		return r, data
	}
	fLat, fN, err := timeOp(filterOnce, w.QueryReps)
	if err != nil {
		r.assert(false, "get-and-filter: %v", err)
		return r, data
	}
	data.RemoteQueryNanos = int64(qLat)
	data.GetFilterNanos = int64(fLat)
	data.QueryMatches = qN
	data.QuerySpeedup = float64(fLat) / float64(qLat)
	r.logf("by-class selection, %d of %d objects:", qN, w.Objects)
	r.logf("remote query     %10v/op", qLat.Round(time.Microsecond))
	r.logf("get+filter local %10v/op (%.0fx slower)", fLat.Round(time.Microsecond), data.QuerySpeedup)
	r.assert(qN == wantMatches && fN == wantMatches,
		"both paths select the same %d objects (query %d, filter %d)", wantMatches, qN, fN)
	r.assert(fLat > qLat,
		"server-side query beats download-and-filter on by-class selection (%.0fx)", data.QuerySpeedup)
	return r, data
}
