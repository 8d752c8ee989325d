package bench

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/seed"
)

// E9 measures the concurrent lock-scoped check-in path (DESIGN.md section
// 8): check-in throughput against writer count on disjoint lock sets, once
// serialized (the harness holds one mutex around every check-in, the
// critical section of the global write gate the server used to have) and
// once with concurrent check-ins whose commits coalesce into shared fsyncs
// in the group-commit write-ahead log. The database is file-backed with
// SyncGroupCommit, so every check-in pays for real durability — exactly the
// cost the serialized gate forces each writer to wait out one at a time.
// Numbers are reported (and exported as BENCH_E9.json by cmd/seedbench); CI
// only gates that concurrency helps at all, because absolute wall-clock
// ratios flake across machines.

// CheckinWorkload sizes the E9 writer-scaling measurement.
type CheckinWorkload struct {
	Writers     []int // writer-client counts to sweep
	CheckinsPer int   // check-ins per writer at each width
}

// DefaultCheckinWorkload is the standard E9 size.
var DefaultCheckinWorkload = CheckinWorkload{Writers: []int{1, 2, 4, 8, 16}, CheckinsPer: 50}

// ShortCheckinWorkload keeps the CI smoke run cheap.
var ShortCheckinWorkload = CheckinWorkload{Writers: []int{1, 2, 4}, CheckinsPer: 12}

// E9RunStats is the machine-readable result of one (mode, writers) cell.
type E9RunStats struct {
	Mode         string  `json:"mode"` // "serialized" or "concurrent"
	Writers      int     `json:"writers"`
	Checkins     int     `json:"checkins"`
	ElapsedNanos int64   `json:"elapsed_ns"`
	Throughput   float64 `json:"checkins_per_sec"`
}

// E9Data is the BENCH_E9.json payload.
type E9Data struct {
	Experiment        string       `json:"experiment"`
	GoVersion         string       `json:"go"`
	CPUs              int          `json:"cpus"`
	CheckinsPerWriter int          `json:"checkins_per_writer"`
	Runs              []E9RunStats `json:"runs"`
	// SpeedupVsSerialized4W compares concurrent against serialized
	// throughput at 4 writers — the headline writer-scaling number.
	SpeedupVsSerialized4W float64 `json:"speedup_vs_serialized_4w"`
	// ConcurrentScaling4W compares concurrent throughput at 4 writers
	// against 1 writer: does adding writers add throughput at all?
	ConcurrentScaling4W float64 `json:"concurrent_scaling_4w"`
}

// runCheckinWave drives n writer clients against disjoint roots Obj0..n-1,
// each performing per checkout→update→check-in cycles, and returns the
// elapsed wall time. A non-nil gate is held around every check-in round
// trip: the serialized baseline, one check-in at a time through its durable
// commit — the critical section of the server's retired global write gate,
// taken client side.
func runCheckinWave(addr string, n, per int, gate *sync.Mutex) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			name := fmt.Sprintf("Obj%d", w)
			for i := 0; i < per; i++ {
				ws, err := c.Checkout(name)
				if err != nil {
					errs[w] = fmt.Errorf("writer %d checkout %d: %w", w, i, err)
					return
				}
				ws.SetValue(name+".Description", uint8(seed.KindString), fmt.Sprintf("w%d-i%d", w, i))
				if gate != nil {
					gate.Lock()
				}
				err = ws.Commit()
				if gate != nil {
					gate.Unlock()
				}
				if err != nil {
					errs[w] = fmt.Errorf("writer %d checkin %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// measureCheckins runs one (mode, writers) cell against a fresh file-backed
// database under SyncGroupCommit.
func measureCheckins(serialized bool, writers, per int) (E9RunStats, error) {
	mode := "concurrent"
	var gate *sync.Mutex
	if serialized {
		mode, gate = "serialized", new(sync.Mutex)
	}
	st := E9RunStats{Mode: mode, Writers: writers, Checkins: writers * per}
	runtime.GC() // keep earlier experiments' garbage out of this cell
	dir, err := os.MkdirTemp("", "seed-e9-*")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	db, err := seed.Open(dir, seed.Options{Schema: seed.Figure3Schema(), SyncPolicy: seed.SyncGroupCommit})
	if err != nil {
		return st, err
	}
	defer db.Close()
	for w := 0; w < writers; w++ {
		id, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", w))
		if err != nil {
			return st, err
		}
		if _, err := db.CreateValueObject(id, "Description", seed.NewString("init")); err != nil {
			return st, err
		}
	}
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return st, err
	}
	defer srv.Close()

	// Unmeasured warm-up: connection setup, first snapshot freeze, first
	// WAL fsyncs — none of it belongs to the steady-state number.
	if _, err := runCheckinWave(addr, writers, 3, gate); err != nil {
		return st, err
	}
	elapsed, err := runCheckinWave(addr, writers, per, gate)
	if err != nil {
		return st, err
	}
	st.ElapsedNanos = int64(elapsed)
	st.Throughput = float64(st.Checkins) / elapsed.Seconds()
	return st, nil
}

// E9 runs the standard workload.
func E9() *Result {
	r, _ := E9Stats(DefaultCheckinWorkload)
	return r
}

// E9Stats sweeps writer counts in both modes and returns the report plus
// the machine-readable data.
func E9Stats(w CheckinWorkload) (*Result, *E9Data) {
	r := &Result{Name: "E9: check-ins — lock-scoped concurrency vs the global write gate"}
	data := &E9Data{
		Experiment:        "E9",
		GoVersion:         runtime.Version(),
		CPUs:              runtime.NumCPU(),
		CheckinsPerWriter: w.CheckinsPer,
	}
	r.logf("workload: %d check-ins per writer, disjoint lock sets, file-backed, group-committed fsync per check-in",
		w.CheckinsPer)
	tp := map[string]map[int]float64{"serialized": {}, "concurrent": {}}
	for _, serialized := range []bool{true, false} {
		for _, n := range w.Writers {
			st, err := measureCheckins(serialized, n, w.CheckinsPer)
			if err != nil {
				r.assert(false, "%s, %d writers: %v", st.Mode, n, err)
				return r, data
			}
			data.Runs = append(data.Runs, st)
			tp[st.Mode][n] = st.Throughput
			r.logf("%-10s %d writers: %4d check-ins in %8v (%6.0f/s)",
				st.Mode, n, st.Checkins, time.Duration(st.ElapsedNanos).Round(time.Millisecond), st.Throughput)
		}
	}
	maxW := w.Writers[len(w.Writers)-1]
	pivot := 4
	if tp["concurrent"][pivot] == 0 {
		pivot = maxW
	}
	data.SpeedupVsSerialized4W = tp["concurrent"][pivot] / tp["serialized"][pivot]
	data.ConcurrentScaling4W = tp["concurrent"][pivot] / tp["concurrent"][w.Writers[0]]
	r.logf("at %d writers: concurrent %.1fx over the serialized gate; %.1fx over 1 concurrent writer",
		pivot, data.SpeedupVsSerialized4W, data.ConcurrentScaling4W)
	if maxW != pivot {
		r.logf("at %d writers: concurrent %.1fx over the serialized gate",
			maxW, tp["concurrent"][maxW]/tp["serialized"][maxW])
	}
	// The measured writer scaling (≥2x over the gate at high writer
	// counts; the 4-writer ratio grows with fsync latency) is recorded in
	// EXPERIMENTS.md and BENCH_E9.json. Wall-clock ratios are reported,
	// not gated — on a noisy 1-CPU container the concurrent/serialized
	// ratio at a single width jitters across runs — so the in-repo
	// assertion only rejects a catastrophic regression: retiring the gate
	// must never cost meaningful throughput at full width.
	floor := 0.7 * tp["serialized"][maxW]
	r.assert(tp["concurrent"][maxW] >= floor,
		"concurrent check-ins at %d writers within noise of or above the serialized gate (%.1fx)",
		maxW, tp["concurrent"][maxW]/tp["serialized"][maxW])
	return r, data
}
