package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
)

// The timed run: tracing off, `clients` closed-loop clients, an untimed
// warm-up, then a measured window of fixed length. It yields the
// end-to-end metrics.

// recorder is one client's measurements. A unit belongs to the window when
// it completes inside it.
type recorder struct {
	t0, t1    time.Time // measured window
	sliceDur  time.Duration
	nSlices   int
	lat       []int64 // ns, successful units completed in the window, in completion order
	sliceAt   []int   // index in lat of the first unit of each slice begun so far
	worst     []int64 // ns, slowest unit per poll interval
	attempted int
	failed    int
	stale     int
	errs      []string       // first few failures, for the report
	acked     map[int]string // editable ref -> last acknowledged Description
	fatal     error          // transport failure: the client stopped early
}

func newRecorder(t0 time.Time, window time.Duration) *recorder {
	n := int(window / sliceLen)
	if n < 1 {
		n = 1
	}
	return &recorder{
		t0: t0, t1: t0.Add(window), sliceDur: window / time.Duration(n), nSlices: n,
		lat:   make([]int64, 0, 1<<20),
		worst: make([]int64, int(window/pollEvery)+2),
		acked: make(map[int]string),
	}
}

func (r *recorder) record(start, end time.Time, stale int, err error) {
	if end.Before(r.t0) || !end.Before(r.t1) {
		return
	}
	r.attempted++
	r.stale += stale
	if err != nil {
		r.failed++
		if len(r.errs) < 3 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	d := end.Sub(start)
	for k := int(end.Sub(r.t0) / r.sliceDur); len(r.sliceAt) <= k && len(r.sliceAt) < r.nSlices; {
		r.sliceAt = append(r.sliceAt, len(r.lat))
	}
	r.lat = append(r.lat, int64(d))
	if k := int(end.Sub(r.t0) / pollEvery); int64(d) > r.worst[k] {
		r.worst[k] = int64(d)
	}
}

// lockstep runs units one at a time until the window closes.
func (r *recorder) lockstep(e *env, g *gen, c *conn) {
	for time.Now().Before(r.t1) {
		u := e.w.next(g)
		start := time.Now()
		stale, err := runUnit(c, e.d, &u, nil)
		end := time.Now()
		if err == nil && u.root >= 0 {
			r.acked[u.root] = u.desc
		}
		r.record(start, end, stale, err)
		if err != nil && !unitFailure(err) {
			r.fatal = err
			return
		}
	}
}

// pipelined keeps window single-request units in flight on one connection;
// a unit's latency runs from its send to its reply.
func (r *recorder) pipelined(e *env, g *gen, c *conn, window int) {
	type flight struct {
		st    step
		p     *client.Pending
		start time.Time
	}
	ring := make([]flight, window)
	launch := func(f *flight) error {
		f.st = e.w.next(g).steps[0]
		f.start = time.Now()
		var err error
		_, f.p, err = c.send(&f.st)
		return err
	}
	for i := range ring {
		if r.fatal = launch(&ring[i]); r.fatal != nil {
			return
		}
	}
	live := window
	for i := 0; live > 0; i = (i + 1) % window {
		f := &ring[i]
		if f.p == nil {
			continue
		}
		resp, err := f.p.Await()
		end := time.Now()
		if err != nil && !unitFailure(err) {
			r.fatal = err
			return
		}
		if err == nil {
			err = check(e.d, &f.st, resp)
		}
		if err == nil && end.Sub(f.start) > unitTimeout {
			err = errTimeout
		}
		r.record(f.start, end, 0, err)
		f.p = nil
		live--
		if end.Before(r.t1) {
			if r.fatal = launch(f); r.fatal != nil {
				return
			}
			live++
		}
	}
}

// walFiles reads the write-ahead log's size and its oldest live segment
// off the database directory. Asking the database (Stats) would walk every
// item under its read lock — over a millisecond at 10 000 objects, during
// which no check-in can commit — so the benchmark looks at the files
// instead. Under SyncOnRequest the size trails the log by what the
// segment's 4 KiB write buffer still holds.
func walFiles(dir string) (size int64, oldest string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, ""
	}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "wal-") {
			continue
		}
		if info, err := ent.Info(); err == nil {
			size += info.Size()
		}
		if oldest == "" || name < oldest {
			oldest = name
		}
	}
	return size, oldest
}

// walPoller samples the primary's log files through the window. Bytes
// appended are the sum of the size's rises; a compaction shows as the
// oldest segment being retired, and the log restarts from a fresh tail.
type walPoller struct {
	bytes       int64
	compactions []int // poll intervals in which a compaction finished
}

func (p *walPoller) run(dir string, t0, t1 time.Time, done chan<- struct{}) {
	defer close(done)
	time.Sleep(time.Until(t0))
	prev, oldest := walFiles(dir)
	for k := 0; ; k++ {
		next := t0.Add(time.Duration(k+1) * pollEvery)
		if next.After(t1) {
			return
		}
		time.Sleep(time.Until(next))
		cur, first := walFiles(dir)
		if first != oldest {
			p.compactions = append(p.compactions, k)
			p.bytes += cur
		} else if cur > prev {
			p.bytes += cur - prev
		}
		prev, oldest = cur, first
	}
}

// timedResult is everything one timed run of one workload measured.
type timedResult struct {
	Workload string  `json:"workload"`
	Seconds  float64 `json:"measured_seconds"`
	Objects  int     `json:"objects"`
	Items    int     `json:"items"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	Throughput     float64   `json:"throughput_units_s"`
	ThroughputMean float64   `json:"throughput_mean_units_s"`
	Slices         []float64 `json:"throughput_slices_units_s"`
	Samples        int       `json:"latency_samples"`
	P50us          float64   `json:"p50_us"`
	P50Window      float64   `json:"p50_whole_window_us"`
	P99us          float64   `json:"tail.p99_us"`
	P99Beyond      int       `json:"tail.p99_samples_beyond"`
	HeapPerItem    float64   `json:"heap_bytes_per_item"`
	SetupS         float64   `json:"setup_s"`
	Setups         []float64 `json:"setup_s_rounds"`
	FailedShare    float64   `json:"failed_share"`

	WALBytesPerUnit float64 `json:"wal_bytes_per_unit"`
	Compactions     int     `json:"storage.compactions"`
	StallMs         float64 `json:"storage.compaction_stall_ms"`
	StalePerUnit    float64 `json:"follower.stale_reads_per_unit"`
	Resyncs         uint64  `json:"follower.resyncs"`

	Checks  []checkResult `json:"checks"`
	Correct bool          `json:"correct"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checked turns a check's outcome into its result line.
func checked(name string, err error) checkResult {
	if err != nil {
		return checkResult{Name: name, Detail: err.Error()}
	}
	return checkResult{Name: name, OK: true}
}

func allOK(checks []checkResult) bool {
	for _, c := range checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// slice returns the latencies of the units r completed in slice k.
func (r *recorder) slice(k int) []int64 {
	if k >= len(r.sliceAt) {
		return nil
	}
	if k+1 < len(r.sliceAt) {
		return r.lat[r.sliceAt[k]:r.sliceAt[k+1]]
	}
	return r.lat[r.sliceAt[k]:]
}

// runTimed sets the workload up `rounds` times — half of them before the
// window, the last of those being the one measured on, the rest after it,
// so that a burst of stolen CPU cannot slow every set-up of a run — runs
// the clients, and checks what they left behind.
func runTimed(w *workload, objects int, seed int64, window time.Duration, rounds int, tmp string) (*timedResult, error) {
	res := &timedResult{Workload: w.name, Seconds: window.Seconds(), Objects: objects}
	var heaps []float64
	round := func() (*env, error) {
		e, err := setUp(w, objects, clients, tmp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.Setups = append(res.Setups, e.setup.Seconds())
		heaps = append(heaps, float64(e.heapBytes)/float64(e.items))
		return e, nil
	}
	var e *env
	before := (rounds + 1) / 2
	for r := 0; r < before; r++ {
		if e != nil {
			e.tearDown()
		}
		var err error
		if e, err = round(); err != nil {
			return nil, err
		}
	}
	defer e.tearDown()
	res.Items = e.items

	t0 := time.Now().Add(warmup)
	if window < warmup {
		t0 = time.Now().Add(window / 2) // smoke runs: keep the warm-up in proportion
	}
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = newRecorder(t0, window)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := newGen(e.d, seed, i, clients)
			if w.window > 1 {
				recs[i].pipelined(e, g, e.conns[i], w.window)
			} else {
				recs[i].lockstep(e, g, e.conns[i])
			}
		}(i)
	}
	var poll walPoller
	polled := make(chan struct{})
	if w.fileBacked {
		go poll.run(e.dir, t0, t0.Add(window), polled)
	} else {
		close(polled)
	}
	// A hung server must not hang the benchmark: past the deadline, cut
	// the connections so every waiting client fails and returns.
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Until(t0.Add(window)) + 30*time.Second):
		for _, c := range e.conns {
			c.primary.Close()
			c.reader.Close()
		}
		<-finished
		res.Checks = append(res.Checks, checkResult{Name: "finished_in_time", Detail: "clients still running 30 s after the window"})
	}
	<-polled

	res.summarize(recs, &poll)
	res.postChecks(e, recs)
	e.tearDown()
	for r := before; r < rounds; r++ {
		again, err := round()
		if err != nil {
			return nil, err
		}
		again.tearDown()
	}
	res.SetupS, res.HeapPerItem = median(res.Setups), median(heaps)
	res.Correct = res.Failed == 0 && allOK(res.Checks)
	return res, nil
}

func (res *timedResult) summarize(recs []*recorder, poll *walPoller) {
	var lat []int64
	stale := 0
	for i, r := range recs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Errors = append(res.Errors, r.errs...)
		stale += r.stale
		lat = append(lat, r.lat...)
		if r.fatal != nil {
			res.Checks = append(res.Checks, checkResult{Name: fmt.Sprintf("client_%d_connection", i), Detail: r.fatal.Error()})
		}
	}
	// Throughput and the median latency are taken per slice, and the run's
	// figure is the median of the better half of the slices: the upper
	// quartile of the rates, the lower quartile of the latencies. What
	// disturbs a slice from outside — CPU stolen from the sandbox by its
	// neighbours — only ever makes it slower, so the better half is the
	// half to trust; a burst leaves the figure alone as long as it spoils
	// fewer than half of the slices.
	var p50s []float64
	for k := 0; k < recs[0].nSlices; k++ {
		var in []int64
		for _, r := range recs {
			in = append(in, r.slice(k)...)
		}
		res.Slices = append(res.Slices, float64(len(in))/recs[0].sliceDur.Seconds())
		if len(in) > 0 {
			slices.Sort(in)
			p50s = append(p50s, float64(in[len(in)/2])/1e3)
		}
	}
	slices.Sort(lat)
	res.Samples = len(lat)
	res.Throughput = quantile(res.Slices, 0.75)
	res.ThroughputMean = float64(len(lat)) / res.Seconds
	res.P50us = quantile(p50s, 0.25)
	if n := len(lat); n > 0 {
		res.P50Window = float64(lat[n/2]) / 1e3
		res.P99us = float64(lat[n*99/100]) / 1e3
		res.P99Beyond = n - 1 - n*99/100
	}
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
		res.StalePerUnit = float64(stale) / float64(res.Attempted)
		res.WALBytesPerUnit = float64(poll.bytes) / float64(res.Attempted)
	}
	res.Compactions = len(poll.compactions)
	// A unit stalled by a compaction completes in the poll interval that
	// saw the log shrink, or just after it.
	for _, k := range poll.compactions {
		for _, r := range recs {
			for j := k; j <= k+1 && j < len(r.worst); j++ {
				if ms := float64(r.worst[j]) / 1e6; ms > res.StallMs {
					res.StallMs = ms
				}
			}
		}
	}
}
