package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
	"repro/seed"
)

// The traced run: one client in lockstep, a fixed number of units from the
// same seed, so every count repeats exactly. All spans are recorded here, in
// the benchmark, around calls into each layer's public functions; nothing
// inside the program is instrumented.
//
// For every request the live pass records a root span client.roundtrip
// around the real call over loopback and keeps the request and its reply.
// Once the pass is over, the run replays every request in order, layer by
// layer — the wire codec on the request and reply frames, the read, query,
// transaction and freeze on a shadow database that thereby goes through the
// same states as the served one, the log append on a scratch store — and
// records each replay as a child span of its root. What the children do not
// cover is server.residual: admission, dispatch, the lock table, snapshotOf,
// the connection writer, loopback and client demux.
//
// Replaying after the pass, not between requests, keeps the live pass a
// tight request-reply loop like the untraced one: a millisecond of replay
// between two requests lets the server's goroutines go idle, and their
// wake-up then shows up as round-trip time that no untraced client pays.

// span is one timed interval. Children of a root are replays: they run
// after the live pass, one after another, so a root's child coverage is the
// sum of its children's durations and its self time is what they leave.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Request uint64 `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the start of the traced run
	End     int64  `json:"end_ns"`
	Replay  bool   `json:"replay,omitempty"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(parent, request uint64, layer, name string, start, end time.Time) uint64 {
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Layer: layer, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Replay: parent != 0,
	})
	return id
}

// selfTimes returns each span's duration minus the time its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceRun is the state of one traced run.
type traceRun struct {
	e  *env
	tr tracer

	shadow  *seed.Database // same data, same edits, never served
	scratch *storage.Store // takes the replayed log appends, under the workload's sync policy
	dirs    []string

	frame bytes.Buffer // codec replay: frames are written here and read back
	fw    *wire.Writer
	fr    *wire.Reader

	exchanges []exchange // the live pass, in order
	requests  uint64     // non-stale requests replayed so far; also the replayed frames' Seq
	dirty     bool       // the shadow has a commit no read has frozen yet
	journal   int64      // shadow's log size after the previous check-in
	oldest    string     // served database's oldest live log segment
	ack       time.Time  // when the last check-in was acknowledged

	frameBytes  int64
	walBytes    int64
	candidates  int
	matched     int
	plans       map[string]int
	freezes     int
	compactions int
	stall       time.Duration
	lag         time.Duration
	lagged      int
	drift       error // first disagreement between the shadow and the served database
}

func newTraceRun(e *env, tmp string) (*traceRun, error) {
	t := &traceRun{e: e, plans: make(map[string]int)}
	t.fw, t.fr = wire.NewWriter(&t.frame), wire.NewReader(&t.frame)
	var err error
	if !e.w.fileBacked {
		if t.shadow, err = seed.NewMemory(seed.Figure3Schema()); err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < 2; i++ {
			dir, err := os.MkdirTemp(tmp, "shadow-")
			if err != nil {
				return nil, err
			}
			t.dirs = append(t.dirs, dir)
		}
		if t.shadow, err = seed.Open(t.dirs[0], seed.Options{Schema: seed.Figure3Schema()}); err != nil {
			return nil, err
		}
		if t.scratch, err = storage.Open(t.dirs[1], nil, storage.Options{SyncPolicy: e.w.policy}); err != nil {
			return nil, err
		}
		_, t.oldest = walFiles(e.dir)
	}
	if err := e.d.populate(t.shadow); err != nil {
		return nil, err
	}
	if err := t.shadow.Compact(); err != nil {
		return nil, err
	}
	if err := declareIndexes(t.shadow); err != nil {
		return nil, err
	}
	t.shadow.View() // the served database froze its populated state during set-up
	t.journal = t.shadow.Stats().LogBytes
	return t, nil
}

func (t *traceRun) close() {
	if t.shadow != nil {
		t.shadow.Close()
	}
	if t.scratch != nil {
		t.scratch.Close()
	}
	for _, dir := range t.dirs {
		os.RemoveAll(dir)
	}
}

// replay times fn as a child span of root.
func (t *traceRun) replay(root uint64, layer, name string, fn func()) {
	start := time.Now()
	fn()
	t.tr.add(root, t.requests, layer, name, start, time.Now())
}

func (t *traceRun) noteDrift(format string, args ...any) {
	if t.drift == nil {
		t.drift = fmt.Errorf(format, args...)
	}
}

// exchange is one request of the live pass with its reply and timing.
type exchange struct {
	req        *wire.Request
	resp       *wire.Response
	start, end time.Time
	stale      bool // a read-back poll that came before the follower had the edit
	readBack   bool
	compacted  bool // a check-in that retired the served log's oldest segment
}

// observe keeps one request of the live pass for the replay. The one thing
// it looks at right away is whether a check-in tripped a compaction: the
// log files cannot be asked later.
func (t *traceRun) observe(st *step, req *wire.Request, resp *wire.Response, start, end time.Time, stale bool) {
	x := exchange{req: req, resp: resp, start: start, end: end, stale: stale, readBack: st.readBack}
	if req.Op == wire.OpCheckin && t.e.dir != "" {
		if _, oldest := walFiles(t.e.dir); oldest != t.oldest {
			t.oldest, x.compacted = oldest, true
		}
	}
	t.exchanges = append(t.exchanges, x)
}

// replayAll turns the live pass into spans: a root per exchange, and under
// it the replays of what the request made each layer do.
func (t *traceRun) replayAll() {
	for i := range t.exchanges {
		t.replayOne(&t.exchanges[i])
	}
}

func (t *traceRun) replayOne(x *exchange) {
	if x.stale {
		// A poll that came too early is time spent waiting for the
		// follower; there is nothing to attribute it to below.
		t.tr.add(0, t.requests, "follower", "client.roundtrip.stale", x.start, x.end)
		return
	}
	t.requests++
	root := t.tr.add(0, t.requests, "client", "client.roundtrip", x.start, x.end)

	// Renumbered so that follower polls cannot change how many digits a
	// later frame's Seq has: frame bytes must repeat exactly.
	rq, rp := *x.req, *x.resp
	rq.Seq, rp.Seq = t.requests, t.requests
	t.replay(root, "wire", "wire.encode", func() { _ = t.fw.Write(&rq) })
	t.frameBytes += int64(t.frame.Len())
	t.replay(root, "wire", "wire.decode", func() { _ = t.fr.Read(&wire.Request{}) })
	t.replay(root, "wire", "wire.encode", func() { _ = t.fw.Write(&rp) })
	t.frameBytes += int64(t.frame.Len())
	t.replay(root, "wire", "wire.decode", func() { _ = t.fr.Read(&wire.Response{}) })

	switch x.req.Op {
	case wire.OpGet, wire.OpCheckout:
		t.freezeIfDirty(root)
		t.replay(root, "seed", "seed.read", func() {
			v := t.shadow.View()
			for _, name := range x.req.Names {
				readRoot(v, name)
			}
		})
		if x.readBack {
			t.lag += x.end.Sub(t.ack)
			t.lagged++
		}
	case wire.OpQuery:
		t.freezeIfDirty(root)
		var plan *seed.Plan
		var err error
		t.replay(root, "query", "query.run", func() { plan, err = runQuery(t.shadow.View(), x.req.Query) })
		served := x.resp.Plan
		if served == nil || err != nil || plan.Access.String() != served.Access || plan.Candidates != served.Candidates {
			t.noteDrift("query %+v: served plan %+v, shadow plan %v (%v)", *x.req.Query, served, plan, err)
			return
		}
		t.plans[served.Access]++
		t.candidates += served.Candidates
		t.matched += served.Matched
	case wire.OpCheckin:
		t.ack = x.end
		t.checkin(root, x)
	default:
		t.noteDrift("op %s is not one the generator emits", x.req.Op)
	}
}

// freezeIfDirty replays the copy-on-write freeze a check-in leaves to the
// first reader after it: the first View of the new generation.
func (t *traceRun) freezeIfDirty(root uint64) {
	if !t.dirty {
		return
	}
	t.dirty = false
	t.freezes++
	t.replay(root, "core", "core.freeze", func() { t.shadow.View() })
}

// checkin replays a check-in: the transaction on the shadow, then the log
// append of as many bytes as the transaction journaled on the scratch store.
// The shadow never compacts, so its log's growth is exactly what the
// check-in appended to the served log as well.
func (t *traceRun) checkin(root uint64, x *exchange) {
	var err error
	t.replay(root, "seed", "seed.tx", func() { err = applyCheckin(t.shadow, x.req.Updates) })
	if err != nil {
		t.noteDrift("check-in of %v on the shadow: %v", x.req.Names, err)
		return
	}
	t.dirty = true
	now := t.shadow.Stats().LogBytes
	payload := make([]byte, now-t.journal)
	t.walBytes += now - t.journal
	t.journal = now
	t.replay(root, "storage", "storage.commit", func() { err = t.scratch.Append(payload) })
	if err != nil {
		t.noteDrift("scratch store append: %v", err)
	}
	if x.compacted {
		t.compactions++
		if latency := x.end.Sub(x.start); latency > t.stall {
			t.stall = latency
		}
	}
}

// readRoot walks what one Get reads: the root by name, its subtree, its
// relationships.
func readRoot(v seed.View, name string) {
	root, ok := v.ObjectByName(name)
	if !ok {
		return
	}
	var walk func(id seed.ID)
	walk = func(id seed.ID) {
		if _, ok := v.Object(id); !ok {
			return
		}
		for _, ch := range v.Children(id, "") {
			walk(ch)
		}
	}
	walk(root)
	for _, rid := range v.RelationshipsOf(root) {
		v.Relationship(rid)
	}
}

// runQuery evaluates a wire query through the public query API, the way
// the server's query handler does.
func runQuery(v seed.View, wq *wire.Query) (*seed.Plan, error) {
	q := seed.NewQuery()
	if wq.Class != "" {
		q = q.Class(wq.Class, wq.Specs)
	}
	if wq.NameGlob != "" {
		q = q.NameGlob(wq.NameGlob)
	}
	for _, w := range wq.Where {
		op, err := seed.ParseCompareOp(w.Op)
		if err != nil {
			return nil, err
		}
		val, err := seed.ParseValue(seed.Kind(w.ValueKind), w.Value)
		if err != nil {
			return nil, err
		}
		q = q.Where(w.Path, op, val)
	}
	ids, plan, err := seed.RunPlan(q, v)
	if err != nil {
		return nil, err
	}
	steps := make([]seed.FollowStep, len(wq.Follow))
	for i, f := range wq.Follow {
		steps[i] = seed.FollowStep{Assoc: f.Assoc, From: f.From, To: f.To}
	}
	_, _, err = seed.FollowPage(v, ids, steps, wq.Limit, wq.Offset)
	return plan, err
}

// applyCheckin stages the update kinds the generator emits in one
// transaction and commits it.
func applyCheckin(db *seed.Database, updates []wire.Update) error {
	tx, err := db.BeginTx()
	if err != nil {
		return err
	}
	defer tx.Rollback() // no-op once committed
	for _, u := range updates {
		id, err := tx.ResolvePath(u.Path)
		if err != nil {
			return err
		}
		var val seed.Value
		if u.ValueKind != 0 {
			if val, err = seed.ParseValue(seed.Kind(u.ValueKind), u.Value); err != nil {
				return err
			}
		}
		switch {
		case u.Kind == wire.UpdateSetValue:
			err = tx.SetValue(id, val)
		case u.Kind == wire.UpdateDelete:
			err = tx.Delete(id)
		case u.Kind == wire.UpdateCreateSub && u.ValueKind != 0:
			_, err = tx.CreateValueObject(id, u.Role, val)
		case u.Kind == wire.UpdateCreateSub:
			_, err = tx.CreateSubObject(id, u.Role)
		default:
			err = fmt.Errorf("update kind %q is not one the generator emits", u.Kind)
		}
		if err != nil {
			return err
		}
	}
	return tx.Commit()
}

// budgetRow is one line of the per-layer budget.
type budgetRow struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us_per_unit"`
	Share  float64 `json:"share"`
}

// tracedResult is everything one traced run of one workload measured.
type tracedResult struct {
	Workload  string   `json:"workload"`
	Units     int      `json:"units"`
	Truncated bool     `json:"truncated"` // the traced pass hit its time limit before its unit count
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	OpDigest  string   `json:"op_digest"`

	Metrics     map[string]float64 `json:"metrics"`
	Budget      []budgetRow        `json:"budget"`
	RoundTripUs float64            `json:"round_trip_us_per_unit"`
	TracedRate  float64            `json:"traced_units_s"`
	PlainRate   float64            `json:"untraced_units_s"`
	ReplayS     float64            `json:"replay_s"`
	Spans       int                `json:"spans"`
	TraceFile   string             `json:"trace_file"`

	Checks  []checkResult `json:"checks"`
	Correct bool          `json:"correct"`
}

// budgetLayers are the rows of the budget, in pipeline order.
var budgetLayers = []string{"wire.codec", "seed.read", "query.run", "seed.tx", "storage.commit", "core.freeze", "follower.wait", "server.residual"}

func budgetLayerOf(s span) string {
	switch s.Name {
	case "wire.encode", "wire.decode":
		return "wire.codec"
	case "client.roundtrip":
		return "server.residual"
	case "client.roundtrip.stale":
		return "follower.wait"
	}
	return s.Name
}

// runTraced runs units units of w traced, then as many untraced on the
// same connection for the overhead figure, and checks the state left.
// Neither pass runs longer than limit.
func runTraced(w *workload, objects int, seed int64, units int, limit time.Duration, out, tmp string) (*tracedResult, error) {
	e, err := setUp(w, objects, 1, tmp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer e.tearDown()
	t, err := newTraceRun(e, tmp)
	if err != nil {
		return nil, fmt.Errorf("%s: shadow: %w", w.name, err)
	}
	defer t.close()
	res := &tracedResult{Workload: w.name, Units: units, Metrics: make(map[string]float64),
		OpDigest: opDigest(e.d, w.next, seed, clients, 1000)}

	plans0, err := e.conns[0].reader.StatsInfo()
	if err != nil {
		return nil, err
	}
	g := newGen(e.d, seed, 0, 1)
	c := e.conns[0]
	acked := make(map[int]string)
	stale := 0
	// A pass runs up to max units, but no longer than limit: on a machine
	// several times slower than the one the unit counts were sized on, a
	// run must still end. A pass cut short is reported as such; its counts
	// are then per unit of fewer units and need not repeat.
	pass := func(obs observer, max int) (int, time.Duration, error) {
		begin := time.Now()
		done := 0
		for ; done < max && time.Since(begin) < limit; done++ {
			u := w.next(g)
			n, err := runUnit(c, e.d, &u, obs)
			if obs != nil {
				res.Attempted++
				stale += n
			}
			switch {
			case err == nil && u.root >= 0:
				acked[u.root] = u.desc
			case err != nil && !unitFailure(err):
				return done, 0, err
			case err != nil && obs != nil:
				res.Failed++
				if len(res.Errors) < 3 {
					res.Errors = append(res.Errors, err.Error())
				}
			}
		}
		return done, time.Since(begin), nil
	}
	t.tr.origin = time.Now()
	live, liveWall, err := pass(t.observe, units)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	plans1, err := c.reader.StatsInfo()
	if err != nil {
		return nil, err
	}
	served, err := e.db.StateDigest()
	if err != nil {
		return nil, err
	}
	// The stream simply continues: the untraced units are the next ones of
	// the same generator, so both passes do the same kind of work.
	plain, plainWall, err := pass(nil, live)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced pass: %w", w.name, err)
	}
	replayStart := time.Now()
	t.replayAll()
	res.ReplayS = time.Since(replayStart).Seconds()
	res.Checks = append(res.Checks,
		checked("shadow_in_lockstep", t.lockstep(served)),
		checked("query_plans_match_server_stats", t.plansMatch(plans0.QueryPlans, plans1.QueryPlans)))

	res.Units, res.Truncated = live, live < units
	res.TracedRate = float64(live) / liveWall.Seconds()
	res.PlainRate = float64(plain) / plainWall.Seconds()
	t.fill(res, stale)
	res.Spans = len(t.tr.spans)
	res.TraceFile = filepath.Join(out, "trace-"+w.name+".jsonl")
	if err := t.tr.write(res.TraceFile); err != nil {
		return nil, err
	}
	res.Checks = append(res.Checks, stateChecks(e, acked)...)
	res.Correct = res.Failed == 0 && allOK(res.Checks)
	return res, nil
}

// lockstep verifies that the shadow went through what the served database
// did: no replay disagreed, and its state digests the same as the served
// database's did at the end of the live pass.
func (t *traceRun) lockstep(served string) error {
	if t.drift != nil {
		return t.drift
	}
	got, err := t.shadow.StateDigest()
	if err != nil {
		return err
	}
	if got != served {
		return fmt.Errorf("shadow state digest %s, served %s", got[:12], served[:12])
	}
	return nil
}

// plansMatch cross-checks the access paths seen in replies against the
// server's own per-path counters over the traced pass.
func (t *traceRun) plansMatch(before, after map[string]uint64) error {
	for access, n := range after {
		if got := int(n - before[access]); got != t.plans[access] {
			return fmt.Errorf("access %s: server counted %d queries, replies %d", access, got, t.plans[access])
		}
	}
	for access, n := range t.plans {
		if _, ok := after[access]; !ok && n > 0 {
			return fmt.Errorf("access %s: %d replies, none counted by the server", access, n)
		}
	}
	return nil
}

// fill derives the per-layer metrics and the budget from the spans and
// counters.
func (t *traceRun) fill(res *tracedResult, stale int) {
	units := float64(res.Units)
	total := make(map[string]int64)
	var roundTrip int64
	self := selfTimes(t.tr.spans)
	for i, s := range t.tr.spans {
		total[budgetLayerOf(s)] += self[i]
		if s.Parent == 0 {
			roundTrip += s.End - s.Start
		}
	}
	us := func(layer string) float64 { return float64(total[layer]) / units / 1e3 }
	res.RoundTripUs = float64(roundTrip) / units / 1e3
	for _, layer := range budgetLayers {
		res.Budget = append(res.Budget, budgetRow{layer, us(layer), float64(total[layer]) / float64(roundTrip)})
	}
	m := res.Metrics
	for _, def := range perLayer {
		m[def.name] = 0 // a layer the workload bypasses reports 0, not nothing
	}
	m["wire.codec_us"] = us("wire.codec")
	m["wire.bytes_per_unit"] = float64(t.frameBytes) / units
	m["server.residual_us"] = us("server.residual")
	m["server.residual_share"] = float64(total["server.residual"]) / float64(roundTrip)
	m["seed.tx_us"] = us("seed.tx")
	m["core.freeze_us"] = us("core.freeze")
	m["core.freezes_per_unit"] = float64(t.freezes) / units
	m["seed.read_us"] = us("seed.read")
	m["query.run_us"] = us("query.run")
	if t.matched > 0 {
		m["query.candidates_per_result"] = float64(t.candidates) / float64(t.matched)
	}
	for _, access := range []string{"scan", "name", "class", "attr-eq", "attr-range"} {
		m["query.plans."+access] = float64(t.plans[access])
	}
	m["storage.commit_us"] = us("storage.commit")
	m["storage.compactions"] = float64(t.compactions)
	m["storage.compaction_stall_ms"] = float64(t.stall) / 1e6
	if t.lagged > 0 && t.e.fol != nil {
		m["follower.visible_lag_us"] = float64(t.lag) / float64(t.lagged) / 1e3
	}
	m["follower.stale_reads_per_unit"] = float64(stale) / units
	if t.e.fol != nil {
		m["follower.resyncs"] = float64(t.e.fol.Resyncs() - 1) // the bootstrap is not a resync
	}
	m["wal_bytes_per_unit"] = float64(t.walBytes) / units
	m["failed_share"] = float64(res.Failed) / units
	m["trace_overhead_share"] = 1 - res.TracedRate/res.PlainRate
}

func (res *tracedResult) print() {
	fmt.Printf("  %d units traced at %.1f units/s, the next ones untraced at %.1f units/s, replay took %.1f s; %d spans in %s\n",
		res.Units, res.TracedRate, res.PlainRate, res.ReplayS, res.Spans, res.TraceFile)
	if res.Truncated {
		fmt.Printf("  TRUNCATED: the traced pass hit its time limit; counts are per unit of %d units and will not repeat exactly\n", res.Units)
	}
	fmt.Printf("  layer budget: self time per unit, rows sum to the round trip\n")
	for _, row := range res.Budget {
		fmt.Printf("    %-18s %12.3f us %7.2f %%\n", row.Layer, row.SelfUs, 100*row.Share)
	}
	fmt.Printf("    %-18s %12.3f us %7.2f %%\n", "round trip", res.RoundTripUs, 100.0)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	units := make(map[string]string)
	for _, def := range perLayer {
		units[def.name] = def.unit
	}
	for _, name := range names {
		fmt.Printf("  %-30s %14.3f %s\n", name, res.Metrics[name], units[name])
	}
	fmt.Printf("  op_digest %s\n", res.OpDigest)
	printChecks(res.Errors, res.Checks)
}
