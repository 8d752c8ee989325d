// Package bench implements the experiment harness of the reproduction: one
// runner per evaluation artifact of the paper (figures 1-5 plus the
// qualitative SPADES observation), each regenerating the artifact's content
// and reporting structural assertions and measurements. DESIGN.md section 5
// is the index; EXPERIMENTS.md records the outcomes.
//
// The paper contains no quantitative tables, so the reproduced "shape" is
// structural: which operations are accepted or rejected, what the views to
// versions contain, what inheritors see — plus, for E5, the relative cost
// of the SEED-backed tool against the plain-struct baseline ("SPADES has
// become considerably slower, but much more flexible").
package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/spades"
	"repro/internal/spades/baseline"
	"repro/internal/wire"
	"repro/seed"
)

// Result is one experiment's outcome.
type Result struct {
	Name   string
	Lines  []string // report lines
	Failed bool
}

func (r *Result) logf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) assert(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		r.Failed = true
	}
	r.Lines = append(r.Lines, status+"  "+fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s ====\n", r.Name)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// mustDB builds an in-memory database over the figure 3 schema.
func mustDB() *seed.Database {
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		panic(err)
	}
	return db
}

// E1 regenerates figures 1 and 2: the sample schema, the sample
// object-relationship structure, and the two admission examples of the
// "Managing vague and incomplete information" section.
func E1() *Result {
	r := &Result{Name: "E1: figures 1+2 — sample structure under the sample schema"}
	db, err := seed.NewMemory(seed.Figure2Schema())
	if err != nil {
		panic(err)
	}
	defer db.Close()

	alarms, err1 := db.CreateObject("Data", "Alarms")
	handler, err2 := db.CreateObject("Action", "AlarmHandler")
	r.assert(err1 == nil && err2 == nil, "independent objects 'Alarms', 'AlarmHandler' created")

	_, err = db.CreateRelationship("Read", map[string]seed.ID{"from": alarms, "by": handler})
	r.assert(err == nil, "relationship Read(from: Alarms, by: AlarmHandler) created")

	text, _ := db.CreateSubObject(alarms, "Text")
	body, _ := db.CreateSubObject(text, "Body")
	_, _ = db.CreateValueObject(text, "Selector", seed.NewString("Representation"))
	_, _ = db.CreateValueObject(body, "Keywords", seed.NewString("Alarmhandling"))
	kw1, err := db.CreateValueObject(body, "Keywords", seed.NewString("Display"))
	r.assert(err == nil, "dependent objects of figure 1 created")
	p, ok := db.PathOf(kw1)
	r.assert(ok && p.String() == "Alarms.Text[0].Body.Keywords[1]",
		"composed name = %s (paper: Alarms.Text.Body.Keywords[1])", p)

	// Paper example (1): under figure 2 there is no category for a vague
	// dataflow — only precise Read or Write exist.
	_, err = db.Schema().Association("Access")
	r.assert(err != nil, "no schema category for a vague dataflow in figure 2")

	// Paper example (2): 'Alarms' may exist without its Write relationship
	// (incomplete, not inconsistent), and the incompleteness is detectable.
	findings := db.Completeness()
	found := false
	for _, f := range findings {
		if f.Item == alarms && f.Rule == seed.RuleMinParticipation {
			found = true
		}
	}
	r.assert(found, "incompleteness of 'Alarms' (missing Write) formally detected")

	// Consistency (max cardinality 0..16 of Data.Text) is enforced eagerly.
	var rejected error
	for i := 0; i < 20; i++ {
		if _, err := db.CreateSubObject(alarms, "Text"); err != nil {
			rejected = err
			break
		}
	}
	r.assert(rejected != nil, "17th Text sub-object rejected (0..16): %v", rejected)
	return r
}

// E2 regenerates figure 3 and the vague-to-precise refinement walk.
func E2() *Result {
	r := &Result{Name: "E2: figure 3 — generalization, vague data, refinement walk"}
	db := mustDB()
	defer db.Close()

	alarms, _ := db.CreateObject("Thing", "Alarms")
	sensor, _ := db.CreateObject("Action", "Sensor")
	r.logf("stored vague information: \"there is a thing with name 'Alarms'\"")

	_, err := db.CreateRelationship("Access", map[string]seed.ID{"from": alarms, "by": sensor})
	r.assert(err != nil, "Access from a Thing rejected (membership): %v", err)

	r.assert(db.Reclassify(alarms, "Data") == nil, "re-classified Alarms: Thing -> Data")
	acc, err := db.CreateRelationship("Access", map[string]seed.ID{"from": alarms, "by": sensor})
	r.assert(err == nil, "vague Access(Alarms, Sensor) stored")

	r.assert(db.Reclassify(acc, "Write") != nil, "Access -> Write rejected while Alarms is mere Data")
	r.assert(db.Reclassify(alarms, "OutputData") == nil, "re-classified Alarms: Data -> OutputData")
	r.assert(db.Reclassify(acc, "Write") == nil, "specialized relationship: Access -> Write")

	_, err1 := db.CreateValueObject(acc, "NumberOfWrites", seed.NewInteger(2))
	_, err2 := db.CreateValueObject(acc, "ErrorHandling", seed.NewString("repeat"))
	r.assert(err1 == nil && err2 == nil,
		"final precise fact: 'Alarms' is an output written twice by 'Sensor', repeated on error")

	// Covering conditions drive the completeness report: a fresh vague
	// thing is flagged until specialized.
	vague, _ := db.CreateObject("Thing", "StillVague")
	covering := false
	for _, f := range db.CompletenessOf(vague) {
		if f.Rule == seed.RuleCovering {
			covering = true
		}
	}
	r.assert(covering, "covering generalization flags unspecialized Thing")
	return r
}

// E3 regenerates figure 4: versions 1.0 and 2.0 of the AlarmHandler
// cluster, the views of figures 4b/4c, delta storage, and an alternative.
func E3() *Result {
	r := &Result{Name: "E3: figure 4 — versions, views, delta storage, alternatives"}
	db := mustDB()
	defer db.Close()

	handler, _ := db.CreateObject("Action", "AlarmHandler")
	proc, _ := db.CreateObject("InputData", "ProcessData")
	_, _ = db.CreateRelationship("Read", map[string]seed.ID{"from": proc, "by": handler})
	desc, _ := db.CreateValueObject(handler, "Description", seed.NewString("Handles alarms"))
	_, _ = db.CreateValueObject(handler, "Revised", seed.NewDate(time.Date(1985, 6, 1, 0, 0, 0, 0, time.UTC)))
	v1, err := db.SaveVersion("figure 4c state")
	r.assert(err == nil && v1.String() == "1.0", "version 1.0 saved")

	_ = db.SetValue(desc, seed.NewString("Handles alarms derived from ProcessData"))
	v2, err := db.SaveVersion("intermediate")
	r.assert(err == nil && v2.String() == "2.0", "version 2.0 saved")

	_ = db.SetValue(desc, seed.NewString("Generates alarms from process data, triggers Operator Alert"))

	infos := db.Versions()
	r.assert(infos[0].DeltaSize == 5 && infos[1].DeltaSize == 1,
		"delta storage: 1.0 stores %d items, 2.0 stores %d (only the changed description)",
		infos[0].DeltaSize, infos[1].DeltaSize)

	view1, _ := db.VersionView(v1)
	o1, ok1 := view1.Object(desc)
	r.assert(ok1 && o1.Value.Str() == "Handles alarms",
		"view to 1.0 reproduces figure 4c: %s", o1.Value.Quote())
	view2, _ := db.VersionView(v2)
	o2, _ := view2.Object(desc)
	r.assert(o2.Value.Str() == "Handles alarms derived from ProcessData",
		"view to 2.0: %s", o2.Value.Quote())
	oc, _ := db.View().Object(desc)
	r.assert(oc.Value.Str() == "Generates alarms from process data, triggers Operator Alert",
		"current version reproduces figure 4b: %s", oc.Value.Quote())
	// Unchanged items resolve through the history path.
	_, okRel := view2.ObjectByName("ProcessData")
	r.assert(okRel, "unchanged items of 1.0 visible in the 2.0 view")

	// History retrieval, "beginning with version 2.0".
	hist := db.HistoryOf(desc, seed.VersionNumber{2, 0})
	r.assert(len(hist) == 1 && hist[0].Num.String() == "2.0",
		"history retrieval of Description from 2.0 finds exactly 2.0")

	// Alternatives: back to 1.0, divergent change, branch number.
	_, _ = db.SaveVersion("tip")
	_ = db.SelectVersion(v1)
	_ = db.SetValue(desc, seed.NewString("alternative wording"))
	alt, err := db.SaveVersion("alternative")
	r.assert(err == nil && alt.String() == "1.0.1.0",
		"alternative branched off 1.0 as %s", alt)
	return r
}

// E4 regenerates figure 5: a variants family over patterns.
func E4() *Result {
	r := &Result{Name: "E4: figure 5 — variants defined by means of patterns"}
	db := mustDB()
	defer db.Close()

	common, _ := db.CreateObject("Data", "CommonPart")
	po1, _ := db.CreatePatternObject("Action", "PO1")
	po2, _ := db.CreatePatternObject("Action", "PO2")
	_, e1 := db.CreateRelationship("Access", map[string]seed.ID{"from": common, "by": po1})
	_, e2 := db.CreateRelationship("Access", map[string]seed.ID{"from": common, "by": po2})
	r.assert(e1 == nil && e2 == nil, "pattern relationships PR1, PR2 to the common part created")

	_, vis := db.View().ObjectByName("PO1")
	r.assert(!vis, "patterns invisible to retrieval")
	r.assert(len(db.View().RelationshipsOf(common)) == 0,
		"pattern relationships invisible without inheritors")

	fam := db.NewVariantFamily(po1, po2)
	varA, eA := fam.AddVariant("Action", "VariantA")
	varB, eB := fam.AddVariant("Action", "VariantB")
	r.assert(eA == nil && eB == nil, "variants A and B inherit the patterns")

	v := db.View()
	r.assert(len(v.RelationshipsOf(varA)) == 2 && len(v.RelationshipsOf(varB)) == 2,
		"each variant has both inherited relationships to the common part")
	r.assert(len(v.RelationshipsOf(common)) == 4,
		"the common part is related to both variants through both patterns")

	rels := v.RelationshipsOf(varA)
	err := db.Delete(rels[0])
	r.assert(err != nil, "inherited information not updatable in the inheritor: %v", err)

	// Pattern update propagates to all inheritors.
	_, err = db.CreateValueObject(po1, "Description", seed.NewString("shared"))
	r.assert(err == nil, "pattern updated (only in the pattern itself)")
	seen := 0
	v = db.View()
	for _, variant := range []seed.ID{varA, varB} {
		for _, ch := range v.Children(variant, "Description") {
			if o, ok := v.Object(ch); ok && o.Value.Str() == "shared" {
				seen++
			}
		}
	}
	r.assert(seen == 2, "pattern update propagated to %d/2 inheritors", seen)
	return r
}

// SpadesWorkload sizes the E5 specification-building workload.
type SpadesWorkload struct {
	Actions, Data, Flows, Lookups, Describes int
}

// DefaultWorkload is the standard E5 size.
var DefaultWorkload = SpadesWorkload{Actions: 120, Data: 200, Flows: 600, Lookups: 2000, Describes: 200}

// RunSpades drives one Tool through the workload and returns the elapsed
// time. The same deterministic pseudo-random sequence drives every tool.
func RunSpades(tool spades.Tool, w SpadesWorkload) (time.Duration, error) {
	start := time.Now()
	rng := uint64(42)
	next := func(n int) int {
		// xorshift64*; deterministic across runs and tools.
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return int((rng * 0x2545F4914F6CDD1D) >> 33 % uint64(n))
	}
	for i := 0; i < w.Actions; i++ {
		if err := tool.AddAction(fmt.Sprintf("Action%d", i)); err != nil {
			return 0, err
		}
	}
	for i := 0; i < w.Data; i++ {
		if err := tool.AddData(fmt.Sprintf("Data%d", i)); err != nil {
			return 0, err
		}
	}
	for i := 0; i < w.Flows; i++ {
		a := fmt.Sprintf("Action%d", next(w.Actions))
		d := fmt.Sprintf("Data%d", next(w.Data))
		if err := tool.Flow(a, d, spades.VagueFlow); err != nil {
			return 0, err
		}
	}
	for i := 0; i < w.Describes; i++ {
		d := fmt.Sprintf("Data%d", next(w.Data))
		if err := tool.Describe(d, fmt.Sprintf("description number %d", i)); err != nil {
			return 0, err
		}
	}
	for i := 0; i < w.Lookups; i++ {
		if i%2 == 0 {
			if _, err := tool.ActionsAccessing(fmt.Sprintf("Data%d", next(w.Data))); err != nil {
				return 0, err
			}
		} else {
			if _, err := tool.DataOf(fmt.Sprintf("Action%d", next(w.Actions))); err != nil {
				return 0, err
			}
		}
	}
	_ = tool.Report()
	return time.Since(start), nil
}

// E5 measures the SEED-backed specification tool against the plain-struct
// baseline — the paper's "considerably slower, but much more flexible"
// observation.
func E5() *Result {
	r := &Result{Name: "E5: SPADES on SEED vs. direct data structures"}
	w := DefaultWorkload

	base := baseline.New()
	baseTime, err := RunSpades(base, w)
	r.assert(err == nil, "baseline workload completed in %v", baseTime.Round(time.Microsecond))

	db := mustDB()
	defer db.Close()
	project := spades.NewProject(db)
	seedTime, err := RunSpades(project, w)
	r.assert(err == nil, "SEED-backed workload completed in %v", seedTime.Round(time.Microsecond))

	factor := float64(seedTime) / float64(baseTime)
	r.logf("workload: %d actions, %d data, %d flows, %d lookups, %d describes",
		w.Actions, w.Data, w.Flows, w.Lookups, w.Describes)
	r.logf("slowdown factor: %.1fx (paper shape: SEED considerably slower)", factor)
	r.assert(factor > 1.0, "SEED-backed tool is slower than direct structures (%.1fx)", factor)

	// ...but much more flexible: the things only SEED can do.
	findings := project.Check()
	r.assert(len(findings) > 0, "SEED detects %d incompleteness findings; baseline has no such concept", len(findings))
	_, err = project.Save("benchmark state")
	r.assert(err == nil, "SEED snapshots the whole specification as a version; baseline cannot")
	err = project.Flow("Action0", "Action1", spades.VagueFlow)
	r.assert(err != nil, "SEED rejects a dataflow between two actions; baseline would store it silently")
	return r
}

// ReadWorkload sizes the E7 concurrent-read/check-in measurement.
type ReadWorkload struct {
	Readers        int // parallel reader clients in the scaled run
	ReadsPerReader int // retrievals per reader
	Fillers        int // background objects (snapshot copy weight)
	Keywords       int // values per check-in batch (the tear probe)
	Writers        int // concurrent check-in writer clients
}

// DefaultReadWorkload is the standard E7 size.
var DefaultReadWorkload = ReadWorkload{
	Readers: 8, ReadsPerReader: 300, Fillers: 400, Keywords: 8, Writers: 2,
}

// runWireReads runs E7's reader side against a live server: each reader
// client retrieves the hot document and checks its keyword group for torn
// (mixed-tag) observations. It returns the elapsed wall time and the torn
// count.
func runWireReads(addr string, readers, readsPer, keywords int) (time.Duration, int64, error) {
	var torn atomic.Int64
	errs := make([]error, readers)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[r] = err
				return
			}
			defer c.Close()
			for i := 0; i < readsPer; i++ {
				snaps, err := c.Get("Doc")
				if err != nil {
					errs[r] = err
					return
				}
				var first string
				seen := 0
				for _, o := range snaps[0].Objects {
					if !strings.Contains(o.Path, "Keywords") {
						continue
					}
					if seen == 0 {
						first = o.Value
					} else if o.Value != first {
						torn.Add(1)
						break
					}
					seen++
				}
				if seen != keywords && torn.Load() == 0 {
					errs[r] = fmt.Errorf("snapshot holds %d keywords, want %d", seen, keywords)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return elapsed, torn.Load(), nil
}

// E7 measures the two-level multi-user scheme end to end: a central server
// over a snapshot-view database, check-in writer clients contending for
// one hot document's check-out lock, and reader clients retrieving in
// parallel. It reproduces the paper's promise that clients "retrieve
// freely" while check-ins apply "as a single transaction": retrieved
// subtrees are never torn, concurrent check-ins never collide (lock
// conflicts surface as typed, retryable errors), and aggregate retrieval
// throughput scales with parallel readers because snapshot reads never
// block each other — a serial client is bound by its own round-trip
// latency, which parallel clients overlap.
func E7() *Result {
	r := &Result{Name: "E7: concurrency — parallel retrieval under contended check-ins"}
	w := DefaultReadWorkload
	db := mustDB()
	defer db.Close()

	// One hot document whose keyword group is rewritten per check-in, plus
	// filler objects giving the snapshot copy realistic weight.
	doc, err := db.CreateObject("Data", "Doc")
	if err != nil {
		panic(err)
	}
	text, _ := db.CreateSubObject(doc, "Text")
	body, _ := db.CreateSubObject(text, "Body")
	for i := 0; i < w.Keywords; i++ {
		if _, err := db.CreateValueObject(body, "Keywords", seed.NewString("tag-0")); err != nil {
			panic(err)
		}
	}
	for i := 0; i < w.Fillers; i++ {
		id, err := db.CreateObject("Data", fmt.Sprintf("Filler%d", i))
		if err != nil {
			panic(err)
		}
		_, _ = db.CreateValueObject(id, "Description", seed.NewString("filler"))
	}

	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		r.assert(false, "server listen: %v", err)
		return r
	}
	defer srv.Close()

	// Check-in writers: both contend for the same document, so every
	// iteration exercises the check-out lock conflict (typed, retryable)
	// and a check-in staged in its own transaction and committed as one
	// batch. The document's lock, not a server-wide gate, orders the two
	// writers; check-ins on disjoint lock sets would commit in parallel.
	var (
		stop      atomic.Bool
		checkins  atomic.Int64
		conflicts atomic.Int64
		wwg       sync.WaitGroup
	)
	writerErrs := make([]error, w.Writers)
	for wr := 0; wr < w.Writers; wr++ {
		wwg.Add(1)
		go func(wr int) {
			defer wwg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				writerErrs[wr] = err
				return
			}
			defer c.Close()
			for i := 1; !stop.Load(); i++ {
				ws, err := c.Checkout("Doc")
				if err != nil {
					if errors.Is(err, wire.ErrLocked) {
						conflicts.Add(1) // the other writer holds it; retry
						continue
					}
					writerErrs[wr] = err
					return
				}
				tag := fmt.Sprintf("tag-w%d-%d", wr, i)
				for k := 0; k < w.Keywords; k++ {
					ws.SetValue(fmt.Sprintf("Doc.Text[0].Body.Keywords[%d]", k),
						uint8(seed.KindString), tag)
				}
				if err := ws.Commit(); err != nil {
					writerErrs[wr] = err
					return
				}
				checkins.Add(1)
			}
		}(wr)
	}

	totalReads := w.Readers * w.ReadsPerReader
	singleTime, torn1, err1 := runWireReads(addr, 1, totalReads, w.Keywords)
	multiTime, tornN, errN := runWireReads(addr, w.Readers, w.ReadsPerReader, w.Keywords)
	stop.Store(true)
	wwg.Wait()

	r.assert(err1 == nil && errN == nil, "retrieval clients completed (%v, %v)", err1, errN)
	for wr, werr := range writerErrs {
		r.assert(werr == nil, "writer %d: %d check-ins without a transaction-state error (%v)",
			wr, checkins.Load(), werr)
	}
	if err1 != nil || errN != nil {
		return r
	}
	singleTP := float64(totalReads) / singleTime.Seconds()
	multiTP := float64(totalReads) / multiTime.Seconds()
	factor := multiTP / singleTP
	r.logf("workload: %d filler objects, %d-keyword check-ins by %d writer clients, %d retrievals per phase",
		w.Fillers, w.Keywords, w.Writers, totalReads)
	r.logf("%d check-ins applied, %d lock conflicts retried via typed errors",
		checkins.Load(), conflicts.Load())
	r.logf("retrieval throughput: %.0f reads/s with 1 client, %.0f reads/s with %d clients (%.1fx)",
		singleTP, multiTP, w.Readers, factor)
	r.assert(torn1 == 0 && tornN == 0,
		"no torn snapshots in %d retrievals under concurrent check-ins", 2*totalReads)
	// Wall-clock ratios flake across machines; the measured ≥2x scaling is
	// recorded in EXPERIMENTS.md, the CI gate only requires any speedup.
	r.assert(factor > 1.0,
		"parallel readers outperform a single reader (%.1fx)", factor)
	return r
}

// All runs every experiment.
func All() []*Result {
	return []*Result{E1(), E2(), E3(), E4(), E5(), E7()}
}
