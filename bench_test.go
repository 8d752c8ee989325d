package repro

// One benchmark group per evaluation artifact of the paper (experiments
// E1-E5 of DESIGN.md), the ablation group A2, a fresh-vs-cached pattern
// splice group and one staged check-in. The paper reports no absolute
// numbers — its host is a 1986 workstation — so these benches document the
// cost shape of each mechanism: what the eager consistency checking costs
// per update, what pattern splicing costs per inheritor, what a check-in
// costs against the relationship count, and how the SEED-backed
// specification tool compares against the plain-struct baseline.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/item"
	"repro/internal/server"
	"repro/internal/spades"
	"repro/internal/spades/baseline"
	"repro/internal/wire"
	"repro/seed"
)

func mustMem(b *testing.B, sch *seed.Schema) *seed.Database {
	b.Helper()
	db, err := seed.NewMemory(sch)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// ---- E1: figures 1+2 — object and relationship creation under eager
// consistency checking ----

func BenchmarkE1_CreateObject(b *testing.B) {
	db := mustMem(b, seed.Figure2Schema())
	defer db.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_CreateSubObject(b *testing.B) {
	db := mustMem(b, seed.Figure2Schema())
	defer db.Close()
	root, _ := db.CreateObject("Data", "Root")
	text, _ := db.CreateSubObject(root, "Text")
	body, _ := db.CreateSubObject(text, "Body")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.CreateValueObject(body, "Keywords", seed.NewString("k")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_CreateRelationship(b *testing.B) {
	db := mustMem(b, seed.Figure2Schema())
	defer db.Close()
	action, _ := db.CreateObject("Action", "A")
	ids := make([]seed.ID, b.N)
	for i := range ids {
		ids[i], _ = db.CreateObject("Data", fmt.Sprintf("D%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.CreateRelationship("Read", map[string]seed.ID{"from": ids[i], "by": action}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_Figure1Build regenerates the complete figure 1 structure per
// iteration.
func BenchmarkE1_Figure1Build(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := mustMem(b, seed.Figure2Schema())
		alarms, _ := db.CreateObject("Data", "Alarms")
		handler, _ := db.CreateObject("Action", "AlarmHandler")
		_, _ = db.CreateRelationship("Read", map[string]seed.ID{"from": alarms, "by": handler})
		text, _ := db.CreateSubObject(alarms, "Text")
		body, _ := db.CreateSubObject(text, "Body")
		_, _ = db.CreateValueObject(text, "Selector", seed.NewString("Representation"))
		_, _ = db.CreateValueObject(body, "Keywords", seed.NewString("Alarmhandling"))
		_, _ = db.CreateValueObject(body, "Keywords", seed.NewString("Display"))
		db.Close()
	}
}

// ---- E2: figure 3 — re-classification within generalization hierarchies ----

func BenchmarkE2_Reclassify(b *testing.B) {
	db := mustMem(b, seed.Figure3Schema())
	defer db.Close()
	id, _ := db.CreateObject("Thing", "X")
	chain := []string{"Data", "OutputData", "Data", "Thing"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Reclassify(id, chain[i%len(chain)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_RefinementWalk performs the paper's full vague-to-precise
// walk per iteration: Thing -> Data -> OutputData with Access -> Write.
func BenchmarkE2_RefinementWalk(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := mustMem(b, seed.Figure3Schema())
		alarms, _ := db.CreateObject("Thing", "Alarms")
		sensor, _ := db.CreateObject("Action", "Sensor")
		_ = db.Reclassify(alarms, "Data")
		acc, _ := db.CreateRelationship("Access", map[string]seed.ID{"from": alarms, "by": sensor})
		_ = db.Reclassify(alarms, "OutputData")
		_ = db.Reclassify(acc, "Write")
		_, _ = db.CreateValueObject(acc, "NumberOfWrites", seed.NewInteger(2))
		db.Close()
	}
}

// BenchmarkE2_ReclassifyWithRels measures how re-classification cost grows
// with the number of relationships that must be re-validated.
func BenchmarkE2_ReclassifyWithRels(b *testing.B) {
	for _, rels := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("rels=%d", rels), func(b *testing.B) {
			db := mustMem(b, seed.Figure3Schema())
			defer db.Close()
			id, _ := db.CreateObject("Data", "X")
			for i := 0; i < rels; i++ {
				a, _ := db.CreateObject("Action", fmt.Sprintf("A%d", i))
				_, _ = db.CreateRelationship("Access", map[string]seed.ID{"from": id, "by": a})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Reclassify(id, "OutputData"); err != nil {
					b.Fatal(err)
				}
				if err := db.Reclassify(id, "Data"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E3: figure 4 — version creation and view construction ----

// populate fills a database with size objects carrying a description each.
func populate(b *testing.B, db *seed.Database, size int) []seed.ID {
	b.Helper()
	ids := make([]seed.ID, size)
	for i := 0; i < size; i++ {
		id, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.CreateValueObject(id, "Description", seed.NewString("d")); err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func BenchmarkE3_SaveVersion(b *testing.B) {
	for _, size := range []int{100, 1000} {
		for _, changed := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("db=%d/changed=%d", size, changed), func(b *testing.B) {
				db := mustMem(b, seed.Figure3Schema())
				defer db.Close()
				ids := populate(b, db, size)
				if _, err := db.SaveVersion("base"); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := 0; j < changed; j++ {
						obj := ids[(i*changed+j)%size]
						d, err := db.ResolvePath(fmt.Sprintf("Obj%d.Description", (i*changed+j)%size))
						if err != nil {
							b.Fatal(err)
						}
						_ = obj
						if err := db.SetValue(d, seed.NewString(fmt.Sprintf("v%d", i))); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					if _, err := db.SaveVersion("bench"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// versionedDB holds objs objects, objs/2 roots with a Description each,
// saved as version 1.0.
func versionedDB(b *testing.B, objs int) *seed.Database {
	b.Helper()
	db := mustMem(b, seed.Figure3Schema())
	populate(b, db, objs/2)
	if _, err := db.SaveVersion("1.0"); err != nil {
		b.Fatal(err)
	}
	return db
}

// saveOneItem changes one root's Description and saves the next version.
func saveOneItem(b *testing.B, db *seed.Database, root int) seed.VersionNumber {
	b.Helper()
	d, err := db.ResolvePath(fmt.Sprintf("Obj%d.Description", root))
	if err == nil {
		err = db.SetValue(d, seed.NewString(fmt.Sprintf("v%d", root)))
	}
	if err != nil {
		b.Fatal(err)
	}
	num, err := db.SaveVersion("one item")
	if err != nil {
		b.Fatal(err)
	}
	return num
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkE3_VersionView reads a saved version's view at objs=1k/10k/100k.
// pinned reads the base version, the generation SaveVersion pinned: O(1),
// flat across objs. cold alternates between 1.0 and 2.0, so each read
// finds the other in the one rebuilt slot and rebuilds its frozen
// generation from the delta path: O(objs). The pinned cell also reports
// retained-B/version, the live heap each of 20 one-item saves adds; the
// two-slot pin set keeps it from growing a generation per version.
func BenchmarkE3_VersionView(b *testing.B) {
	const saves = 20
	for _, objs := range []int{1_000, 10_000, 100_000} {
		db := versionedDB(b, objs)
		before := liveHeap()
		var base seed.VersionNumber
		for i := 0; i < saves; i++ {
			base = saveOneItem(b, db, i)
		}
		retained := float64(liveHeap()-before) / saves
		read := func(b *testing.B, num func(i int) seed.VersionNumber) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.VersionView(num(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("objs=%dk/pinned", objs/1000), func(b *testing.B) {
			read(b, func(int) seed.VersionNumber { return base })
			b.ReportMetric(retained, "retained-B/version")
		})
		b.Run(fmt.Sprintf("objs=%dk/cold", objs/1000), func(b *testing.B) {
			read(b, func(i int) seed.VersionNumber { return seed.VersionNumber{1 + i%2, 0} })
		})
		db.Close()
	}
}

// BenchmarkE3_SelectVersion alternates the base between versions 1.0 and
// 2.0 at objs=1k/10k/100k; each select restores the whole store.
func BenchmarkE3_SelectVersion(b *testing.B) {
	for _, objs := range []int{1_000, 10_000, 100_000} {
		db := versionedDB(b, objs)
		v2 := saveOneItem(b, db, 0)
		b.Run(fmt.Sprintf("objs=%dk", objs/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				num := seed.VersionNumber{1, 0}
				if i%2 == 1 {
					num = v2
				}
				if err := db.SelectVersion(num); err != nil {
					b.Fatal(err)
				}
			}
		})
		db.Close()
	}
}

// ---- E4: figure 5 — pattern splicing and propagation ----

func BenchmarkE4_SplicedView(b *testing.B) {
	for _, inheritors := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("inheritors=%d", inheritors), func(b *testing.B) {
			db := mustMem(b, seed.Figure3Schema())
			defer db.Close()
			common, _ := db.CreateObject("Data", "Common")
			po, _ := db.CreatePatternObject("Action", "PO")
			_, _ = db.CreateRelationship("Access", map[string]seed.ID{"from": common, "by": po})
			_, _ = db.CreateValueObject(po, "Description", seed.NewString("shared"))
			fam := db.NewVariantFamily(po)
			first := seed.NoID
			for i := 0; i < inheritors; i++ {
				id, err := fam.AddVariant("Action", fmt.Sprintf("V%d", i))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					first = id
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each mutation invalidates the cached splice; the read
				// forces a fresh splice over all inheritors.
				if _, err := db.CreateObject("Data", fmt.Sprintf("bump%d", i)); err != nil {
					b.Fatal(err)
				}
				if got := len(db.View().Children(first, "Description")); got != 1 {
					b.Fatalf("children = %d", got)
				}
			}
		})
	}
}

func BenchmarkE4_PatternUpdatePropagation(b *testing.B) {
	for _, inheritors := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("inheritors=%d", inheritors), func(b *testing.B) {
			db := mustMem(b, seed.Figure3Schema())
			defer db.Close()
			po, _ := db.CreatePatternObject("Action", "PO")
			desc, _ := db.CreateValueObject(po, "Description", seed.NewString("v"))
			fam := db.NewVariantFamily(po)
			for i := 0; i < inheritors; i++ {
				if _, err := fam.AddVariant("Action", fmt.Sprintf("V%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Updating the pattern re-validates every inheritor context.
				if err := db.SetValue(desc, seed.NewString(fmt.Sprintf("v%d", i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: SPADES on SEED vs. direct data structures ----

func e5Workload() bench.SpadesWorkload {
	return bench.SpadesWorkload{Actions: 40, Data: 60, Flows: 150, Lookups: 400, Describes: 60}
}

func BenchmarkE5_SPADES_on_SEED(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := mustMem(b, seed.Figure3Schema())
		if _, err := bench.RunSpades(spades.NewProject(db), e5Workload()); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

func BenchmarkE5_SPADES_on_Baseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunSpades(baseline.New(), e5Workload()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- A2 ablation: eager per-update checking vs. deferred full recheck ----

func BenchmarkAblation_Consistency_EagerPerOp(b *testing.B) {
	// The eager cost is simply the cost of the checked operation; this
	// bench measures N checked creations.
	db := mustMem(b, seed.Figure3Schema())
	defer db.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.CreateObject("Data", fmt.Sprintf("O%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Consistency_DeferredFullRecheck(b *testing.B) {
	// The deferred alternative re-validates the whole database; measured
	// against database size.
	for _, size := range []int{100, 1000} {
		b.Run(fmt.Sprintf("db=%d", size), func(b *testing.B) {
			db := mustMem(b, seed.Figure3Schema())
			defer db.Close()
			populate(b, db, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.ValidateAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Pattern splice: a fresh splice after every write vs. the cached view ----

func BenchmarkAblation_Pattern_FreshSplice(b *testing.B) {
	db := mustMem(b, seed.Figure3Schema())
	defer db.Close()
	po, _ := db.CreatePatternObject("Action", "PO")
	_, _ = db.CreateValueObject(po, "Description", seed.NewString("x"))
	fam := db.NewVariantFamily(po)
	for i := 0; i < 50; i++ {
		if _, err := fam.AddVariant("Action", fmt.Sprintf("V%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	desc, _ := db.ResolvePathRaw("PO.Description")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A write invalidates the cache, so every View() splices afresh.
		if err := db.SetValue(desc, seed.NewString(fmt.Sprintf("x%d", i))); err != nil {
			b.Fatal(err)
		}
		v := db.View()
		if got := len(v.Children(seed.ID(po), "")); got == 0 {
			_ = got
		}
	}
}

func BenchmarkAblation_Pattern_CachedView(b *testing.B) {
	db := mustMem(b, seed.Figure3Schema())
	defer db.Close()
	po, _ := db.CreatePatternObject("Action", "PO")
	_, _ = db.CreateValueObject(po, "Description", seed.NewString("x"))
	fam := db.NewVariantFamily(po)
	var first seed.ID
	for i := 0; i < 50; i++ {
		id, err := fam.AddVariant("Action", fmt.Sprintf("V%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = id
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// No mutations: View() returns the cached splice.
		v := db.View()
		if got := len(v.Children(first, "Description")); got != 1 {
			b.Fatalf("children = %d", got)
		}
	}
}

// ---- Check-in: one staged batch shaped like seedmark's edit unit ----

// BenchmarkTx_Checkin times one check-in of three resolve-and-stage steps
// (SetValue Description, SetValue Revised, a new Keywords entry) and its
// commit, plus the freeze the next reader forces with db.View(). The
// database holds about objs objects, in roots of six plus 50 Actions, and
// rels relationships; ns/op and B/op should grow with neither. Edits cycle
// over a few hot roots, and every 50th edit of a root drops its Body and
// creates a fresh one instead of adding a keyword, as seedmark's edit unit
// does, so the object count stays level however large b.N grows. Run it
// with -cpuprofile to see where a check-in's time goes.
func BenchmarkTx_Checkin(b *testing.B) {
	const actions, hot, keywordsPerDrop = 50, 16, 50
	must := func(id seed.ID, err error) seed.ID {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, objs := range []int{1_000, 10_000, 100_000} {
		for _, rels := range []int{0, 5000} {
			b.Run(fmt.Sprintf("objs=%dk/rels=%d", objs/1000, rels), func(b *testing.B) {
				roots := objs / 6
				db := mustMem(b, seed.Figure3Schema())
				defer db.Close()
				if err := db.CreateAttrIndex("Data", "Description", seed.AttrHash); err != nil {
					b.Fatal(err)
				}
				if err := db.CreateAttrIndex("Data", "Revised", seed.AttrOrdered); err != nil {
					b.Fatal(err)
				}
				ids := make([]seed.ID, roots)
				for i := range ids {
					ids[i] = must(db.CreateObject("Data", fmt.Sprintf("Obj%d", i)))
					must(db.CreateValueObject(ids[i], "Description", seed.NewString(fmt.Sprintf("d%d", i))))
					must(db.CreateValueObject(ids[i], "Revised", seed.NewDate(day.AddDate(0, 0, i%3650))))
					text := must(db.CreateSubObject(ids[i], "Text"))
					must(db.CreateSubObject(text, "Body"))
					must(db.CreateValueObject(text, "Selector", seed.NewString("sel")))
				}
				acts := make([]seed.ID, actions)
				for i := range acts {
					acts[i] = must(db.CreateObject("Action", fmt.Sprintf("A%d", i)))
				}
				for i := 0; i < rels; i++ { // distinct (from, by) pairs up to 50 per root
					by := acts[(i%roots+i/roots)%actions]
					must(db.CreateRelationship("Access", map[string]seed.ID{"from": ids[i%roots], "by": by}))
				}
				db.View()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx, err := db.BeginTx()
					if err != nil {
						b.Fatal(err)
					}
					stage := func(path string, op func(seed.ID) error) {
						id, err := tx.ResolvePath(path)
						if err == nil {
							err = op(id)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					name := fmt.Sprintf("Obj%d", i%hot)
					stage(name+".Description", func(id seed.ID) error { return tx.SetValue(id, seed.NewString(fmt.Sprintf("v%d", i))) })
					stage(name+".Revised", func(id seed.ID) error { return tx.SetValue(id, seed.NewDate(day.AddDate(0, 0, i%3650))) })
					if (i/hot)%keywordsPerDrop != keywordsPerDrop-1 {
						stage(name+".Text[0].Body", func(id seed.ID) error {
							_, err := tx.CreateValueObject(id, "Keywords", seed.NewString("kw"))
							return err
						})
					} else {
						stage(name+".Text[0].Body", tx.Delete)
						stage(name+".Text[0]", func(id seed.ID) error {
							_, err := tx.CreateSubObject(id, "Body")
							return err
						})
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
					db.View()
				}
			})
		}
	}
}

// ---- Server get: one remote get of a root and its subtree ----

// BenchmarkServer_GetSubtree times one get over a loopback connection of a
// root shaped like seedmark's editable roots — Description, Revised and
// Text[0]{Body, Selector} — holding keywords Text[0].Body.Keywords entries
// at depth 4, with two relationships. The server renders the subtree in one
// top-down walk, so ns/op and allocs/op grow with the object count, not
// with objects times depth.
func BenchmarkServer_GetSubtree(b *testing.B) {
	must := func(id seed.ID, err error) seed.ID {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	for _, keywords := range []int{0, 49} {
		b.Run(fmt.Sprintf("keywords=%d", keywords), func(b *testing.B) {
			db := mustMem(b, seed.Figure3Schema())
			defer db.Close()
			root := must(db.CreateObject("Data", "Doc"))
			must(db.CreateValueObject(root, "Description", seed.NewString("doc")))
			must(db.CreateValueObject(root, "Revised", seed.NewDate(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))))
			text := must(db.CreateSubObject(root, "Text"))
			body := must(db.CreateSubObject(text, "Body"))
			for k := 0; k < keywords; k++ {
				must(db.CreateValueObject(body, "Keywords", seed.NewString(fmt.Sprintf("kw%d", k))))
			}
			must(db.CreateValueObject(text, "Selector", seed.NewString("sel")))
			for _, name := range []string{"A0", "A1"} {
				act := must(db.CreateObject("Action", name))
				must(db.CreateRelationship("Access", map[string]seed.ID{"from": root, "by": act}))
			}
			srv := server.New(db)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := client.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			want := 6 + keywords
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snaps, err := c.Get("Doc")
				if err != nil || len(snaps) != 1 || len(snaps[0].Objects) != want || len(snaps[0].Rels) != 2 {
					b.Fatalf("get Doc: %d snapshots, %v", len(snaps), err)
				}
			}
		})
	}
}

// ---- Wire frame: encode and decode of one get response ----

// BenchmarkWire_Frame encodes a get response through a wire.Writer and
// decodes it through a wire.Reader, without a connection: the response to a
// get of a root holding Text[0].Body.Keywords[0..48] at depth 4, 54 objects
// and three relationships. Encode allocates nothing; decode allocates one
// slice per slice field and one string group per value.
func BenchmarkWire_Frame(b *testing.B) {
	objs := []wire.Object{{ID: 1, Class: "Data", Name: "Deep", Path: "Deep"}}
	add := func(class, path, value string) {
		objs = append(objs, wire.Object{ID: uint64(len(objs) + 1), Class: "Data." + class, Path: "Deep." + path, ValueKind: 1, Value: value})
	}
	add("Description", "Description", "d")
	add("Text", "Text[0]", "")
	add("Text.Body", "Text[0].Body", "")
	for k := range 49 {
		add("Text.Body.Keywords", fmt.Sprintf("Text[0].Body.Keywords[%d]", k), fmt.Sprint("kw", k))
	}
	add("Text.Selector", "Text[0].Selector", "sel")
	resp := &wire.Response{Seq: 7, Snapshots: []wire.Snapshot{{Root: "Deep", Objects: objs, Rels: []wire.Relationship{
		{ID: 60, Assoc: "Access", Ends: []wire.End{{Role: "by", Path: "A1"}, {Role: "from", Path: "Deep"}}},
		{ID: 61, Assoc: "Access", Ends: []wire.End{{Role: "by", Path: "A2"}, {Role: "from", Path: "Deep"}}},
		{ID: 62, Assoc: "Cites", Ends: []wire.End{{Role: "from", Path: "Deep"}, {Role: "to", Path: "Deep.Text[0].Body.Keywords[7]"}}},
	}}}}
	w := wire.NewWriter(io.Discard)
	frame, err := w.Encode(resp)
	if err != nil {
		b.Fatal(err)
	}
	frame = bytes.Clone(frame)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		src := bytes.NewReader(frame)
		rd, got := wire.NewReader(src), new(wire.Response)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reset(frame)
			if err := rd.Read(got); err != nil || len(got.Snapshots[0].Objects) != len(objs) {
				b.Fatalf("decode: %v", err)
			}
		}
	})
}

// ---- Infrastructure benches: storage and query ----

func BenchmarkStorage_JournaledCreate(b *testing.B) {
	dir := b.TempDir()
	db, err := seed.Open(dir, seed.Options{Schema: seed.Figure2Schema()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.CreateObject("Data", fmt.Sprintf("O%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_ClassSelection(b *testing.B) {
	db := mustMem(b, seed.Figure3Schema())
	defer db.Close()
	populate(b, db, 1000)
	v := db.View()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := seed.NewQuery().Class("Data", true).Run(v)
		if err != nil || len(ids) != 1000 {
			b.Fatalf("%d ids, %v", len(ids), err)
		}
	}
}

func BenchmarkQuery_ValuePredicate(b *testing.B) {
	db := mustMem(b, seed.Figure3Schema())
	defer db.Close()
	populate(b, db, 1000)
	v := db.View()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := seed.NewQuery().Where("Description", seed.Eq, seed.NewString("d")).Run(v)
		if err != nil || len(ids) != 1000 {
			b.Fatalf("%d ids, %v", len(ids), err)
		}
	}
}

// BenchmarkQuery_ClassResidual times seedmark's by-class query shape: a class
// extent filtered on an unindexed `Revised >=` residual, over objs objects
// in roots of three (the root, its Description and its Revised). Every
// odd root passes. ns/op grows with the extent; allocs/op should not. The
// objs=100k-depth3 cell filters on `Text.Body.Keywords` Contains instead,
// so each candidate's walk goes three levels down (roots of six: the root,
// its Description, Text, Body and two Keywords).
func BenchmarkQuery_ClassResidual(b *testing.B) {
	b.Run("objs=100k-depth3", func(b *testing.B) {
		roots := 100_000 / 6
		db := mustMem(b, seed.Figure3Schema())
		defer db.Close()
		for i, id := range populate(b, db, roots) {
			text, err := db.CreateSubObject(id, "Text")
			if err != nil {
				b.Fatal(err)
			}
			body, err := db.CreateSubObject(text, "Body")
			if err != nil {
				b.Fatal(err)
			}
			for _, kw := range []string{"plain", fmt.Sprintf("kw-%d", i%2)} {
				if _, err := db.CreateValueObject(body, "Keywords", seed.NewString(kw)); err != nil {
					b.Fatal(err)
				}
			}
		}
		v := db.View()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids, err := seed.NewQuery().Class("Data", false).Where("Text.Body.Keywords", seed.Contains, seed.NewString("kw-1")).Run(v)
			if err != nil || len(ids) != roots/2 {
				b.Fatalf("%d ids, %v", len(ids), err)
			}
		}
	})
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, objs := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("objs=%dk", objs/1000), func(b *testing.B) {
			roots := objs / 3
			db := mustMem(b, seed.Figure3Schema())
			defer db.Close()
			for i, id := range populate(b, db, roots) {
				if _, err := db.CreateValueObject(id, "Revised", seed.NewDate(day.AddDate(0, 0, i%2*100+i%50))); err != nil {
					b.Fatal(err)
				}
			}
			v := db.View()
			q := func() *seed.Query {
				return seed.NewQuery().Class("Data", false).Where("Revised", seed.Ge, seed.NewDate(day.AddDate(0, 0, 50)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, err := q().Run(v)
				if err != nil || len(ids) != roots/2 {
					b.Fatalf("%d ids, %v", len(ids), err)
				}
			}
		})
	}
}

// BenchmarkRun_PatchAppend times the index patch every check-in pays on the
// next freeze: one new ID appended to a 15 000-ID run (a class extent or ID
// list of seedmark's size). The patch rebuilds only the last chunk, and its
// cost is the delta's, not the chunk's.
func BenchmarkRun_PatchAppend(b *testing.B) {
	ids := make([]item.ID, 15_000)
	for i := range ids {
		ids[i] = item.ID(2*i + 1)
	}
	run := item.NewRun(ids)
	add := make([]item.ID, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add[0] = item.ID(2 * len(ids))
		if next := run.Patch(add, nil); next.Len() != len(ids)+1 {
			b.Fatalf("patched run holds %d, want %d", next.Len(), len(ids)+1)
		}
	}
}

var benchSink time.Duration

// BenchmarkE5_SlowdownFactor reports the measured slowdown as a custom
// metric so the bench output itself documents the paper's shape.
func BenchmarkE5_SlowdownFactor(b *testing.B) {
	w := e5Workload()
	for i := 0; i < b.N; i++ {
		baseT, err := bench.RunSpades(baseline.New(), w)
		if err != nil {
			b.Fatal(err)
		}
		db := mustMem(b, seed.Figure3Schema())
		seedT, err := bench.RunSpades(spades.NewProject(db), w)
		db.Close()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = seedT
		b.ReportMetric(float64(seedT)/float64(baseT), "slowdown-x")
	}
}
