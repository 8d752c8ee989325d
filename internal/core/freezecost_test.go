package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/value"
)

// TestFreezeCostIndependentOfSize: the freeze after a check-in costs
// O(delta), not O(database). With both attribute index kinds registered, a
// 3-op check-in shaped like seedmark's edit unit (two value updates and a
// new keyword) is committed at about 2k and about 64k objects, and the
// bytes the following FrozenView allocates are read off
// runtime.MemStats.TotalAlloc. At 64k they may be at most 1.5× those at
// 2k. What does grow is the chunk tables the patched runs copy, a word per
// few hundred entries; copying any whole index — an ID list, a class
// extent, an attribute index — breaks the bound many times over.
func TestFreezeCostIndependentOfSize(t *testing.T) {
	small, large := freezeBytes(t, 2_000), freezeBytes(t, 64_000)
	t.Logf("a check-in's freeze allocates %d B at 2k objects, %d B at 64k", small, large)
	if float64(large) > 1.5*float64(small) {
		t.Errorf("a check-in's freeze allocates %d B at 64k objects, over 1.5× the %d B at 2k", large, small)
	}
}

// freezeBytes builds an engine of about objs objects in roots of six and
// returns the median bytes allocated by the freeze after each of a few
// check-ins.
func freezeBytes(t *testing.T, objs int) uint64 {
	t.Helper()
	en := newFig3(t)
	for _, spec := range tortureAttrSpecs {
		if err := en.CreateAttrIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	type root struct{ desc, revised, body item.ID }
	roots := make([]root, objs/6)
	for i := range roots {
		id := mustCreate(t, en, "Data", fmt.Sprintf("Obj%d", i))
		var r root
		var text item.ID
		var err error
		for _, step := range []func() error{
			func() (err error) {
				r.desc, err = en.CreateValueObject(id, "Description", value.NewString(fmt.Sprintf("d%d", i)))
				return
			},
			func() (err error) {
				r.revised, err = en.CreateValueObject(id, "Revised", value.NewDate(day.AddDate(0, 0, i)))
				return
			},
			func() (err error) { text, err = en.CreateSubObject(id, "Text"); return },
			func() (err error) { r.body, err = en.CreateSubObject(text, "Body"); return },
			func() (err error) { _, err = en.CreateValueObject(text, "Selector", value.NewString("sel")); return },
		} {
			if err = step(); err != nil {
				t.Fatal(err)
			}
		}
		roots[i] = r
	}
	en.FrozenView()

	var samples []uint64
	var before, after runtime.MemStats
	for i := 0; i < 9; i++ {
		r := roots[(i*7919)%len(roots)]
		tx := en.BeginTx()
		if err := stage(en, tx, func() error {
			if err := en.SetValue(r.desc, value.NewString(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
			if err := en.SetValue(r.revised, value.NewDate(day.AddDate(0, 0, -i))); err != nil {
				return err
			}
			_, err := en.CreateValueObject(r.body, "Keywords", value.NewString("kw"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := en.CommitTx(tx); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		en.FrozenView()
		runtime.ReadMemStats(&after)
		samples = append(samples, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
}
