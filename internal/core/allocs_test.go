package core

import (
	"fmt"
	"testing"

	"repro/internal/item"
	"repro/internal/value"
)

// Allocation regression guards for the frozen read path: the accessors a
// query touches per item — Object, Children, RelationshipsOf, ObjectByName,
// the ID lists, and the by-class index and its count — hand out decoded values and shared immutable
// slices without allocating. A regression here (a defensive copy creeping
// into an accessor, a decode round-tripping through the heap) multiplies
// across every item a reader visits; this pins it at zero per call. The
// lists span several run chunks and the view is a patched generation, so
// the ID lists flatten lazily: once, on the warm-up call. The subtest is
// named for the store it runs on.
func TestFrozenAccessorAllocs(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		en := newFig3(t)
		var parent item.ID
		for i := 0; i < 600; i++ {
			id := mustCreate(t, en, "Data", fmt.Sprintf("Obj%03d", i))
			if i == 0 {
				parent = id
			}
			if i == 300 {
				en.FrozenView() // the base the final generation is patched from
			}
		}
		if _, err := en.CreateValueObject(parent, "Description", value.NewString("short")); err != nil {
			t.Fatal(err)
		}
		if _, err := en.CreateSubObject(parent, "Revised"); err != nil {
			t.Fatal(err)
		}
		v := en.FrozenView()
		iv, ok := v.(frozenIndexes)
		if !ok {
			t.Fatal("frozen view lost the index extensions")
		}

		check := func(op string, f func()) {
			t.Helper()
			if n := testing.AllocsPerRun(200, f); n > 0 {
				t.Errorf("%s allocates %.1f times per call, want 0", op, n)
			}
		}
		check("Object", func() {
			if _, ok := v.Object(parent); !ok {
				t.Fatal("object lost")
			}
		})
		check("Children", func() {
			if len(v.Children(parent, "")) != 2 {
				t.Fatal("children lost")
			}
		})
		check("Children(role)", func() {
			if len(v.Children(parent, "Description")) != 1 {
				t.Fatal("role children lost")
			}
		})
		check("ObjectByName", func() {
			if _, ok := v.ObjectByName("Obj000"); !ok {
				t.Fatal("name lost")
			}
		})
		check("ObjectsOfClass", func() {
			ids, _ := iv.ObjectsOfClass("Data")
			if len(ids) != 600 {
				t.Fatal("class index lost")
			}
		})
		check("CountOfClass", func() {
			if n, _ := v.(item.ClassCounter).CountOfClass("Data"); n != 600 {
				t.Fatal("class count lost")
			}
		})
		check("Objects", func() {
			if len(v.Objects()) != 602 {
				t.Fatal("objects lost")
			}
		})
		check("Relationships", func() {
			if len(v.Relationships()) != 0 {
				t.Fatal("relationships appeared")
			}
		})
	})
}
