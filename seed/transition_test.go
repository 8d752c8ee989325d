package seed

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestTransitionRules exercises the history-sensitive consistency rules:
// the paper's open problem of constraints on the transition from a version
// to its successor.
func TestTransitionRules(t *testing.T) {
	db := memDB(t, Figure3Schema())

	// Rule: 'Revised' dates must never move backwards between versions.
	db.RegisterTransitionRule("revisedMonotonic", func(tr Transition) error {
		for _, id := range tr.Changed {
			next, ok := tr.Next.Object(id)
			if !ok || next.Class.Name() != "Revised" {
				continue
			}
			prev, ok := tr.Prev.Object(id)
			if !ok || !prev.Value.IsDefined() || !next.Value.IsDefined() {
				continue
			}
			if next.Value.Date().Before(prev.Value.Date()) {
				return fmt.Errorf("Revised of item %d moved backwards (%s -> %s)",
					id, prev.Value, next.Value)
			}
		}
		return nil
	})

	h, _ := db.CreateObject("Action", "H")
	rev, _ := db.CreateValueObject(h, "Revised",
		NewDate(time.Date(1986, 2, 1, 0, 0, 0, 0, time.UTC)))
	v1, err := db.SaveVersion("first")
	if err != nil {
		t.Fatal(err)
	}

	// Moving the date forward is fine.
	if err := db.SetValue(rev, NewDate(time.Date(1986, 3, 1, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("forward"); err != nil {
		t.Fatal(err)
	}

	// Moving it backwards is vetoed at version creation.
	if err := db.SetValue(rev, NewDate(time.Date(1985, 1, 1, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("backward"); err == nil {
		t.Fatal("backwards transition accepted")
	}
	// The veto leaves the state unsaved but intact; fixing the value lets
	// the save proceed.
	if db.Stats().Core.DirtySinceFreeze == 0 {
		t.Error("dirty state cleared despite veto")
	}
	if err := db.SetValue(rev, NewDate(time.Date(1986, 4, 1, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("fixed"); err != nil {
		t.Fatal(err)
	}
	_ = v1
}

func TestTransitionRuleDeletionGuard(t *testing.T) {
	db := memDB(t, Figure3Schema())
	// Rule: released objects (anything present in the previous version)
	// may not be deleted.
	db.RegisterTransitionRule("noDeleteReleased", func(tr Transition) error {
		for _, id := range tr.Changed {
			if _, stillThere := tr.Next.Object(id); stillThere {
				continue
			}
			if _, existed := tr.Prev.Object(id); existed {
				return errors.New("released object deleted")
			}
		}
		return nil
	})
	a, _ := db.CreateObject("Action", "Released")
	if _, err := db.SaveVersion("release"); err != nil {
		t.Fatal(err)
	}
	// A scratch object created and deleted within one transition is fine.
	b, _ := db.CreateObject("Action", "Scratch")
	_ = db.Delete(b)
	if _, err := db.SaveVersion("scratch churn"); err != nil {
		t.Fatalf("scratch deletion vetoed: %v", err)
	}
	// Deleting the released object is vetoed.
	if err := db.Delete(a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("illegal delete"); err == nil {
		t.Fatal("deletion of released object accepted")
	}
	// Removing the rule lifts the veto.
	db.RegisterTransitionRule("noDeleteReleased", nil)
	if _, err := db.SaveVersion("now allowed"); err != nil {
		t.Fatal(err)
	}
}

func TestTransitionRuleFirstVersion(t *testing.T) {
	db := memDB(t, Figure3Schema())
	var sawEmptyPrev bool
	db.RegisterTransitionRule("probe", func(tr Transition) error {
		sawEmptyPrev = len(tr.Prev.Objects()) == 0 && len(tr.PrevNum) == 0
		if tr.NextNum.String() != "1.0" {
			return fmt.Errorf("unexpected next number %s", tr.NextNum)
		}
		return nil
	})
	create(t, db, "Action", "A")
	if _, err := db.SaveVersion("first"); err != nil {
		t.Fatal(err)
	}
	if !sawEmptyPrev {
		t.Error("first transition should see an empty predecessor view")
	}
}

// TestTransitionViewsAreFrozen: a rule may keep Transition.Next and
// Transition.Prev past the save. Next is the generation the new version
// pins, so later mutations never show through it; Prev is the base
// version's view.
func TestTransitionViewsAreFrozen(t *testing.T) {
	db := memDB(t, Figure3Schema())
	var next, prev View
	db.RegisterTransitionRule("keep", func(tr Transition) error {
		next, prev = tr.Next, tr.Prev
		return nil
	})
	a := create(t, db, "Action", "A")
	v1, err := db.SaveVersion("with A")
	if err != nil {
		t.Fatal(err)
	}
	kept := next
	if err := db.Delete(a); err != nil {
		t.Fatal(err)
	}
	if _, ok := kept.Object(a); !ok {
		t.Fatal("Transition.Next lost A after a later Delete: it reads live state")
	}
	if v, _ := db.VersionView(v1); v != kept {
		t.Error("Transition.Next is not the generation version 1.0 pins")
	}
	if _, err := db.SaveVersion("without A"); err != nil {
		t.Fatal(err)
	}
	if _, ok := prev.Object(a); !ok {
		t.Error("Transition.Prev of 2.0 is not the view to 1.0")
	}
	if _, ok := next.Object(a); ok {
		t.Error("Transition.Next of 2.0 still holds the deleted A")
	}
}
