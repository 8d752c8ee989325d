package seed

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// History-sensitive consistency rules — the second open problem the paper
// names ("we have not yet considered history sensitive consistency rules,
// i.e. rules that impose constraints for the transition from a given
// version to its successor"). A TransitionRule inspects the predecessor
// version's view and the state about to be saved; a non-nil error vetoes
// the version creation, leaving the current state unsaved and unchanged.

// Transition describes one version transition to a rule.
type Transition struct {
	// Prev is the view to the version the current work is based on; for
	// the first version it is an empty view.
	Prev View
	// Next is the user view of the state about to be saved: the frozen
	// generation the new version pins, unaffected by later mutations.
	Next View
	// Changed lists the items the new version will freeze (ascending).
	Changed []ID
	// PrevNum is the predecessor's number (empty for the first version).
	PrevNum VersionNumber
	// NextNum is the number the new version will receive.
	NextNum VersionNumber
}

// TransitionRule checks one version transition.
type TransitionRule func(t Transition) error

// RegisterTransitionRule installs a named history-sensitive consistency
// rule, evaluated by every subsequent SaveVersion. Re-registering a name
// replaces the rule; a nil rule removes it.
func (db *Database) RegisterTransitionRule(name string, rule TransitionRule) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.transitions == nil {
		db.transitions = make(map[string]TransitionRule)
	}
	if rule == nil {
		delete(db.transitions, name)
		return
	}
	db.transitions[name] = rule
}

// checkTransitions evaluates all registered rules for the upcoming save:
// Next is the generation about to be saved, Prev the base version's view
// through the pin set.
//
// seed:locked-caller — SaveVersion holds db.mu across the check.
func (db *Database) checkTransitions(next *snapshotCache) error {
	if len(db.transitions) == 0 {
		return nil
	}
	tr := Transition{
		Next:    next.userView(),
		Changed: db.engine.DirtyIDs(),
		NextNum: db.vers.NextNumber(),
	}
	if base := db.vers.Base(); base != nil {
		prev, err := db.versionSnapLocked(base)
		if err != nil {
			return err
		}
		tr.Prev, tr.PrevNum = prev.userView(), base.Num
	} else {
		empty, err := core.FreezeItems(db.engine.Schema(), nil, nil, nil)
		if err != nil {
			return err
		}
		tr.Prev = empty
	}
	names := make([]string, 0, len(db.transitions))
	for name := range db.transitions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := db.transitions[name](tr); err != nil {
			return fmt.Errorf("seed: transition rule %q vetoed version %s: %w", name, tr.NextNum, err)
		}
	}
	return nil
}
