package core

import (
	"errors"
	"fmt"

	"repro/internal/item"
)

// Transactions group several operations into one atomic unit: the paper's
// client/server sketch requires the server to put a whole updated copy back
// "in a single transaction". Consistency is still checked eagerly per
// operation — SEED never holds inconsistent intermediate states — so a
// transaction is an undo scope plus deferred journaling, not a deferred
// validation scope.
//
// The transaction is the engine's only undo, claim and journal scope. A
// mutator called with no transaction active runs in a one-operation
// transaction the engine owns and reuses: it commits its records to the
// journal sink as one batch when the operation is accepted, and rolls back
// when the operation is refused or the sink fails. A replayed journal batch
// (ApplyRecords) runs in the same one-operation transaction.
//
// Several transactions may be open at once (the server stages one per
// concurrent check-in). Each Tx carries its own undo log, its own pending
// journal records, and its own write set of touched items and names. The
// engine itself remains externally synchronized: the caller (seed.Database)
// holds its write lock around every operation and tells the engine which
// transaction the operation belongs to via SetActiveTx. What makes the
// interleaving safe is the claim discipline: every operation claims the
// items (and independent-object names) it will perturb before mutating, and
// a claim conflicts — ErrTxConflict, retryable — when another open
// transaction holds it or when the item changed after this transaction's
// pinned base generation. Disjoint write sets therefore stage and roll back
// independently; overlapping ones are rejected at validation time, never
// half-applied.

// ErrTxConflict reports an overlap between concurrent transactions (or a
// commit that landed after this transaction's base generation). It is
// retryable: roll back, re-read, and re-stage.
var ErrTxConflict = errors.New("core: conflicting concurrent transaction")

// Tx is one open transaction: a private undo log, the journal records
// pending for commit, and the write set used for conflict detection. A Tx is
// created by BeginTx and finished by exactly one CommitTx or RollbackTx.
type Tx struct {
	baseGen uint64           // engine commit generation pinned at begin
	touched map[item.ID]bool // items this transaction may have perturbed
	names   map[string]bool  // independent-object names claimed
	undo    []func()         // inverse steps, in application order
	pending [][]byte         // validated journal records awaiting commit
}

// BeginTx opens a new transaction. Any number may be open concurrently;
// operations are attributed to one of them via SetActiveTx.
func (en *Engine) BeginTx() *Tx {
	tx := &Tx{
		baseGen: en.commitGen,
		touched: make(map[item.ID]bool),
		names:   make(map[string]bool),
	}
	en.open[tx] = true
	return tx
}

// SetActiveTx attributes subsequent operations to tx (nil: each operation
// runs in its own one-operation transaction). The caller owns the engine's
// synchronization and must keep the active transaction set for the
// duration of each operation.
func (en *Engine) SetActiveTx(tx *Tx) { en.curTx = tx }

// ClearActiveTx restores one-operation transactions.
func (en *Engine) ClearActiveTx() { en.curTx = nil }

// InTx reports whether any transaction is open.
func (en *Engine) InTx() bool { return len(en.open) > 0 }

// OpenTxs returns the number of open transactions.
func (en *Engine) OpenTxs() int { return len(en.open) }

// CommitTx makes tx's operations permanent and returns its journal records
// in application order. The caller is responsible for appending them to the
// log as one atomic batch; the engine's own journal sink is not invoked (the
// records were encoded against it at staging time).
func (en *Engine) CommitTx(tx *Tx) ([][]byte, error) {
	if tx == nil || !en.open[tx] {
		return nil, fmt.Errorf("%w: no such open transaction", ErrTxState)
	}
	en.closeTx(tx)
	en.publish(tx)
	records := tx.pending
	tx.pending, tx.undo = nil, nil
	return records, nil
}

// Records returns the journal records tx has staged so far, in application
// order, without ending it; the caller must not modify them. A caller whose
// log bounds a record sizes the write set from them before CommitTx
// publishes it.
func (tx *Tx) Records() [][]byte { return tx.pending }

// RollbackTx undoes every operation of tx and discards its records.
func (en *Engine) RollbackTx(tx *Tx) error {
	if tx == nil || !en.open[tx] {
		return fmt.Errorf("%w: no such open transaction", ErrTxState)
	}
	en.closeTx(tx)
	en.abort(tx)
	tx.pending, tx.undo = nil, nil
	return nil
}

// beginOp attributes the public mutation about to run to the active
// transaction or, when none is active, to the engine's one-operation
// transaction, and reports whether it opened the latter. Every public
// mutator starts with
//
//	defer en.endOp(en.beginOp(), &id, &err)
//
// so the one-operation transaction ends when the mutator returns — or
// panics — and a mutator composed of others (CreateValueObject) runs them
// inside its own transaction.
func (en *Engine) beginOp() bool {
	if en.curTx != nil {
		return false
	}
	en.one.baseGen = en.commitGen
	en.curTx = &en.one
	return true
}

// endOp ends a public mutation. When its beginOp opened the one-operation
// transaction (own), the transaction commits — its records go to the
// journal sink as one batch and its write set is published — or, when the
// operation was refused, the sink failed or the operation panicked, rolls
// back, so an error always means the state is unchanged (and *id, for a
// mutator that returns one, is NoID). Inside a caller's transaction the
// operation stays staged.
func (en *Engine) endOp(own bool, id *item.ID, err *error) {
	if !own {
		return
	}
	tx := en.curTx
	en.curTx = nil
	defer tx.reset()
	if r := recover(); r != nil {
		en.abort(tx)
		panic(r)
	}
	if *err == nil && en.journal != nil && len(tx.pending) > 0 {
		if jerr := en.journal(tx.pending); jerr != nil {
			*err = fmt.Errorf("core: journaling operation: %w", jerr)
		}
	}
	if *err == nil {
		en.publish(tx)
		return
	}
	en.abort(tx)
	if id != nil {
		*id = item.NoID
	}
}

// publish makes a committed write set part of the next frozen generation's
// delta and raises the committed ID mark past the items it created. While
// other transactions are open it also stamps every touched item and name
// with a fresh commit generation, so transactions that began earlier can no
// longer claim them; with none open a stamp could never conflict, and none
// is written.
func (en *Engine) publish(tx *Tx) {
	for id := range tx.touched {
		en.snapDirty[id] = true
		if id >= en.idMark && en.Contains(id) {
			en.bumpID(id)
		}
	}
	if len(en.open) == 0 {
		return
	}
	en.commitGen++
	for id := range tx.touched {
		en.modGen[id] = en.commitGen
	}
	for name := range tx.names {
		en.nameGen[name] = en.commitGen
	}
}

// abort undoes every step of tx. The snapshot marks are conservative: the
// touched items are back in their pre-transaction state, and the next delta
// freeze re-reads that state from the live maps — a spurious patch, never a
// wrong one.
func (en *Engine) abort(tx *Tx) {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i]()
	}
	for id := range tx.touched {
		en.snapDirty[id] = true
	}
}

// reset empties the one-operation transaction for reuse. A write set that
// grew large (a deletion cascade, a replayed batch) is replaced rather than
// cleared, undo log included, so later operations neither pay for clearing
// its capacity nor keep it. Names stay few: an operation claims at most one.
func (tx *Tx) reset() {
	clear(tx.undo)
	tx.undo, tx.pending = tx.undo[:0], tx.pending[:0]
	if len(tx.touched) > 64 {
		tx.touched, tx.undo = make(map[item.ID]bool), nil
	} else {
		clear(tx.touched)
	}
	clear(tx.names)
}

// closeTx removes tx from the open set and from the attribution field.
func (en *Engine) closeTx(tx *Tx) {
	delete(en.open, tx)
	if en.curTx == tx {
		en.curTx = nil
	}
	if len(en.open) == 0 {
		// No transaction is open, so every conflict stamp predates every
		// future transaction's base generation and can never conflict
		// again — drop them once they outgrow a small working set, or the
		// maps would accumulate one entry per item and name ever touched.
		if len(en.modGen) > staleStampCap {
			en.modGen = make(map[item.ID]uint64)
		}
		if len(en.nameGen) > staleStampCap {
			en.nameGen = make(map[string]uint64)
		}
	}
}

// staleStampCap bounds the dead conflict-stamp maps retained across
// quiescent moments (an allocation-churn/memory tradeoff, not semantics).
const staleStampCap = 1024

// ---- Claims ----

// claimItems records the given items in the active transaction's write set,
// rejecting the operation when another open transaction already holds one of
// them or when one changed after the active transaction began. With no
// transaction open the active one is a one-operation transaction that
// nothing can conflict with, and nothing is recorded. Claims survive a
// failed (rolled-back) operation until the transaction ends: conservative,
// and exactly the two-phase-locking shape the server's check-out locks
// already impose.
func (en *Engine) claimItems(ids ...item.ID) error {
	if len(en.open) == 0 {
		return nil
	}
	tx := en.curTx
	for _, id := range ids {
		if id == item.NoID || tx.touched[id] {
			continue
		}
		for other := range en.open {
			if other != tx && other.touched[id] {
				return fmt.Errorf("%w: item %d is claimed by a concurrent transaction", ErrTxConflict, id)
			}
		}
		if en.modGen[id] > tx.baseGen {
			return fmt.Errorf("%w: item %d changed since the transaction began", ErrTxConflict, id)
		}
		tx.touched[id] = true
	}
	return nil
}

// claimName is claimItems for independent-object names: creation and
// deletion of a named root perturb the name index, and two transactions
// racing on one name (create/create or delete/create) must conflict instead
// of corrupting each other's undo.
func (en *Engine) claimName(name string) error {
	if len(en.open) == 0 {
		return nil
	}
	tx := en.curTx
	if tx.names[name] {
		return nil
	}
	for other := range en.open {
		if other != tx && other.names[name] {
			return fmt.Errorf("%w: name %q is claimed by a concurrent transaction", ErrTxConflict, name)
		}
	}
	if en.nameGen[name] > tx.baseGen {
		return fmt.Errorf("%w: name %q changed since the transaction began", ErrTxConflict, name)
	}
	tx.names[name] = true
	return nil
}

// commitRecord stages a validated operation's journal record on the active
// transaction; the record reaches the log when the transaction commits.
func (en *Engine) commitRecord(record []byte) {
	if record != nil {
		en.curTx.pending = append(en.curTx.pending, record)
	}
}
