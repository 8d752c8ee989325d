package item

import (
	"sync"
	"sync/atomic"
)

// Sym is an interned string: a dense uint32 index into a SymTab. Symbols
// compare and hash as machine words, and the columnar engine state stores
// them in place of string headers — 4 bytes instead of 16 plus the backing
// array, with every repeated attribute name, role, class name, or short
// value sharing one allocation.
type Sym uint32

// NoSym is the reserved symbol of the empty string. Row encodings use it
// for "no role", "no name", and "no value string".
const NoSym Sym = 0

// SymTab is an append-only symbol table. Interning takes a write lock;
// symbol-to-string resolution (Str) is lock-free and safe concurrently with
// interning, so frozen snapshot generations can share the live table: a
// symbol, once published, never changes meaning and is never removed.
//
// The table is append-only by design — symbols of deleted items stay
// resident until the table is rebuilt wholesale (engine Restore and
// snapshot load start from a fresh table).
type SymTab struct {
	mu    sync.RWMutex
	index map[string]Sym
	strs  atomic.Pointer[[]string] // published prefix; entries are immutable
}

// NewSymTab returns a table holding only the reserved empty symbol.
func NewSymTab() *SymTab {
	t := &SymTab{index: map[string]Sym{"": NoSym}}
	strs := []string{""}
	t.strs.Store(&strs)
	return t
}

// symTabOf returns a table holding strs at their positions — a table read
// back by DecodeSymTab. Where a string repeats, its first symbol wins.
func symTabOf(strs []string) *SymTab {
	t := &SymTab{index: make(map[string]Sym, len(strs))}
	for i := len(strs) - 1; i >= 0; i-- {
		t.index[strs[i]] = Sym(i)
	}
	t.strs.Store(&strs)
	return t
}

// Intern returns the symbol of s, allocating one on first sight.
func (t *SymTab) Intern(s string) Sym {
	t.mu.RLock()
	sym, ok := t.index[s]
	t.mu.RUnlock()
	if ok {
		return sym
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sym, ok := t.index[s]; ok {
		return sym
	}
	strs := append(*t.strs.Load(), s)
	sym = Sym(len(strs) - 1)
	t.index[s] = sym
	// Publish a fresh header after the append: readers loaded through the
	// pointer only ever see fully written entries.
	t.strs.Store(&strs)
	return sym
}

// Lookup resolves a string to its symbol without interning it.
func (t *SymTab) Lookup(s string) (Sym, bool) {
	t.mu.RLock()
	sym, ok := t.index[s]
	t.mu.RUnlock()
	return sym, ok
}

// Str resolves a symbol. Out-of-range symbols resolve to "" — a symbol a
// caller did not obtain from this table is a bug, not a panic. Str is
// lock-free: concurrent frozen readers resolve symbols while the writer
// interns new ones.
func (t *SymTab) Str(sym Sym) string {
	strs := *t.strs.Load()
	if int(sym) >= len(strs) {
		return ""
	}
	return strs[sym]
}

// Len returns the number of interned symbols (including the empty symbol).
func (t *SymTab) Len() int { return len(*t.strs.Load()) }

// Strs returns the published strings as an immutable snapshot indexed by
// symbol. The table only appends and never rewrites an entry, so frozen
// generations hold the snapshot and resolve symbols lock-free while the
// writer keeps interning.
func (t *SymTab) Strs() []string { return *t.strs.Load() }
