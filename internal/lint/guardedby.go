package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// GuardedBy enforces the engine's lock discipline at compile time. A
// struct field annotated
//
//	locks map[string]string // seed:guarded-by(mu)
//
// may only be read while `<recv>.mu` is held (RLock or Lock) and only be
// written — assigned, grown, indexed into, deleted from, or have its
// address taken — while the write lock is held, where <recv> is the same
// receiver expression the lock was taken on: locking a.mu does not
// license touching b.locks. The check is intraprocedural with a
// branch-aware walk (a Lock inside one arm of an if does not cover code
// after the merge unless every arm locked; an Unlock on an early-return
// path does not poison the fallthrough path; a `go func(){...}`
// goroutine body starts with no locks held).
//
// Escape hatches, in order of preference:
//
//   - `// seed:locked-caller` in a function's doc comment declares the
//     callers hold the lock (the helper-under-lock pattern); the function
//     body is then exempt.
//   - `// seed:locks-callback(mu)` on a method declares that function
//     literals passed to it run with `<recv>.mu` held (the lock-wrapper
//     pattern, e.g. Database.write); the path may go through fields, as
//     in `seed:locks-callback(db.mu)`. Closure arguments at its call
//     sites are checked under that lock instead of the caller's state.
//   - `// seed:guarded-by(external)` on a field documents state guarded
//     by a lock living outside the struct (core.Engine under db.mu);
//     such fields may only be touched from the declaring type's methods
//     or a seed:locked-caller function.
//   - //lint:ignore guardedby <reason> for the rest.
//
// Freshly constructed values are exempt: writes through a local variable
// assigned from &T{...}, T{...}, or new(T) in the same function happen
// before the value is shared, so constructors need no locks.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated seed:guarded-by(mu) are only accessed with the named lock held on the same receiver",
	Run:  runGuardedBy,
}

var (
	guardedByRe     = regexp.MustCompile(`seed:guarded-by\(([A-Za-z_][A-Za-z0-9_]*)\)`)
	locksCallbackRe = regexp.MustCompile(`seed:locks-callback\(([A-Za-z_][A-Za-z0-9_.]*)\)`)
)

// guard is the parsed annotation of one field.
type guard struct {
	muName   string          // sibling mutex field name; "" when external
	owner    *types.TypeName // declaring struct type
	fieldStr string          // Type.field for messages
}

func (g guard) external() bool { return g.muName == "" }

type lockLevel int

const (
	unheld lockLevel = iota
	readHeld
	writeHeld
)

// lockState maps a rendered lock expression ("receiver.mu") to how it is
// held at a program point.
type lockState map[string]lockLevel

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// merge keeps the weaker level per lock: after a branch join, a lock
// counts as held only if every non-terminating path held it.
func merge(a, b lockState) lockState {
	out := make(lockState)
	for k, v := range a {
		if bv := b[k]; bv < v {
			v = bv
		}
		if v > unheld {
			out[k] = v
		}
	}
	return out
}

func runGuardedBy(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	gb := &guardedBy{pass: pass, guards: guards, wrappers: collectWrappers(pass)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if hasDirective(fn.Doc, "seed:locked-caller") {
				continue
			}
			gb.fn = fn
			gb.fresh = map[types.Object]bool{}
			gb.seen = map[ast.Node]bool{}
			gb.walkStmts(fn.Body.List, lockState{})
		}
	}
	return nil
}

// collectGuards parses seed:guarded-by annotations off struct fields,
// validating that a named mutex is a sibling field.
func collectGuards(pass *Pass) map[*types.Var]guard {
	out := map[*types.Var]guard{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			owner, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			siblings := map[string]bool{}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					siblings[name.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				m := annotationOf(f)
				if m == "" {
					continue
				}
				if m != "external" && !siblings[m] {
					pass.Reportf(f.Pos(),
						"seed:guarded-by(%s): no field named %s in this struct", m, m)
					continue
				}
				mu := m
				if m == "external" {
					mu = ""
				}
				for _, name := range f.Names {
					fv, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					fieldStr := name.Name
					if owner != nil {
						fieldStr = owner.Name() + "." + name.Name
					}
					out[fv] = guard{muName: mu, owner: owner, fieldStr: fieldStr}
				}
			}
			return true
		})
	}
	return out
}

func annotationOf(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

type guardedBy struct {
	pass     *Pass
	guards   map[*types.Var]guard
	wrappers map[types.Object]string // seed:locks-callback methods -> lock path
	fn       *ast.FuncDecl
	fresh    map[types.Object]bool // locals holding freshly constructed values
	seen     map[ast.Node]bool     // nodes already handled specially
}

// collectWrappers gathers methods annotated seed:locks-callback: their
// function-literal arguments run with `<recv>.<path>` held.
func collectWrappers(pass *Pass) map[types.Object]string {
	out := map[types.Object]string{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			if m := locksCallbackRe.FindStringSubmatch(fn.Doc.Text()); m != nil {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					out[obj] = m[1]
				}
			}
		}
	}
	return out
}

// walkStmts processes a statement list in order, threading the lock
// state. It returns the exit state and whether the list always leaves
// the enclosing block (return/branch/panic).
func (gb *guardedBy) walkStmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, stmt := range list {
		var term bool
		st, term = gb.walkStmt(stmt, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (gb *guardedBy) walkStmt(stmt ast.Stmt, st lockState) (lockState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		gb.scanExpr(s.X, false, st)
		st = gb.applyLockOps(s.X, st)
		if isPanic(s.X) {
			return st, true
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			gb.scanExpr(rhs, false, st)
			st = gb.applyLockOps(rhs, st)
		}
		for _, lhs := range s.Lhs {
			gb.scanWrite(lhs, st)
		}
		gb.trackFresh(s)
	case *ast.IncDecStmt:
		gb.scanWrite(s.X, st)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						gb.scanExpr(v, false, st)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			gb.scanExpr(e, false, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.DeferStmt:
		// Deferred calls run at an unknown lock state; skip them. The
		// common `defer mu.Unlock()` therefore correctly keeps the lock
		// held for the rest of the body.
	case *ast.GoStmt:
		// A spawned goroutine starts with no locks held.
		gb.scanExpr(s.Call.Fun, false, lockState{})
		for _, a := range s.Call.Args {
			gb.scanExpr(a, false, lockState{})
		}
	case *ast.BlockStmt:
		inner, term := gb.walkStmts(s.List, st.clone())
		if term {
			return st, true
		}
		st = inner
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = gb.walkStmt(s.Init, st)
		}
		gb.scanExpr(s.Cond, false, st)
		st = gb.applyLockOps(s.Cond, st)
		thenSt, thenTerm := gb.walkStmts(s.Body.List, st.clone())
		elseSt, elseTerm := st.clone(), false
		if s.Else != nil {
			elseSt, elseTerm = gb.walkStmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			st = elseSt
		case elseTerm:
			st = thenSt
		default:
			st = merge(thenSt, elseSt)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = gb.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			gb.scanExpr(s.Cond, false, st)
		}
		bodySt, _ := gb.walkStmts(s.Body.List, st.clone())
		if s.Post != nil {
			gb.walkStmt(s.Post, bodySt)
		}
		st = merge(st, bodySt)
	case *ast.RangeStmt:
		gb.scanExpr(s.X, false, st)
		bodySt, _ := gb.walkStmts(s.Body.List, st.clone())
		st = merge(st, bodySt)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = gb.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			gb.scanExpr(s.Tag, false, st)
		}
		st = gb.walkClauses(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = gb.walkStmt(s.Init, st)
		}
		st = gb.walkClauses(s.Body.List, st)
	case *ast.SelectStmt:
		st = gb.walkClauses(s.Body.List, st)
	case *ast.LabeledStmt:
		return gb.walkStmt(s.Stmt, st)
	case *ast.SendStmt:
		gb.scanExpr(s.Chan, false, st)
		gb.scanExpr(s.Value, false, st)
	}
	return st, false
}

// isPanic reports whether an expression statement is a call to the panic
// builtin, which terminates the enclosing path like a return.
func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// walkClauses handles switch/select bodies: every clause starts from the
// entry state; the exit is the weakest non-terminating clause (or the
// entry when there is no clause that falls through).
func (gb *guardedBy) walkClauses(clauses []ast.Stmt, st lockState) lockState {
	var out lockState
	covered := false
	hasDefault := false
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				gb.scanExpr(e, false, st)
			}
			if cc.List == nil {
				hasDefault = true
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				gb.walkStmt(cc.Comm, st.clone())
			}
			if cc.Comm == nil {
				hasDefault = true
			}
			body = cc.Body
		default:
			continue
		}
		exit, term := gb.walkStmts(body, st.clone())
		if term {
			continue
		}
		if !covered {
			out, covered = exit, true
		} else {
			out = merge(out, exit)
		}
	}
	if !covered {
		return st
	}
	if !hasDefault {
		// Without a default the switch may fall through untouched.
		out = merge(out, st)
	}
	return out
}

// applyLockOps folds calls like recv.mu.Lock() found inside e into the
// state.
func (gb *guardedBy) applyLockOps(e ast.Expr, st lockState) lockState {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Closure bodies are walked separately by scanExpr; their
			// lock ops do not run at this program point.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key, ok := gb.mutexKey(sel.X)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "TryLock":
			st[key] = writeHeld
		case "RLock", "TryRLock":
			if st[key] < readHeld {
				st[key] = readHeld
			}
		case "Unlock", "RUnlock":
			st[key] = unheld
		}
		return true
	})
	return st
}

// mutexKey renders a lock receiver expression (s.mu, db.snapMu) into a
// state key when its type is a sync mutex.
func (gb *guardedBy) mutexKey(e ast.Expr) (string, bool) {
	t := gb.pass.TypesInfo.TypeOf(e)
	if t == nil || !isMutexType(t) {
		return "", false
	}
	key, ok := exprKey(gb.pass, e)
	return key, ok
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// scanWrite checks one assignment target for guarded-field writes, then
// scans it as an expression for nested reads (index expressions etc.).
func (gb *guardedBy) scanWrite(lhs ast.Expr, st lockState) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		gb.checkAccess(l, true, st)
		gb.scanExpr(l.X, false, st)
		return
	case *ast.IndexExpr:
		// s.f[k] = v mutates the container the guarded field holds.
		if sel, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok {
			gb.checkAccess(sel, true, st)
			gb.scanExpr(sel.X, false, st)
		} else {
			gb.scanExpr(l.X, false, st)
		}
		gb.scanExpr(l.Index, false, st)
		return
	case *ast.StarExpr:
		gb.scanExpr(l.X, false, st)
		return
	}
	gb.scanExpr(lhs, false, st)
}

// scanExpr reports guarded-field accesses inside e. write marks the whole
// expression a write target (used for &s.f and delete/clear arguments).
func (gb *guardedBy) scanExpr(e ast.Expr, write bool, st lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if gb.seen[n] {
				return false // walked by the locks-callback handler
			}
			// A closure defined here usually runs here (sort.Slice
			// callbacks, withLock helpers), so it inherits the current
			// state. Goroutine bodies are reset by the GoStmt case.
			gb.walkStmts(n.Body.List, st.clone())
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					gb.checkAccess(sel, true, st)
					gb.scanExpr(sel.X, false, st)
					return false
				}
			}
		case *ast.CallExpr:
			// A call to a seed:locks-callback wrapper runs its closure
			// arguments under the declared lock.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if path, ok := gb.wrappers[gb.pass.TypesInfo.Uses[sel.Sel]]; ok {
					if base, ok := exprKey(gb.pass, sel.X); ok {
						inner := st.clone()
						inner[base+"."+path] = writeHeld
						for _, arg := range n.Args {
							if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
								gb.seen[fl] = true
								gb.walkStmts(fl.Body.List, inner.clone())
							}
						}
					}
				}
			}
			// delete(s.f, k) and clear(s.f) mutate through the field.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := gb.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					if (b.Name() == "delete" || b.Name() == "clear") && len(n.Args) > 0 {
						if sel, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok {
							gb.checkAccess(sel, true, st)
							gb.seen[sel] = true // skip the read re-visit below
						}
					}
				}
			}
		case *ast.SelectorExpr:
			gb.checkAccess(n, write, st)
		}
		return true
	})
}

// checkAccess validates one selector access against the annotations.
func (gb *guardedBy) checkAccess(sel *ast.SelectorExpr, write bool, st lockState) {
	if gb.seen[sel] {
		return
	}
	fv, ok := gb.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	g, ok := gb.guards[fv]
	if !ok {
		return
	}
	if root := rootObj(gb.pass, sel.X); root != nil && gb.fresh[root] {
		return // freshly constructed, not shared yet
	}
	if g.external() {
		if gb.insideOwnerMethod(g) {
			return
		}
		gb.pass.Reportf(sel.Pos(),
			"%s is externally guarded (seed:guarded-by(external)): access it from %s methods or a seed:locked-caller function",
			g.fieldStr, g.owner.Name())
		return
	}
	key, ok := exprKey(gb.pass, sel.X)
	if !ok {
		return // receiver too complex to track; stay quiet
	}
	level := st[key+"."+g.muName]
	recv := exprString(sel.X)
	switch {
	case level == unheld:
		verb := "read of"
		if write {
			verb = "write to"
		}
		gb.pass.Reportf(sel.Pos(),
			"%s %s without holding %s.%s (seed:guarded-by(%s))",
			verb, g.fieldStr, recv, g.muName, g.muName)
	case write && level == readHeld:
		gb.pass.Reportf(sel.Pos(),
			"write to %s while holding only %s.%s.RLock: the write lock is required",
			g.fieldStr, recv, g.muName)
	}
}

func (gb *guardedBy) insideOwnerMethod(g guard) bool {
	if g.owner == nil || gb.fn.Recv == nil || len(gb.fn.Recv.List) == 0 {
		return false
	}
	t := gb.pass.TypesInfo.TypeOf(gb.fn.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == g.owner
}

// trackFresh marks locals assigned a freshly constructed value: writes
// through them precede sharing and need no lock.
func (gb *guardedBy) trackFresh(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := gb.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = gb.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		gb.fresh[obj] = isFreshExpr(gb.pass, s.Rhs[i])
	}
}

func isFreshExpr(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				return b.Name() == "new"
			}
		}
	}
	return false
}

// exprKey renders a receiver expression into a stable key rooted at a
// variable identity, so `s.mu` and `other.mu` never collide and the same
// receiver spelled twice always does.
func exprKey(pass *Pass, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("v%p", obj), true
	case *ast.SelectorExpr:
		base, ok := exprKey(pass, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return exprKey(pass, e.X)
	}
	return "", false
}

// rootObj finds the variable at the base of a selector chain.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// exprString renders a short receiver spelling for messages.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprString(e.X)
	}
	return "recv"
}
