package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FrozenMut enforces the item.View mutability contract (DESIGN.md
// section 7): every slice a frozen view accessor hands out — Children,
// RelationshipsOf, Objects, Relationships, ObjectsOfClass,
// InheritsRelationships — and the Ends slice inside a Relationship
// returned by View.Relationship is shared, immutable data backing every
// concurrent reader of a generation. A write through one of them is a
// data race against every other snapshot reader and corrupts the chunks
// later generations share with it.
//
// The check is intraprocedural: values produced by an accessor call on
// anything implementing item.View (or by a package-local function, method,
// or interface method marked `//seedlint:frozen` — the item store's
// children/childrenAll/relsOf accessors) are tracked through local
// assignments and reslicing, and the following operations on them are
// flagged:
//
//   - element or map assignment:  fr[i] = x, fr[i] += x, fr[i]++
//   - taking an element address:  &fr[i]
//   - in-place growth aliasing:   append(fr, ...) as the first argument
//   - builtin mutation:           copy(fr, ...), delete(fr, k), clear(fr)
//   - known mutating callees:     sort.* / slices.* in-place families
//   - Relationship end mutation:  r.SortEnds(), and r.Ends via the rules
//     above
//
// The blessed escape is an explicit clone — append([]T(nil), fr...),
// slices.Clone(fr), Relationship.Clone/CloneEnds — which launders the
// value; a deliberate exception takes //lint:ignore frozenmut with a
// reason.
var FrozenMut = &Analyzer{
	Name: "frozenmut",
	Doc:  "no in-place mutation of shared slices handed out by frozen item.View accessors",
	Run:  runFrozenMut,
}

// frozenKind classifies what a tracked value shares with the snapshot.
type frozenKind int

const (
	notFrozen  frozenKind = iota
	frozenData            // shared slice or map
	frozenRel             // Relationship value whose Ends slice is shared
)

// viewAccessors maps item.View (and extension) method names to the kind
// of their first result.
var viewAccessors = map[string]frozenKind{
	"Children":              frozenData,
	"RelationshipsOf":       frozenData,
	"Objects":               frozenData,
	"Relationships":         frozenData,
	"ObjectsOfClass":        frozenData,
	"InheritsRelationships": frozenData,
	"Relationship":          frozenRel,
}

// inPlaceMutators lists callees from the standard library that mutate
// their first slice argument.
var inPlaceMutators = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Strings": true, "Ints": true,
		"Float64s": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
		"Reverse": true, "Compact": true, "CompactFunc": true,
		"Delete": true, "DeleteFunc": true, "Insert": true, "Replace": true,
	},
}

func runFrozenMut(pass *Pass) error {
	view := findViewInterface(pass.Pkg)
	frozenFuncs := localFrozenFuncs(pass)
	if view == nil && len(frozenFuncs) == 0 {
		return nil // package nowhere near a frozen view
	}
	fm := &frozenMut{pass: pass, view: view, frozenFuncs: frozenFuncs}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fm.taint = make(map[types.Object]frozenKind)
			ast.Inspect(fn.Body, fm.visit)
		}
	}
	return nil
}

// findViewInterface locates the item.View interface: in the current
// package if it is named item, else anywhere in the import graph. The
// source importer records complete import edges, so a breadth-first walk
// terminates quickly.
func findViewInterface(pkg *types.Package) *types.Interface {
	if pkg == nil {
		return nil
	}
	seen := map[*types.Package]bool{}
	queue := []*types.Package{pkg}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		if p.Name() == "item" || p == pkg {
			if tn, ok := p.Scope().Lookup("View").(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
		queue = append(queue, p.Imports()...)
	}
	return nil
}

// localFrozenFuncs collects the package-local declarations whose doc
// carries //seedlint:frozen — their first result is shared immutable data.
// The directive is honored on plain functions, on methods (the item store's
// children/childrenAll/relsOf accessors), and on interface method fields, so
// both concrete and interface-dispatched calls resolve to a marked object.
func localFrozenFuncs(pass *Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(name *ast.Ident) {
		if obj := pass.TypesInfo.Defs[name]; obj != nil {
			out[obj] = true
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if hasDirective(decl.Doc, "seedlint:frozen") {
					mark(decl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					iface, ok := ts.Type.(*ast.InterfaceType)
					if !ok || iface.Methods == nil {
						continue
					}
					for _, field := range iface.Methods.List {
						if !hasDirective(field.Doc, "seedlint:frozen") {
							continue
						}
						for _, name := range field.Names {
							mark(name)
						}
					}
				}
			}
		}
	}
	return out
}

type frozenMut struct {
	pass        *Pass
	view        *types.Interface
	frozenFuncs map[types.Object]bool
	taint       map[types.Object]frozenKind
}

// visit handles one node of a function body in source order: assignments
// first propagate taint, then every mutation form is checked.
func (fm *frozenMut) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		fm.assign(n)
	case *ast.IncDecStmt:
		if k, src := fm.elemTarget(n.X); k != notFrozen {
			fm.report(n.Pos(), "increment of an element of the shared %s", src)
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if fm.kindOf(idx.X) != notFrozen {
					fm.report(n.Pos(), "taking the address of an element of a shared frozen-view slice")
				}
			}
		}
	case *ast.CallExpr:
		fm.call(n)
	}
	return true
}

// assign propagates frozen taint through `x := fr` / `x = fr` and flags
// writes into frozen containers on the left-hand side.
func (fm *frozenMut) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		if k, src := fm.elemTarget(lhs); k != notFrozen {
			fm.report(lhs.Pos(), "write into the shared %s", src)
		}
	}
	// Taint propagation. Two shapes: parallel assignment (len matches)
	// and the comma-ok / multi-result call (one rhs).
	kinds := make([]frozenKind, len(n.Lhs))
	if len(n.Rhs) == len(n.Lhs) {
		for i, rhs := range n.Rhs {
			kinds[i] = fm.kindOf(rhs)
		}
	} else if len(n.Rhs) == 1 {
		// r, ok := v.Relationship(id): the first result carries the kind.
		kinds[0] = fm.kindOf(n.Rhs[0])
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := fm.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = fm.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		// Assigning a fresh value launders the variable; assigning a
		// frozen one taints it.
		fm.taint[obj] = kinds[i]
	}
}

// elemTarget reports whether lhs writes into a frozen container: an
// index expression fr[i] (or r.Ends[i]) whose base is frozen, possibly
// behind further field selection (r.Ends[0].Role = ...).
func (fm *frozenMut) elemTarget(lhs ast.Expr) (frozenKind, string) {
	e := ast.Unparen(lhs)
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(t.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(t.X)
			continue
		case *ast.IndexExpr:
			if k := fm.kindOf(t.X); k != notFrozen {
				return k, fm.describe(t.X)
			}
			e = ast.Unparen(t.X)
			continue
		}
		return notFrozen, ""
	}
}

func (fm *frozenMut) describe(e ast.Expr) string {
	t := fm.pass.TypesInfo.TypeOf(e)
	kind := "slice"
	if t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			kind = "map"
		}
	}
	return kind + " returned by a frozen view accessor (clone before mutating)"
}

// call flags mutating callees applied to frozen values.
func (fm *frozenMut) call(n *ast.CallExpr) {
	// Builtins: append/copy/delete/clear.
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if b, ok := fm.pass.TypesInfo.Uses[id].(*types.Builtin); ok && len(n.Args) > 0 {
			if fm.kindOf(n.Args[0]) != notFrozen {
				switch b.Name() {
				case "append":
					fm.report(n.Pos(), "append to a shared frozen-view slice may write into the shared backing array: clone first (append([]T(nil), s...))")
				case "copy":
					fm.report(n.Pos(), "copy into a shared frozen-view slice")
				case "delete":
					fm.report(n.Pos(), "delete from a shared frozen-view map")
				case "clear":
					fm.report(n.Pos(), "clear of shared frozen-view data")
				}
			}
			return
		}
	}
	// sort.X(fr, ...) / slices.X(fr, ...) package-level mutators.
	if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
		if obj, ok := fm.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
			if set, ok := inPlaceMutators[obj.Pkg().Path()]; ok && set[obj.Name()] {
				if len(n.Args) > 0 && fm.kindOf(n.Args[0]) != notFrozen {
					fm.report(n.Pos(),
						"%s.%s sorts/mutates a shared frozen-view slice in place: clone it first",
						obj.Pkg().Name(), obj.Name())
				}
				return
			}
			// r.SortEnds() on a relationship with shared ends.
			if obj.Name() == "SortEnds" && fm.kindOf(sel.X) == frozenRel {
				fm.report(n.Pos(),
					"SortEnds reorders the shared Ends slice of a relationship read from a frozen view: use CloneEnds or Clone first")
			}
		}
	}
}

// kindOf classifies an expression: does evaluating it yield shared
// frozen-view data?
func (fm *frozenMut) kindOf(e ast.Expr) frozenKind {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := fm.pass.TypesInfo.Uses[e]; obj != nil {
			return fm.taint[obj]
		}
	case *ast.SliceExpr:
		return fm.kindOf(e.X)
	case *ast.SelectorExpr:
		// r.Ends on a frozen relationship is the shared slice itself.
		if e.Sel.Name == "Ends" && fm.kindOf(e.X) == frozenRel {
			return frozenData
		}
	case *ast.CallExpr:
		return fm.callResult(e)
	}
	return notFrozen
}

// callResult classifies the (first) result of a call expression.
func (fm *frozenMut) callResult(call *ast.CallExpr) frozenKind {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := fm.pass.TypesInfo.Uses[fun]; obj != nil && fm.frozenFuncs[origin(obj)] {
			return frozenData
		}
	case *ast.SelectorExpr:
		// A method (or interface method) marked //seedlint:frozen.
		if obj := fm.pass.TypesInfo.Uses[fun.Sel]; obj != nil && fm.frozenFuncs[origin(obj)] {
			return frozenData
		}
		sel := fm.pass.TypesInfo.Selections[fun]
		if sel == nil || sel.Kind() != types.MethodVal {
			// Package-qualified function: only the local directive set
			// applies, and those are plain idents.
			return notFrozen
		}
		kind, ok := viewAccessors[fun.Sel.Name]
		if !ok || fm.view == nil {
			return notFrozen
		}
		recv := sel.Recv()
		if types.Implements(recv, fm.view) ||
			types.Implements(types.NewPointer(recv), fm.view) {
			return kind
		}
	}
	return notFrozen
}

// origin maps a use of an instantiated generic function or method (item.Run's
// Slice, say) to the declaration that carries the directive.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func (fm *frozenMut) report(pos token.Pos, format string, args ...any) {
	fm.pass.Reportf(pos, format, args...)
}
