package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// OpExhaustive keeps every `switch` over wire.Op and every map literal
// keyed by wire.Op honest. A dispatch switch must either list every
// declared op constant or carry an explicit non-empty `default` clause that
// handles the unexpected op; a non-empty map literal (the server's op
// table) must have a key for every declared op. The point is the day
// OpWatch lands: each such switch and table then fails the lint until the
// new op is placed deliberately, instead of silently falling through to
// zero-value behavior. An empty default would re-open exactly that hole, so
// it is flagged too; an empty literal is an empty container, not a table.
var OpExhaustive = &Analyzer{
	Name: "opexhaustive",
	Doc:  "switches over wire.Op must cover every op or carry an explicit non-empty default; map literals keyed by wire.Op must cover every op",
	Run:  runOpExhaustive,
}

func runOpExhaustive(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				if n.Tag != nil {
					checkOpSwitch(pass, n)
				}
			case *ast.CompositeLit:
				checkOpMap(pass, n)
			}
			return true
		})
	}
	return nil
}

// opType reports the named type if t is the wire op enumeration: a named
// type called Op declared in a package named wire.
func opType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if obj.Name() != "Op" || obj.Pkg().Name() != "wire" {
		return nil
	}
	return named
}

// missingOps lists, sorted, the declared constants of the op type — from the
// defining package's scope, which the export data and the source importer
// both carry — that none of the covering expressions names.
func missingOps(pass *Pass, named *types.Named, covering []ast.Expr) []string {
	covered := make(map[string]bool)
	for _, e := range covering {
		if c := constOf(pass, e); c != nil {
			covered[c.Name()] = true
		}
	}
	var missing []string
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && types.Identical(c.Type(), named) && !covered[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

func checkOpSwitch(pass *Pass, sw *ast.SwitchStmt) {
	named := opType(pass.TypesInfo.TypeOf(sw.Tag))
	if named == nil {
		return
	}
	hasDefault := false
	var cases []ast.Expr
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			if len(cc.Body) == 0 {
				pass.Reportf(cc.Pos(),
					"switch over %s.Op has an empty default: handle the unknown op explicitly (return a wire error)",
					named.Obj().Pkg().Name())
			}
		}
		cases = append(cases, cc.List...)
	}
	if hasDefault {
		return
	}
	if missing := missingOps(pass, named, cases); len(missing) > 0 {
		pass.Reportf(sw.Pos(),
			"switch over %s.Op without default does not cover %s: add the case or an explicit default returning a wire error",
			named.Obj().Pkg().Name(), strings.Join(missing, ", "))
	}
}

// checkOpMap reports a non-empty map literal keyed by the op type that lacks
// a row for some declared op.
func checkOpMap(pass *Pass, lit *ast.CompositeLit) {
	m, ok := pass.TypesInfo.TypeOf(lit).(*types.Map)
	if !ok || len(lit.Elts) == 0 {
		return
	}
	named := opType(m.Key())
	if named == nil {
		return
	}
	var keys []ast.Expr
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			keys = append(keys, kv.Key)
		}
	}
	if missing := missingOps(pass, named, keys); len(missing) > 0 {
		pass.Reportf(lit.Pos(), "map literal keyed by %s.Op does not cover %s: add the row",
			named.Obj().Pkg().Name(), strings.Join(missing, ", "))
	}
}

// constOf resolves a case expression to the declared constant it names.
func constOf(pass *Pass, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := pass.TypesInfo.Uses[id].(*types.Const)
	return c
}
