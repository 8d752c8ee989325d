// Cost-based planning: Run picks the most selective access path the view
// supports — exact name, ordered-name-index prefix range, attribute index
// (equality or range), class index, or the full scan — from index
// cardinalities, and reorders the residual predicates most-selective-first.
// Every path feeds the same executor, which re-runs the full predicate set
// on each candidate, so all plans return identical results; the plan only
// changes how few candidates the run touches. The one restriction the
// executor takes on trust is the class: a class-path candidate is, by the
// item.IndexedView contract, a visible object of the class family.
package query

import (
	"fmt"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// Access names a query access path.
type Access uint8

// The access paths. AccessAuto lets the planner choose; the others force a
// path (Force), falling back to the scan when the forced path does not
// apply to the query or the view.
const (
	AccessAuto Access = iota
	AccessScan
	AccessName
	AccessClass
	AccessAttrEq
	AccessAttrRange
)

// String returns the surface spelling of the access path.
func (a Access) String() string {
	switch a {
	case AccessAuto:
		return "auto"
	case AccessScan:
		return "scan"
	case AccessName:
		return "name"
	case AccessClass:
		return "class"
	case AccessAttrEq:
		return "attr-eq"
	case AccessAttrRange:
		return "attr-range"
	}
	return "access?"
}

// ParseAccess parses the surface spelling of an access path.
func ParseAccess(s string) (Access, error) {
	for a := AccessAuto; a <= AccessAttrRange; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown access path %q", ErrBadQuery, s)
}

// Plan reports how one Run executed: the chosen access path, the index that
// drove it, and estimated vs actual cardinalities.
type Plan struct {
	Access     Access
	Index      string // index behind the path: class name, "Class/Role.Path", or the literal name
	Est        int    // estimated candidates from index sizes (scan: the scan length)
	Candidates int    // candidates actually enumerated
	Matched    int    // matches observed (the run stops once limit+offset are satisfied)
	Residual   int    // predicates evaluated as filters over the candidates
	Forced     bool   // access path was forced, not planned
}

// String renders the plan in the explain surface form.
func (p *Plan) String() string {
	s := fmt.Sprintf("access=%s", p.Access)
	if p.Index != "" {
		s += fmt.Sprintf(" index=%q", p.Index)
	}
	s += fmt.Sprintf(" est=%d candidates=%d matched=%d residual=%d", p.Est, p.Candidates, p.Matched, p.Residual)
	if p.Forced {
		s += " forced"
	}
	return s
}

// Force pins the access path instead of letting the planner choose — the
// differential tests and the explain surface compare paths with it. A
// forced path that does not apply (no such index, no class restriction)
// falls back to the scan; the returned plan reports what actually ran.
func (q *Query) Force(a Access) *Query {
	q.force = a
	return q
}

// choice is one candidate access path with its cardinality estimate. The
// candidate list materializes lazily — only the winning choice pays for it.
type choice struct {
	access Access
	index  string
	est    int
	pred   int // predicate index an attr path consumes; -1 otherwise
	cands  func() []item.ID
}

// RunPlan evaluates the query like Run and also returns the executed plan.
func (q *Query) RunPlan(v item.View) ([]item.ID, *Plan, error) {
	if q.err != nil {
		return nil, nil, q.err
	}
	plan := &Plan{Forced: q.force != AccessAuto}

	// Exact-name selection: at most one candidate, on any view.
	if q.nameGlob != "" && literalGlob(q.nameGlob) && (q.force == AccessAuto || q.force == AccessName) {
		plan.Access, plan.Index, plan.Est = AccessName, q.nameGlob, 1
		plan.Residual = len(q.preds)
		if q.offset > 0 {
			return nil, plan, nil
		}
		id, ok := v.ObjectByName(q.nameGlob)
		if !ok {
			return nil, plan, nil
		}
		plan.Candidates = 1
		o, ok := v.Object(id)
		if !ok || !q.restrictions(o) || !passes(id, q.compile(v), nil) {
			return nil, plan, nil
		}
		plan.Matched = 1
		return []item.ID{id}, plan, nil
	}
	choices, predEst := q.enumerateChoices(v)
	picked := pickChoice(choices, q.force)

	var candidates []item.ID
	if picked != nil {
		candidates = picked.cands()
		plan.Access, plan.Index, plan.Est = picked.access, picked.index, picked.est
	} else {
		candidates = v.Objects()
		plan.Access, plan.Est = AccessScan, len(candidates)
	}
	plan.Candidates = len(candidates)
	plan.Residual = len(q.preds)
	if picked != nil && picked.pred >= 0 {
		plan.Residual--
	}

	order := residualOrder(q.preds, predEst)
	tests := q.compile(v)
	// A class-path candidate is, by the item.IndexedView contract, a
	// visible object of the restricted class family: without a name glob
	// only the predicates are left to check, so it is not decoded.
	decode := plan.Access != AccessClass || q.nameGlob != ""
	var out []item.ID
	skip := q.offset
	for _, id := range candidates {
		if decode {
			if o, ok := v.Object(id); !ok || !q.restrictions(o) {
				continue
			}
		}
		if !passes(id, tests, order) {
			continue
		}
		plan.Matched++
		if skip > 0 {
			skip--
			continue
		}
		out = append(out, id)
		if q.limit > 0 && len(out) >= q.limit {
			break
		}
	}
	return out, plan, nil
}

// enumerateChoices lists the index-backed access paths applicable to the
// query over this view, estimating each path's candidate cardinality from
// the index sizes without materializing candidates. It also returns the
// per-predicate estimates (-1 where no index answers) for residual
// ordering.
func (q *Query) enumerateChoices(v item.View) ([]choice, []int) {
	predEst := make([]int, len(q.preds))
	for i := range predEst {
		predEst[i] = -1
	}
	var choices []choice
	if q.nameGlob != "" && !literalGlob(q.nameGlob) {
		if c, ok := q.nameChoice(v); ok {
			choices = append(choices, c)
		}
	}
	if q.className == "" {
		return choices, predEst
	}
	if iv, ok := v.(item.IndexedView); ok {
		if est, ok := q.classEst(iv); ok {
			choices = append(choices, choice{
				access: AccessClass, index: q.className, est: est, pred: -1,
				cands: func() []item.ID {
					lists, ok := q.classLists(iv)
					if !ok {
						return nil
					}
					return mergeSorted(lists)
				},
			})
		}
	}
	if av, ok := v.(item.AttrIndexedView); ok {
		for pi := range q.preds {
			if c, ok := q.attrChoice(v, av, pi); ok {
				choices = append(choices, c)
				predEst[pi] = c.est
			}
		}
	}
	return choices, predEst
}

// nameChoice builds the ordered-name-index choice for a non-literal glob
// with a usable prefix: the index range covering the prefix bounds the
// candidates, and the executor re-checks the full glob on each. Globs
// starting with a metacharacter have no prefix to range over.
func (q *Query) nameChoice(v item.View) (choice, bool) {
	nv, ok := v.(item.NamePrefixView)
	if !ok {
		return choice{}, false
	}
	prefix := globPrefix(q.nameGlob)
	if prefix == "" {
		return choice{}, false
	}
	est, ok := nv.EstNamePrefix(prefix)
	if !ok {
		return choice{}, false
	}
	return choice{
		access: AccessName, index: prefix + "*", est: est, pred: -1,
		cands: func() []item.ID {
			ids, _ := nv.ObjectsWithNamePrefix(prefix)
			return ids
		},
	}, true
}

// globPrefix returns the literal prefix of a glob pattern — the run of
// characters before its first metacharacter.
func globPrefix(pattern string) string {
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '*', '?', '[', '\\':
			return pattern[:i]
		}
	}
	return pattern
}

// attrChoice builds the access-path choice for one predicate, if every
// class the restriction covers has a usable attribute index for the
// predicate's path and operator.
func (q *Query) attrChoice(v item.View, av item.AttrIndexedView, pi int) (choice, bool) {
	p := q.preds[pi]
	var access Access
	switch p.op {
	case Eq:
		access = AccessAttrEq
	case Lt, Le, Gt, Ge:
		access = AccessAttrRange
	default:
		return choice{}, false // Ne and Contains are not indexable
	}
	classes := []string{q.className}
	if q.includeSpecs {
		cls, err := v.Schema().Class(q.className)
		if err != nil {
			return choice{}, false // unknown class: the class path answers (nothing)
		}
		classes = classes[:0]
		var collect func(c *schema.Class)
		collect = func(c *schema.Class) {
			classes = append(classes, c.QualifiedName())
			for _, s := range c.Specializations() {
				collect(s)
			}
		}
		collect(cls)
	}
	path := rolePathString(p.roles)
	var lo, hi value.Value
	loIncl, hiIncl := false, false
	switch p.op {
	case Lt:
		hi = p.val
	case Le:
		hi, hiIncl = p.val, true
	case Gt:
		lo = p.val
	case Ge:
		lo, loIncl = p.val, true
	}
	idxs := make([]*item.AttrIdx, 0, len(classes))
	est := 0
	for _, cls := range classes {
		idx, ok := av.AttrIndex(item.AttrKey{Class: cls, Path: path})
		if !ok || idx == nil {
			return choice{}, false // a covered class without the index: no path
		}
		switch access {
		case AccessAttrEq:
			est += idx.EstEq(p.val)
		default:
			n, ok := idx.EstRange(lo, hi, loIncl, hiIncl)
			if !ok {
				return choice{}, false // hash index cannot answer ranges
			}
			est += n
		}
		idxs = append(idxs, idx)
	}
	index := q.className + "/" + path
	if q.includeSpecs {
		index = q.className + "+/" + path
	}
	return choice{
		access: access, index: index, est: est, pred: pi,
		cands: func() []item.ID {
			var lists [][]item.ID
			for _, idx := range idxs {
				var ids []item.ID
				if access == AccessAttrEq {
					ids = idx.Eq(p.val)
				} else {
					ids, _ = idx.Range(lo, hi, loIncl, hiIncl)
				}
				if len(ids) > 0 {
					lists = append(lists, ids)
				}
			}
			return mergeSorted(lists)
		},
	}, true
}

// rolePathString is the inverse of the Where path split.
func rolePathString(roles []string) string {
	s := roles[0]
	for _, r := range roles[1:] {
		s += "." + r
	}
	return s
}

// pickChoice selects the access path: the forced one when set (nil — the
// scan — when it does not apply), otherwise the lowest estimate, with ties
// broken toward the more selective access kind and then the index name so
// plans are deterministic.
func pickChoice(choices []choice, force Access) *choice {
	better := func(a, b *choice) bool {
		if a.est != b.est {
			return a.est < b.est
		}
		if a.access != b.access {
			return a.access > b.access // attr paths rank above class
		}
		return a.index < b.index
	}
	var best *choice
	for i := range choices {
		c := &choices[i]
		switch force {
		case AccessAuto:
		case c.access:
		default:
			continue
		}
		if best == nil || better(c, best) {
			best = c
		}
	}
	return best
}

// residualOrder returns the predicate evaluation order: indexed predicates
// by ascending estimate first (cheapest rejection first), then the rest in
// declaration order. nil means declaration order is already optimal.
func residualOrder(preds []predicate, est []int) []int {
	reorder := false
	for i := 1; i < len(preds); i++ {
		a, b := est[i-1], est[i]
		if b >= 0 && (a < 0 || b < a) {
			reorder = true
			break
		}
	}
	if !reorder {
		return nil
	}
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	// Stable insertion sort: unknown (-1) estimates rank last.
	rank := func(i int) int {
		if est[i] < 0 {
			return int(^uint(0) >> 1)
		}
		return est[i]
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && rank(order[j]) < rank(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}
