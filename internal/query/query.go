// Package query implements retrieval over SEED views: selection by class,
// name, and sub-object values; navigation along association roles; and
// joins over existing relationships.
//
// The paper's prototype supported only simple retrieval by name and left
// complex queries unimplemented, but it defines the retrieval semantics for
// incomplete data precisely: "When the database is searched for data that
// meet certain selection criteria, an undefined object matches nothing.
// Taking joins or cartesian products is not affected by undefined items.
// This is due to the fact that entity-relationship based models define
// these operations on existing relationships only." This package implements
// those semantics over any item.View — a snapshot user view, a version
// view, or a pattern-spliced view.
//
// Queries never mutate the view they run over, and the views the seed
// database hands out are immutable snapshots, so any number of queries may
// run concurrently over one view — and a query's whole run observes one
// consistent state, never a half-applied batch.
package query

import (
	"errors"
	"fmt"
	"path"
	"sort"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// Query errors.
var (
	ErrBadQuery = errors.New("query: invalid query")
)

// CompareOp is a value comparison operator; its rules live in
// internal/value (value.Op.Holds), the one definition every view's
// predicate test agrees with.
type CompareOp = value.Op

// The comparison operators. Unordered kinds (BOOLEAN) support only Eq and
// Ne; undefined values match nothing under every operator.
const (
	Eq       = value.Eq
	Ne       = value.Ne
	Lt       = value.Lt
	Le       = value.Le
	Gt       = value.Gt
	Ge       = value.Ge
	Contains = value.Contains // substring on STRING values
)

// ParseCompareOp parses the surface spelling of a comparison operator —
// the inverse of CompareOp.String, and the single table the wire protocol
// and the shell decode operators through.
func ParseCompareOp(s string) (CompareOp, error) {
	for op := Eq; op <= Contains; op++ {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown comparison operator %q", ErrBadQuery, s)
}

// predicate is one sub-object value condition.
type predicate struct {
	roles []string // role path below the candidate object
	op    CompareOp
	val   value.Value
}

// Query selects objects from a view. The zero Query selects every object;
// restrict it with the builder methods and evaluate with Run.
type Query struct {
	className    string
	includeSpecs bool
	nameGlob     string
	preds        []predicate
	limit        int
	offset       int
	force        Access // forced access path; AccessAuto plans
	err          error
}

// New returns an unrestricted query.
func New() *Query { return &Query{} }

// Class restricts to objects whose class has the given qualified name;
// with includeSpecializations, instances of specializations match too (a
// query for 'Data' then also finds 'OutputData' objects).
func (q *Query) Class(qualified string, includeSpecializations bool) *Query {
	q.className = qualified
	q.includeSpecs = includeSpecializations
	return q
}

// NameGlob restricts to independent objects whose name matches a glob
// pattern ('Alarm*').
func (q *Query) NameGlob(pattern string) *Query {
	if _, err := path.Match(pattern, ""); err != nil {
		q.err = fmt.Errorf("%w: glob %q", ErrBadQuery, pattern)
	}
	q.nameGlob = pattern
	return q
}

// Where adds a sub-object value condition: some sub-object reached by the
// role path (e.g. "Text.Selector") must have a value for which `value op
// given` holds. Objects whose sub-object is missing or undefined match
// nothing.
func (q *Query) Where(rolePath string, op CompareOp, v value.Value) *Query {
	if rolePath == "" {
		q.err = fmt.Errorf("%w: empty role path", ErrBadQuery)
		return q
	}
	var roles []string
	start := 0
	for i := 0; i <= len(rolePath); i++ {
		if i == len(rolePath) || rolePath[i] == '.' {
			if i == start {
				q.err = fmt.Errorf("%w: role path %q", ErrBadQuery, rolePath)
				return q
			}
			roles = append(roles, rolePath[start:i])
			start = i + 1
		}
	}
	q.preds = append(q.preds, predicate{roles: roles, op: op, val: v})
	return q
}

// Limit caps the number of results (0 = unlimited).
func (q *Query) Limit(n int) *Query {
	q.limit = n
	return q
}

// Offset skips the first n matches before collecting results. Together
// with Limit it pages a selection in the stable ascending-ID order Run
// guarantees. Note the wire protocol's query operation pages through
// FollowPage instead — after the Follow chain, so Total stays accurate —
// and leaves the builder's limit and offset unset.
func (q *Query) Offset(n int) *Query {
	q.offset = n
	return q
}

// Run evaluates the query over a view, returning matching object IDs in
// ascending order.
//
// Selection starts from the most selective access path the view supports —
// the planner (see plan.go) estimates candidate cardinalities from the
// view's name, class, and attribute indexes and picks the cheapest. Every
// candidate still runs through the full predicate set, so all paths return
// identical results; views without an index fall back to the scan over
// Objects(). RunPlan additionally reports the chosen plan.
func (q *Query) Run(v item.View) ([]item.ID, error) {
	ids, _, err := q.RunPlan(v)
	return ids, err
}

// classLists collects the class-index posting lists for the restriction
// class plus, with includeSpecializations, its whole specialization
// subtree. ok=false means the view maintains no usable index and the
// caller scans. An unknown class returns (nil, true): it matches nothing —
// the scan path compares qualified-name strings and never finds it either.
func (q *Query) classLists(iv item.IndexedView) ([][]item.ID, bool) {
	if !q.includeSpecs {
		ids, ok := iv.ObjectsOfClass(q.className)
		if !ok {
			return nil, false
		}
		if len(ids) == 0 {
			return nil, true
		}
		return [][]item.ID{ids}, true
	}
	cls, err := iv.Schema().Class(q.className)
	if err != nil {
		return nil, true
	}
	var lists [][]item.ID
	var collect func(c *schema.Class) bool
	collect = func(c *schema.Class) bool {
		ids, ok := iv.ObjectsOfClass(c.QualifiedName())
		if !ok {
			return false
		}
		if len(ids) > 0 {
			lists = append(lists, ids)
		}
		for _, s := range c.Specializations() {
			if !collect(s) {
				return false
			}
		}
		return true
	}
	if !collect(cls) {
		return nil, false
	}
	return lists, true
}

// classEst counts the extent classLists would collect, through
// item.ClassCounter when the view offers it — a spliced view pays a
// per-object filter walk to materialize its lists, and the planner asks for
// the count on every restricted query only to rank the class path against
// the others. The count may over-report what the lists would hold; the
// estimate stays an upper bound, and candidates materialize lazily only
// when the class path wins.
func (q *Query) classEst(iv item.IndexedView) (int, bool) {
	countOf := func(qualified string) (int, bool) {
		if cc, ok := iv.(item.ClassCounter); ok {
			return cc.CountOfClass(qualified)
		}
		ids, ok := iv.ObjectsOfClass(qualified)
		return len(ids), ok
	}
	if !q.includeSpecs {
		return countOf(q.className)
	}
	cls, err := iv.Schema().Class(q.className)
	if err != nil {
		return 0, true // unknown class: matches nothing, like classLists
	}
	est := 0
	var collect func(c *schema.Class) bool
	collect = func(c *schema.Class) bool {
		n, ok := countOf(c.QualifiedName())
		if !ok {
			return false
		}
		est += n
		for _, s := range c.Specializations() {
			if !collect(s) {
				return false
			}
		}
		return true
	}
	if !collect(cls) {
		return 0, false
	}
	return est, true
}

// mergeSorted merges ascending, mutually disjoint ID lists (every object has
// exactly one class) into one ascending list.
func mergeSorted(lists [][]item.ID) []item.ID {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]item.ID, 0, total)
	for len(lists) > 0 {
		best := 0
		for i := 1; i < len(lists); i++ {
			if lists[i][0] < lists[best][0] {
				best = i
			}
		}
		out = append(out, lists[best][0])
		if lists[best] = lists[best][1:]; len(lists[best]) == 0 {
			lists = append(lists[:best], lists[best+1:]...)
		}
	}
	return out
}

// literalGlob reports whether a glob pattern contains no metacharacters and
// therefore matches exactly one name.
func literalGlob(pattern string) bool {
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '*', '?', '[', '\\':
			return false
		}
	}
	return true
}

// restrictions checks one candidate against the class and name
// restrictions.
func (q *Query) restrictions(o item.Object) bool {
	if q.className != "" {
		if q.includeSpecs {
			ok := false
			for c := o.Class; c != nil; c = c.Super() {
				if c.QualifiedName() == q.className {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		} else if o.Class.QualifiedName() != q.className {
			return false
		}
	}
	if q.nameGlob != "" {
		if !o.Independent() {
			return false
		}
		if ok, _ := path.Match(q.nameGlob, o.Name); !ok {
			return false
		}
	}
	return true
}

// passes runs one candidate through the compiled predicate tests (see
// compile). order, when non-nil, gives the evaluation order (most selective
// first, per the planner's index estimates); nil keeps declaration order.
func passes(id item.ID, tests []func(item.ID) bool, order []int) bool {
	if order == nil {
		for _, test := range tests {
			if !test(id) {
				return false
			}
		}
		return true
	}
	for _, pi := range order {
		if !tests[pi](id) {
			return false
		}
	}
	return true
}

// compile builds each predicate's per-candidate test once per run: through
// the view's item.PathMatcher when it has one, which resolves the role path
// and fixes the comparison against the view's own row encoding once, and
// otherwise as the generic evalPredicate walk, which stays the reference the
// compiled tests are checked against.
func (q *Query) compile(v item.View) []func(item.ID) bool {
	tests := make([]func(item.ID) bool, len(q.preds))
	pm, compiled := v.(item.PathMatcher)
	for i := range q.preds {
		p := &q.preds[i]
		if compiled {
			tests[i] = pm.MatchPath(p.roles, p.op, p.val)
		} else {
			tests[i] = func(id item.ID) bool { return evalPredicate(v, id, p.roles, p) }
		}
	}
	return tests
}

// evalPredicate reports whether some sub-object chain below obj matches the
// remaining role path and satisfies the comparison. An undefined value, or
// a missing sub-object, matches nothing. The descent allocates nothing of
// its own.
func evalPredicate(v item.View, obj item.ID, roles []string, p *predicate) bool {
	if len(roles) == 0 {
		o, ok := v.Object(obj)
		return ok && p.op.Holds(o.Value, p.val)
	}
	for _, kid := range v.Children(obj, roles[0]) {
		if evalPredicate(v, kid, roles[1:], p) {
			return true
		}
	}
	return false
}

// FollowStep names one Follow navigation of a multi-step retrieval.
type FollowStep struct {
	Assoc, From, To string
}

// FollowPage applies a chain of Follow steps to a selected set and pages
// the final result — the shared post-selection pipeline of the wire
// protocol's query operation and the shell's query command. Paging applies
// after the follow chain, so the returned total always reports the unpaged
// match count.
func FollowPage(v item.View, ids []item.ID, steps []FollowStep, limit, offset int) ([]item.ID, int, error) {
	var err error
	for _, st := range steps {
		ids, err = Follow(v, ids, st.Assoc, st.From, st.To)
		if err != nil {
			return nil, 0, err
		}
	}
	total := len(ids)
	if offset > 0 {
		if offset >= len(ids) {
			ids = nil
		} else {
			ids = ids[offset:]
		}
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return ids, total, nil
}

// Follow navigates from a set of objects along an association: for every
// relationship of assoc (or a specialization) in which a source object
// fills fromRole, the object filling toRole is collected. Results are
// deduplicated and sorted.
func Follow(v item.View, from []item.ID, assocName, fromRole, toRole string) ([]item.ID, error) {
	assoc, err := v.Schema().Association(assocName)
	if err != nil {
		return nil, err
	}
	seen := make(map[item.ID]bool)
	var out []item.ID
	for _, src := range from {
		for _, rid := range v.RelationshipsOf(src) {
			r, ok := v.Relationship(rid)
			if !ok || r.Inherits || r.Assoc == nil || !r.Assoc.IsA(assoc) {
				continue
			}
			if r.End(fromRole) != src {
				continue
			}
			dst := r.End(toRole)
			if dst == item.NoID || seen[dst] {
				continue
			}
			seen[dst] = true
			out = append(out, dst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Cartesian returns every pair from the two sets. The paper notes that
// cartesian products are "not affected by undefined items" because they
// are defined over the given object sets directly; incomplete objects
// participate like any other.
func Cartesian(left, right []item.ID) []Pair {
	out := make([]Pair, 0, len(left)*len(right))
	for _, l := range left {
		for _, r := range right {
			out = append(out, Pair{Left: l, Right: r})
		}
	}
	return out
}

// Pair is one join result: two objects connected by a relationship.
type Pair struct {
	Left, Right item.ID
	Rel         item.ID
}

// Join pairs objects from the left and right sets that are connected by a
// relationship of the association (or a specialization), with left filling
// leftRole and right filling rightRole. Joins are defined on existing
// relationships only, so undefined or unrelated items simply do not appear.
func Join(v item.View, left, right []item.ID, assocName, leftRole, rightRole string) ([]Pair, error) {
	assoc, err := v.Schema().Association(assocName)
	if err != nil {
		return nil, err
	}
	rightSet := make(map[item.ID]bool, len(right))
	for _, id := range right {
		rightSet[id] = true
	}
	var out []Pair
	for _, l := range left {
		for _, rid := range v.RelationshipsOf(l) {
			r, ok := v.Relationship(rid)
			if !ok || r.Inherits || r.Assoc == nil || !r.Assoc.IsA(assoc) {
				continue
			}
			if r.End(leftRole) != l {
				continue
			}
			if rr := r.End(rightRole); rr != item.NoID && rightSet[rr] {
				out = append(out, Pair{Left: l, Right: rr, Rel: rid})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		if out[i].Right != out[j].Right {
			return out[i].Right < out[j].Right
		}
		return out[i].Rel < out[j].Rel
	})
	return out, nil
}
