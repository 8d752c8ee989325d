package server

import (
	"fmt"
	"sort"

	"repro/internal/item"
	"repro/internal/wire"
	"repro/seed"
)

func (s *Server) handleGet(_ *conn, req *wire.Request) *wire.Response {
	// One snapshot for the whole request: every returned subtree comes
	// from the same consistent state.
	v := s.db.View()
	snaps := make([]wire.Snapshot, 0, len(req.Names))
	for _, name := range req.Names {
		snap, err := snapshotOf(v, name)
		if err != nil {
			return fail(err)
		}
		snaps = append(snaps, snap)
	}
	return &wire.Response{Snapshots: snaps}
}

func (s *Server) handleList(_ *conn, req *wire.Request) *wire.Response {
	v := s.db.View()
	q := seed.NewQuery()
	if req.Class != "" {
		q = q.Class(req.Class, true)
	}
	ids, err := q.Run(v)
	if err != nil {
		return fail(err)
	}
	var names []string
	for _, id := range ids {
		if o, ok := v.Object(id); ok && o.Independent() {
			names = append(names, o.Name)
		}
	}
	// Stable output: repeated OpList calls return the same order no matter
	// which snapshot or query path produced the IDs.
	sort.Strings(names)
	return &wire.Response{Names: names}
}

// handleQuery executes the wire form of a query server-side against one
// consistent indexed snapshot: the retrieval component's class-subtree,
// name-glob, and value-predicate selection (which starts from the snapshot's
// class and name indexes), then Follow navigation, then limit/offset paging
// of the final set — so a client fetches exactly the matching objects
// instead of downloading subtrees and filtering locally.
func (s *Server) handleQuery(_ *conn, req *wire.Request) *wire.Response {
	if req.Query == nil {
		return fail(fmt.Errorf("server: query request without a query body"))
	}
	v := s.db.View()
	ids, total, plan, err := ExecQuery(v, req.Query)
	if err != nil {
		return fail(err)
	}
	if a := int(plan.Access); a >= 0 && a < len(s.planCounts) {
		s.planCounts[a].Add(1)
	}
	objs := make([]wire.Object, 0, len(ids))
	size := 0
	for _, id := range ids {
		o, ok := v.Object(id)
		if !ok {
			continue
		}
		path, _ := objectPath(v, o)
		w := wireObject(o, path)
		// Six fields, each at least one byte beside its string bytes.
		size += len(w.Class) + len(w.Name) + len(w.Path) + len(w.Value) + 6
		objs = append(objs, w)
	}
	resp := &wire.Response{Objects: objs, Total: total, Plan: &wire.QueryPlan{
		Access:     plan.Access.String(),
		Index:      plan.Index,
		Est:        plan.Est,
		Candidates: plan.Candidates,
		Matched:    plan.Matched,
		Residual:   plan.Residual,
		Forced:     plan.Forced,
	}}
	// A result that cannot fit one frame must be paged, not kill the
	// connection (the per-connection writer treats an oversized frame as a
	// transport failure). The running size is a cheap lower bound: an
	// object's fields add at most 27 bytes of varints to its strings, so
	// below MaxFrame/8 the frame cannot reach MaxFrame. Only a result above
	// it pays for the exact check — a second encode of an up-to-8 MiB
	// payload, accepted for keeping the writer path oblivious to response
	// sizes.
	if size > wire.MaxFrame/8 {
		if _, err := wire.NewWriter(nil).Encode(resp); err != nil {
			return fail(fmt.Errorf("server: query result (%d objects) exceeds the %d-byte frame limit; page it with limit/offset", len(objs), wire.MaxFrame))
		}
	}
	return resp
}

// ExecQuery runs a wire query on a view: cost-based selection through the
// query engine, Follow steps, then paging. Paging applies to the final
// result set — after the Follow chain — so the selection itself runs
// unbounded and Total reports the unpaged match count. The returned plan
// reports the access path the planner executed. The server's query
// operation and seedsh's local query both run through it.
func ExecQuery(v seed.View, wq *wire.Query) ([]seed.ID, int, *seed.Plan, error) {
	q := seed.NewQuery()
	if wq.Class != "" {
		q = q.Class(wq.Class, wq.Specs)
	}
	if wq.NameGlob != "" {
		q = q.NameGlob(wq.NameGlob)
	}
	for _, w := range wq.Where {
		op, err := seed.ParseCompareOp(w.Op)
		if err != nil {
			return nil, 0, nil, err
		}
		val, err := seed.ParseValue(seed.Kind(w.ValueKind), w.Value)
		if err != nil {
			return nil, 0, nil, err
		}
		q = q.Where(w.Path, op, val)
	}
	ids, plan, err := seed.RunPlan(q, v)
	if err != nil {
		return nil, 0, nil, err
	}
	steps := make([]seed.FollowStep, len(wq.Follow))
	for i, f := range wq.Follow {
		steps[i] = seed.FollowStep{Assoc: f.Assoc, From: f.From, To: f.To}
	}
	ids, total, err := seed.FollowPage(v, ids, steps, wq.Limit, wq.Offset)
	if err != nil {
		return nil, 0, nil, err
	}
	return ids, total, plan, nil
}

// snapshotOf copies an object subtree plus its relationships into wire
// form. The view is an immutable snapshot, so the whole walk is consistent
// and needs no locking. The walk is top-down and decodes each object once:
// an object's path is its parent's path, ".", and its own component, so no
// path is rebuilt by walking back up to the root.
func snapshotOf(v seed.View, name string) (wire.Snapshot, error) {
	root, ok := v.ObjectByName(name)
	if !ok {
		return wire.Snapshot{}, fmt.Errorf("server: no object named %q", name)
	}
	snap := wire.Snapshot{Root: name}
	rels := v.RelationshipsOf(root)
	if len(rels) > 0 {
		snap.Rels = make([]wire.Relationship, 0, len(rels))
	}
	// buf holds the path of the object being rendered; a child appends its
	// component after the parent's bytes and truncates back on return.
	var buf []byte
	var walk func(id seed.ID)
	walk = func(id seed.ID) {
		o, ok := v.Object(id)
		if !ok {
			return
		}
		n := len(buf)
		if n > 0 {
			buf = append(buf, '.')
		}
		buf = o.Component().Append(buf)
		snap.Objects = append(snap.Objects, wireObject(o, string(buf)))
		for _, ch := range v.Children(id, "") {
			walk(ch)
		}
		buf = buf[:n]
	}
	walk(root)
	for _, rid := range rels {
		r, ok := v.Relationship(rid)
		if !ok || r.Inherits {
			continue
		}
		wr := wire.Relationship{ID: uint64(rid), Assoc: r.Assoc.Name(), Ends: make([]wire.End, 0, len(r.Ends))}
		for _, e := range r.Ends { // stored in role order
			if p, ok := endPath(v, snap.Objects, e.Object); ok {
				wr.Ends = append(wr.Ends, wire.End{Role: e.Role, Path: p})
			}
		}
		snap.Rels = append(snap.Rels, wr)
	}
	return snap, nil
}

// endPath renders a relationship end of the subtree rendered as objs: the
// root and any sub-object of it by the path the walk gave it, any other
// object through objectPath.
func endPath(v seed.View, objs []wire.Object, id seed.ID) (string, bool) {
	if len(objs) > 0 && objs[0].ID == uint64(id) {
		return objs[0].Path, true // the root, an end of every relationship listed
	}
	o, ok := v.Object(id)
	if !ok {
		return "", false
	}
	if !o.Independent() {
		for i := range objs {
			if objs[i].ID == uint64(id) {
				return objs[i].Path, true
			}
		}
	}
	return objectPath(v, o)
}

// objectPath renders the qualified name of an object: an independent
// object's is its name, a sub-object's is walked up by item.PathOf.
func objectPath(v seed.View, o seed.Object) (string, bool) {
	if o.Independent() {
		return o.Name, true
	}
	p, ok := item.PathOf(v, o.ID)
	if !ok {
		return "", false
	}
	return p.String(), true
}

// wireObject renders one object at path in wire form — the single shape
// the get and query paths both ship.
func wireObject(o seed.Object, path string) wire.Object {
	w := wire.Object{ID: uint64(o.ID), Class: o.Class.QualifiedName(), Path: path}
	if o.Independent() {
		w.Name = o.Name
	}
	if o.Value.IsDefined() {
		w.ValueKind = uint8(o.Value.Kind())
		w.Value = o.Value.String()
	}
	return w
}

func (s *Server) handleVersions(_ *conn, _ *wire.Request) *wire.Response {
	infos := s.db.Versions()
	out := make([]wire.VersionInfo, 0, len(infos))
	for _, in := range infos {
		out = append(out, wire.VersionInfo{
			Num: in.Num.String(), Note: in.Note,
			DeltaSize: in.DeltaSize, SchemaVer: in.SchemaVersion,
		})
	}
	return &wire.Response{Versions: out}
}

func (s *Server) handleCompleteness(_ *conn, _ *wire.Request) *wire.Response {
	fs := s.db.Completeness()
	out := make([]wire.Finding, 0, len(fs))
	for _, f := range fs {
		out = append(out, wire.Finding{Item: uint64(f.Item), Rule: string(f.Rule), Detail: f.Detail})
	}
	return &wire.Response{Findings: out}
}

func (s *Server) handleStats(_ *conn, _ *wire.Request) *wire.Response {
	sv := s.stats()
	return &wire.Response{
		// The one-line summary stays for shells.
		Stats: fmt.Sprintf("objects=%d rels=%d versions=%d schema=v%d",
			sv.Objects, sv.Relationships, sv.Versions, sv.SchemaVersion),
		StatsV2: sv,
	}
}

// stats samples the server's state once: the database's counters, the
// connection, lock and staged-transaction tables, the admission gate, the
// drain flag and, on a follower, the replication position. OpStats ships
// the sample and WriteMetrics renders it, so the two read every gauge the
// same way.
func (s *Server) stats() *wire.Stats {
	st := s.db.Stats()
	s.mu.Lock()
	open, conns, locks := len(s.inflight), len(s.conns), len(s.locks)
	s.mu.Unlock()
	running, queued := s.adm.gauges()
	sv := &wire.Stats{
		Objects:       st.Core.Objects,
		Relationships: st.Core.Relationships,
		Patterns:      st.Core.Patterns,
		Deleted:       st.Core.DeletedObjects + st.Core.DeletedRels,
		Versions:      st.Versions,
		SchemaVersion: st.SchemaV,
		Generation:    st.Generation,
		OpenTxs:       open,
		WALSegments:   st.LogSegments,
		WALBytes:      st.LogBytes,
		Connections:   conns,
		Locks:         locks,
		InFlight:      running,
		Queued:        queued,
		Rejected:      s.adm.rejected.Load(),
		Draining:      s.draining.Load(),
		Follower:      s.follower,
	}
	if s.follower && s.replicaStatus != nil {
		appliedGen, headGen, _ := s.replicaStatus()
		sv.FollowerGen = appliedGen
		if headGen > appliedGen {
			sv.FollowerLag = headGen - appliedGen
		}
	}
	for a := range s.planCounts {
		if n := s.planCounts[a].Load(); n > 0 {
			if sv.QueryPlans == nil {
				sv.QueryPlans = make(map[string]uint64)
			}
			sv.QueryPlans[seed.Access(a).String()] = n
		}
	}
	return sv
}
