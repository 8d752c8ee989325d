package main

import (
	"fmt"
	"sort"
	"strings"
)

// execRemote dispatches one shell command against a remote seedserver (the
// -addr mode): the retrieval and version surface goes over the wire
// protocol, while local-database editing commands — which would bypass the
// server's checkout discipline — are refused with a pointer at check-out
// based clients.
func (s *shell) execRemote(line string) error {
	args := strings.Fields(line)
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "help":
		s.help()
		fmt.Fprintln(s.out, "\nremote mode: retrieval (ls, query, show, tree, check), save, versions,")
		fmt.Fprintln(s.out, "and stats run against the server; editing commands need a checkout client")
		return nil
	case "ls":
		class := ""
		if len(rest) > 0 {
			class = rest[0]
		}
		names, err := s.remote.List(class)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(s.out, n)
		}
		return nil
	case "query":
		return s.remoteQuery(rest)
	case "show", "tree":
		if len(rest) != 1 {
			return fmt.Errorf("usage: %s <name>", cmd)
		}
		return s.remoteTree(rest[0])
	case "check":
		findings, err := s.remote.Completeness()
		if err != nil {
			return err
		}
		for _, f := range findings {
			fmt.Fprintf(s.out, "item=%d rule=%s %s\n", f.Item, f.Rule, f.Detail)
		}
		return nil
	case "save":
		num, err := s.remote.SaveVersion(strings.Join(rest, " "))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "saved version %s\n", num)
		return nil
	case "versions":
		infos, err := s.remote.Versions()
		if err != nil {
			return err
		}
		for _, info := range infos {
			fmt.Fprintf(s.out, "%-8s delta=%-4d schema=v%d  %s\n",
				info.Num, info.DeltaSize, info.SchemaVer, info.Note)
		}
		return nil
	case "stats":
		return s.remoteStats()
	case "schema", "mk", "mkpattern", "sub", "set", "ln", "rm", "reclass",
		"inherit", "select", "history", "index":
		return fmt.Errorf("command %q is not available in remote mode (use a checkout-based client for edits)", cmd)
	}
	return fmt.Errorf("unknown command %q (try 'help')", cmd)
}

// remoteQuery executes a parsed query server-side.
func (s *shell) remoteQuery(rest []string) error {
	q, explain, err := parseQuery(rest)
	if err != nil {
		return err
	}
	objs, total, plan, err := s.remote.QueryPlan(q)
	if err != nil {
		return err
	}
	if explain {
		if plan == nil {
			fmt.Fprintln(s.out, "plan: (server reports no plan)")
		} else {
			fmt.Fprintf(s.out, "plan: access=%s", plan.Access)
			if plan.Index != "" {
				fmt.Fprintf(s.out, " index=%q", plan.Index)
			}
			fmt.Fprintf(s.out, " est=%d candidates=%d matched=%d residual=%d",
				plan.Est, plan.Candidates, plan.Matched, plan.Residual)
			if plan.Forced {
				fmt.Fprint(s.out, " forced")
			}
			fmt.Fprintln(s.out)
		}
	}
	for _, o := range objs {
		label := o.Name
		if o.Path != "" {
			label = o.Path
		}
		fmt.Fprintf(s.out, "%-32s %s", label, o.Class)
		if o.ValueKind != 0 {
			fmt.Fprintf(s.out, " = %s", o.Value)
		}
		fmt.Fprintln(s.out)
	}
	fmt.Fprintf(s.out, "%d of %d match(es)\n", len(objs), total)
	return nil
}

// remoteTree renders one retrieved subtree: objects indented by their path
// depth, then the root's relationships.
func (s *shell) remoteTree(name string) error {
	snaps, err := s.remote.Get(name)
	if err != nil {
		return err
	}
	for _, snap := range snaps {
		for _, o := range snap.Objects {
			depth := strings.Count(o.Path, ".")
			label := o.Path
			if label == "" {
				label = o.Name
			}
			fmt.Fprintf(s.out, "%s%s (%s)", strings.Repeat("  ", depth), label, o.Class)
			if o.ValueKind != 0 {
				fmt.Fprintf(s.out, " = %s", o.Value)
			}
			fmt.Fprintln(s.out)
		}
		for _, r := range snap.Rels {
			fmt.Fprintf(s.out, "  -- %s:", r.Assoc)
			for _, end := range r.Ends { // role order
				fmt.Fprintf(s.out, " %s=%s", end.Role, end.Path)
			}
			fmt.Fprintln(s.out)
		}
	}
	return nil
}

// remoteStats renders the server's structured stats — database shape plus
// the serving-plane gauges (connections, locks, admission state, drain).
func (s *shell) remoteStats() error {
	st, err := s.remote.StatsInfo()
	if err != nil {
		return err
	}
	for _, row := range []struct {
		name  string
		value any
	}{
		{"objects", st.Objects},
		{"relationships", st.Relationships},
		{"patterns", st.Patterns},
		{"deleted", st.Deleted},
		{"versions", st.Versions},
		{"schema-version", st.SchemaVersion},
		{"generation", st.Generation},
		{"open-txs", st.OpenTxs},
		{"wal-segments", st.WALSegments},
		{"wal-bytes", st.WALBytes},
		{"connections", st.Connections},
		{"locks", st.Locks},
		{"in-flight", st.InFlight},
		{"queued", st.Queued},
		{"rejected", st.Rejected},
		{"draining", st.Draining},
	} {
		fmt.Fprintf(s.out, "%-16s %v\n", row.name, row.value)
	}
	if st.Follower {
		fmt.Fprintf(s.out, "%-16s %v\n", "follower-gen", st.FollowerGen)
		fmt.Fprintf(s.out, "%-16s %v\n", "follower-lag", st.FollowerLag)
	}
	if len(st.QueryPlans) > 0 {
		paths := make([]string, 0, len(st.QueryPlans))
		for p := range st.QueryPlans {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			fmt.Fprintf(s.out, "%-16s %v\n", "queries-"+p, st.QueryPlans[p])
		}
	}
	return nil
}
