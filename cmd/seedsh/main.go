// Command seedsh is an interactive shell for a SEED database: the
// operational interface of the paper's prototype, plus versions, patterns,
// and completeness reports, at a prompt.
//
// Usage:
//
//	seedsh                      # in-memory database, figure 3 schema
//	seedsh -dir db              # file-backed (fresh dirs get figure 3)
//	seedsh -dir db -schema s.sdl
//	seedsh -addr host:7544      # remote: retrieval/versions/stats over the wire
//
// With -addr the shell connects to a running seedserver instead of opening
// a database: ls, query, show, tree, check, save, versions, and stats run
// server-side (stats then reports the serving plane too — connections,
// locks, admission gauges, drain state); editing commands are refused,
// since edits go through checkout-based clients.
//
// Type 'help' at the prompt for commands.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/item"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/seed"
)

func main() {
	dir := flag.String("dir", "", "database directory (empty: in-memory)")
	schemaFile := flag.String("schema", "", "SDL schema file for fresh databases")
	addr := flag.String("addr", "", "seedserver address; connects remotely instead of opening a database")
	flag.Parse()

	sh := &shell{out: os.Stdout}
	if *addr != "" {
		if *dir != "" || *schemaFile != "" {
			log.Fatal("-addr is exclusive with -dir and -schema (the database lives server-side)")
		}
		c, err := client.Dial(*addr)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		sh.remote = c
	} else {
		sch := seed.Figure3Schema()
		if *schemaFile != "" {
			text, err := os.ReadFile(*schemaFile)
			if err != nil {
				log.Fatal(err)
			}
			sch, err = seed.ParseSDL(string(text))
			if err != nil {
				log.Fatal(err)
			}
		}
		var db *seed.Database
		var err error
		if *dir == "" {
			db, err = seed.NewMemory(sch)
		} else {
			db, err = seed.Open(*dir, seed.Options{Schema: sch, CompactAfter: 4 << 20})
		}
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		sh.db = db
	}
	fmt.Println("SEED shell — 'help' lists commands, 'quit' exits")
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("seed> ")
		if !scanner.Scan() {
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

type shell struct {
	db     *seed.Database
	remote *client.Client // non-nil in -addr mode; db is nil then
	out    *os.File
}

func (s *shell) exec(line string) error {
	if s.remote != nil {
		return s.execRemote(line)
	}
	args := strings.Fields(line)
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "help":
		s.help()
		return nil
	case "schema":
		fmt.Fprint(s.out, seed.RenderSDL(s.db.Schema()))
		return nil
	case "ls":
		return s.list(rest)
	case "query":
		return s.query(rest)
	case "index":
		return s.index(rest)
	case "mk":
		return s.make(rest, false)
	case "mkpattern":
		return s.make(rest, true)
	case "sub":
		return s.sub(rest)
	case "set":
		return s.set(rest)
	case "ln":
		return s.link(rest)
	case "rm":
		return s.remove(rest)
	case "reclass":
		return s.reclass(rest)
	case "show":
		return s.show(rest)
	case "tree":
		return s.tree(rest)
	case "check":
		for _, f := range s.db.Completeness() {
			fmt.Fprintf(s.out, "%v\n", f)
		}
		return nil
	case "save":
		num, err := s.db.SaveVersion(strings.Join(rest, " "))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "saved version %s\n", num)
		return nil
	case "versions":
		for _, info := range s.db.Versions() {
			parent := "-"
			if len(info.Parent) > 0 {
				parent = info.Parent.String()
			}
			fmt.Fprintf(s.out, "%-8s parent=%-8s delta=%-4d schema=v%d  %s\n",
				info.Num, parent, info.DeltaSize, info.SchemaVersion, info.Note)
		}
		return nil
	case "select":
		if len(rest) != 1 {
			return fmt.Errorf("usage: select <version>")
		}
		num, err := seed.ParseVersion(rest[0])
		if err != nil {
			return err
		}
		return s.db.SelectVersion(num)
	case "history":
		return s.history(rest)
	case "inherit":
		return s.inherit(rest)
	case "stats":
		st := s.db.Stats()
		fmt.Fprintf(s.out, "objects=%d rels=%d patterns=%d deleted=%d dirty=%d versions=%d schema=v%d log=%dB\n",
			st.Core.Objects, st.Core.Relationships, st.Core.Patterns,
			st.Core.DeletedObjects+st.Core.DeletedRels, st.Core.DirtySinceFreeze,
			st.Versions, st.SchemaV, st.LogBytes)
		return nil
	}
	return fmt.Errorf("unknown command %q (try 'help')", cmd)
}

func (s *shell) help() {
	fmt.Fprint(s.out, `data
  mk <class> <name>             create an independent object
  mkpattern <class> <name>      create a pattern object
  sub <path> <role> [value]     create a sub-object (value objects take a value)
  set <path> <value>            set a value object's value
  ln <assoc> role=path ...      create a relationship
  rm <path>                     delete (marks; cascades)
  reclass <path> <class|assoc>  re-classify within a generalization hierarchy
  inherit <patternName> <name>  let an object inherit a pattern
retrieval
  ls [class]                    list independent objects
  query <clauses>               run a query; clauses (repeatable where/follow):
                                  class <C> [specs] | name <glob>
                                  where <rolePath> <op> <value>   (op: = != < <= > >= contains;
                                    value takes an optional kind prefix str:/int:/real:/bool:/date:)
                                  follow <assoc> <fromRole> <toRole>
                                  limit <n> | offset <n>
                                  explain                         (print the chosen access path
                                    and estimated vs actual cardinalities)
  index                         list attribute indexes
  index <class> <path> [kind]   register an attribute index (kind: ordered* or hash)
  index drop <class> <path>     drop an attribute index
  show <path>                   show one object
  tree <name>                   show an object subtree with relationships
  check                         completeness report
versions
  save <note...>                save a version
  versions                      list versions
  select <num>                  select a version as basis of further work
  history <path>                versions storing the item
misc
  schema | stats | help | quit
`)
}

func (s *shell) list(rest []string) error {
	q := seed.NewQuery()
	if len(rest) > 0 {
		q = q.Class(rest[0], true)
	}
	v := s.db.View()
	ids, err := q.Run(v)
	if err != nil {
		return err
	}
	for _, id := range ids {
		o, ok := v.Object(id)
		if !ok || !o.Independent() {
			continue
		}
		fmt.Fprintf(s.out, "%-24s %s\n", o.Name, o.Class.QualifiedName())
	}
	return nil
}

// parseQuery parses the query command's clauses into a wire query — the
// one form both the local shell and the server execute — and reports
// whether the plan should be printed.
func parseQuery(rest []string) (*wire.Query, bool, error) {
	q := &wire.Query{}
	explain := false
	for i := 0; i < len(rest); {
		clause := rest[i]
		arg := func(n int) ([]string, error) {
			if len(rest)-i-1 < n {
				return nil, fmt.Errorf("clause %q needs %d argument(s); 'help' shows the syntax", clause, n)
			}
			args := rest[i+1 : i+1+n]
			i += 1 + n
			return args, nil
		}
		switch clause {
		case "class":
			a, err := arg(1)
			if err != nil {
				return nil, false, err
			}
			q.Class = a[0]
			if i < len(rest) && rest[i] == "specs" {
				q.Specs = true
				i++
			}
		case "name":
			a, err := arg(1)
			if err != nil {
				return nil, false, err
			}
			q.NameGlob = a[0]
		case "where":
			a, err := arg(3)
			if err != nil {
				return nil, false, err
			}
			kind, raw := splitKindPrefix(a[2])
			q.Where = append(q.Where, wire.Where{
				Path: a[0], Op: a[1], ValueKind: uint8(kind), Value: raw,
			})
		case "follow":
			a, err := arg(3)
			if err != nil {
				return nil, false, err
			}
			q.Follow = append(q.Follow, wire.FollowStep{Assoc: a[0], From: a[1], To: a[2]})
		case "limit", "offset":
			a, err := arg(1)
			if err != nil {
				return nil, false, err
			}
			n, err := strconv.Atoi(a[0])
			if err != nil || n < 0 {
				return nil, false, fmt.Errorf("bad %s %q", clause, a[0])
			}
			if clause == "limit" {
				q.Limit = n
			} else {
				q.Offset = n
			}
		case "explain":
			explain = true
			i++
		default:
			return nil, false, fmt.Errorf("unknown clause %q ('help' shows the syntax)", clause)
		}
	}
	return q, explain, nil
}

// query evaluates an ad-hoc retrieval over the current view through the
// server's own query execution, so local and remote answers cannot drift.
func (s *shell) query(rest []string) error {
	q, explain, err := parseQuery(rest)
	if err != nil {
		return err
	}
	v := s.db.View()
	ids, total, plan, err := server.ExecQuery(v, q)
	if err != nil {
		return err
	}
	if explain {
		fmt.Fprintf(s.out, "plan: %s\n", plan)
	}
	for _, id := range ids {
		o, ok := v.Object(id)
		if !ok {
			continue
		}
		label := o.Name
		if p, ok := item.PathOf(v, id); ok {
			label = p.String()
		}
		fmt.Fprintf(s.out, "%-32s %s", label, o.Class.QualifiedName())
		if o.Value.IsDefined() {
			fmt.Fprintf(s.out, " = %s", o.Value.Quote())
		}
		fmt.Fprintln(s.out)
	}
	fmt.Fprintf(s.out, "%d of %d match(es)\n", len(ids), total)
	return nil
}

// index registers, drops, and lists attribute indexes on the local database.
func (s *shell) index(rest []string) error {
	switch {
	case len(rest) == 0:
		for _, spec := range s.db.AttrIndexes() {
			fmt.Fprintf(s.out, "%-40s %s\n", spec.Key, spec.Kind)
		}
		return nil
	case rest[0] == "drop":
		if len(rest) != 3 {
			return fmt.Errorf("usage: index drop <class> <path>")
		}
		return s.db.DropAttrIndex(rest[1], rest[2])
	case len(rest) == 2 || len(rest) == 3:
		kind := seed.AttrOrdered
		if len(rest) == 3 {
			var err error
			kind, err = seed.ParseAttrKind(rest[2])
			if err != nil {
				return err
			}
		}
		return s.db.CreateAttrIndex(rest[0], rest[1], kind)
	}
	return fmt.Errorf("usage: index [<class> <path> [hash|ordered] | drop <class> <path>]")
}

func (s *shell) make(rest []string, pattern bool) error {
	if len(rest) != 2 {
		return fmt.Errorf("usage: mk <class> <name>")
	}
	var err error
	if pattern {
		_, err = s.db.CreatePatternObject(rest[0], rest[1])
	} else {
		_, err = s.db.CreateObject(rest[0], rest[1])
	}
	return err
}

func (s *shell) sub(rest []string) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: sub <path> <role> [value]")
	}
	parent, err := s.resolve(rest[0])
	if err != nil {
		return err
	}
	if len(rest) == 2 {
		_, err = s.db.CreateSubObject(parent, rest[1])
		return err
	}
	val, err := s.parseValueFor(parent, rest[1], strings.Join(rest[2:], " "))
	if err != nil {
		return err
	}
	_, err = s.db.CreateValueObject(parent, rest[1], val)
	return err
}

func (s *shell) set(rest []string) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: set <path> <value>")
	}
	id, err := s.resolve(rest[0])
	if err != nil {
		return err
	}
	o, ok := s.db.RawView().Object(id)
	if !ok {
		return fmt.Errorf("no object at %q", rest[0])
	}
	val, err := seed.ParseValue(o.Class.ValueKind(), strings.Join(rest[1:], " "))
	if err != nil {
		return err
	}
	return s.db.SetValue(id, val)
}

func (s *shell) link(rest []string) error {
	if len(rest) < 3 {
		return fmt.Errorf("usage: ln <assoc> role=path role=path ...")
	}
	ends := make(map[string]seed.ID)
	for _, pair := range rest[1:] {
		role, path, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("bad end %q (want role=path)", pair)
		}
		id, err := s.resolve(path)
		if err != nil {
			return err
		}
		ends[role] = id
	}
	_, err := s.db.CreateRelationship(rest[0], ends)
	return err
}

func (s *shell) remove(rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: rm <path>")
	}
	id, err := s.resolve(rest[0])
	if err != nil {
		return err
	}
	return s.db.Delete(id)
}

func (s *shell) reclass(rest []string) error {
	if len(rest) != 2 {
		return fmt.Errorf("usage: reclass <path> <class>")
	}
	id, err := s.resolve(rest[0])
	if err != nil {
		return err
	}
	return s.db.Reclassify(id, rest[1])
}

func (s *shell) show(rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: show <path>")
	}
	id, err := s.resolve(rest[0])
	if err != nil {
		return err
	}
	v := s.db.View()
	o, ok := v.Object(id)
	if !ok {
		o, ok = s.db.RawView().Object(id)
		if !ok {
			return fmt.Errorf("no object at %q", rest[0])
		}
	}
	fmt.Fprintf(s.out, "id=%d class=%s", o.ID, o.Class.QualifiedName())
	if o.Pattern {
		fmt.Fprint(s.out, " pattern")
	}
	if o.Value.IsDefined() {
		fmt.Fprintf(s.out, " value=%s", o.Value.Quote())
	}
	fmt.Fprintln(s.out)
	return nil
}

func (s *shell) tree(rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: tree <name>")
	}
	v := s.db.View()
	id, ok := v.ObjectByName(rest[0])
	if !ok {
		return fmt.Errorf("no object named %q", rest[0])
	}
	var walk func(id seed.ID, depth int)
	walk = func(id seed.ID, depth int) {
		o, ok := v.Object(id)
		if !ok {
			return
		}
		indent := strings.Repeat("  ", depth)
		label := o.Name
		if !o.Independent() {
			label = o.Component().String()
		}
		fmt.Fprintf(s.out, "%s%s (%s)", indent, label, o.Class.QualifiedName())
		if o.Value.IsDefined() {
			fmt.Fprintf(s.out, " = %s", o.Value.Quote())
		}
		fmt.Fprintln(s.out)
		for _, ch := range v.Children(id, "") {
			walk(ch, depth+1)
		}
	}
	walk(id, 0)
	for _, rid := range v.RelationshipsOf(id) {
		r, ok := v.Relationship(rid)
		if !ok {
			continue
		}
		name := "inherits"
		if r.Assoc != nil {
			name = r.Assoc.Name()
		}
		fmt.Fprintf(s.out, "  -- %s:", name)
		for _, e := range r.Ends {
			eo, _ := v.Object(e.Object)
			label := eo.Name
			if label == "" {
				label = fmt.Sprintf("#%d", e.Object)
			}
			fmt.Fprintf(s.out, " %s=%s", e.Role, label)
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

func (s *shell) history(rest []string) error {
	if len(rest) < 1 {
		return fmt.Errorf("usage: history <path> [fromVersion]")
	}
	id, err := s.resolve(rest[0])
	if err != nil {
		return err
	}
	var prefix seed.VersionNumber
	if len(rest) > 1 {
		prefix, err = seed.ParseVersion(rest[1])
		if err != nil {
			return err
		}
	}
	for _, info := range s.db.HistoryOf(id, prefix) {
		fmt.Fprintf(s.out, "%-8s %s\n", info.Num, info.Note)
	}
	return nil
}

func (s *shell) inherit(rest []string) error {
	if len(rest) != 2 {
		return fmt.Errorf("usage: inherit <patternName> <inheritorName>")
	}
	pat, err := s.resolve(rest[0])
	if err != nil {
		return err
	}
	inh, err := s.resolve(rest[1])
	if err != nil {
		return err
	}
	_, err = s.db.Inherit(pat, inh)
	return err
}

// parseValueFor parses a surface value against the value kind the schema
// declares for the parent's role.
func (s *shell) parseValueFor(parent seed.ID, role, raw string) (seed.Value, error) {
	v := s.db.RawView()
	var kind seed.Kind
	if o, ok := v.Object(parent); ok {
		cls, err := o.Class.ResolveChild(role)
		if err != nil {
			return seed.Undefined, err
		}
		kind = cls.ValueKind()
	} else if r, ok := v.Relationship(parent); ok && r.Assoc != nil {
		cls, err := r.Assoc.ResolveChild(role)
		if err != nil {
			return seed.Undefined, err
		}
		kind = cls.ValueKind()
	} else {
		return seed.Undefined, fmt.Errorf("no item at parent")
	}
	return seed.ParseValue(kind, raw)
}

// resolve looks a path up in the user view first and falls back to the raw
// view so that patterns stay addressable.
func (s *shell) resolve(path string) (seed.ID, error) {
	if id, err := s.db.ResolvePath(path); err == nil {
		return id, nil
	}
	return s.db.ResolvePathRaw(path)
}

// splitKindPrefix splits an optional kind prefix (int:5, real:1.5,
// bool:true, date:1986-02-05, str:x) off a comparison value; without a
// prefix the value is a string.
func splitKindPrefix(raw string) (seed.Kind, string) {
	if k, rest, ok := strings.Cut(raw, ":"); ok {
		switch k {
		case "str":
			return seed.KindString, rest
		case "int":
			return seed.KindInteger, rest
		case "real":
			return seed.KindReal, rest
		case "bool":
			return seed.KindBoolean, rest
		case "date":
			return seed.KindDate, rest
		}
	}
	return seed.KindString, raw
}
