package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/seed"
)

func newRemoteShell(t *testing.T) (*shell, *seed.Database, func() string) {
	t.Helper()
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{remote: c, out: f}
	return sh, db, func() string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
}

func TestRemoteShellSession(t *testing.T) {
	sh, db, output := newRemoteShell(t)
	if _, err := db.CreateObject("Data", "Alarms"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateObject("Action", "Handler"); err != nil {
		t.Fatal(err)
	}
	run(t, sh,
		"ls",
		"query class Data",
		"tree Alarms",
		"check",
		"save first remote version",
		"versions",
		"stats",
	)
	out := output()
	for _, want := range []string{
		"Alarms", "Handler",
		"1 of 1 match(es)",
		"saved version",
		"first remote version",
		"objects", "relationships",
		"connections", "in-flight", "queued", "rejected", "locks", "draining",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("remote session output missing %q:\n%s", want, out)
		}
	}
}

func TestRemoteShellRefusesEdits(t *testing.T) {
	sh, _, _ := newRemoteShell(t)
	for _, cmd := range []string{"mk Data X", "set a b", "rm a", "select 1"} {
		if err := sh.exec(cmd); err == nil || !strings.Contains(err.Error(), "not available in remote mode") {
			t.Errorf("%q: err = %v, want remote-mode refusal", cmd, err)
		}
	}
	if err := sh.exec("bogus"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("bogus: err = %v", err)
	}
}

// TestRemoteTreeEndsInRoleOrder: a relationship's ends print in role order,
// so the same tree prints the same lines on every get.
func TestRemoteTreeEndsInRoleOrder(t *testing.T) {
	sh, db, output := newRemoteShell(t)
	alarms, err := db.CreateObject("Data", "Alarms")
	if err != nil {
		t.Fatal(err)
	}
	handler, err := db.CreateObject("Action", "Handler")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelationship("Access", map[string]seed.ID{"from": alarms, "by": handler}); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	for range runs {
		run(t, sh, "tree Alarms")
	}
	if got := strings.Count(output(), "  -- Access: by=Handler from=Alarms\n"); got != runs {
		t.Errorf("%d of %d trees printed the ends in role order:\n%s", got, runs, output())
	}
}
