package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/item"
	"repro/internal/wire"
	"repro/seed"
)

// Randomized multi-client check-in stress: N clients draw random lock sets
// over a shared root pool (disjoint and overlapping), follow random
// check-in / checkout / release / disconnect schedules, and every committed
// batch is recorded client-side. Afterwards the server database must equal
// a serial replay of exactly the committed batches — the differential proof
// that concurrent lock-scoped check-ins are equivalent to some serial
// execution, lose no update, and apply nothing that was not acked.
//
// Two structural invariants make the replay exact without a global commit
// log: each batch increments a per-root counter read from its own checkout
// snapshot (the root's lock serializes those, so per-root counters must
// come out gapless — a gap or duplicate is a lost update or broken lock),
// and created objects carry client-unique names (so creations commute).

type stressCreate struct {
	class, name, desc string
}

type stressBatch struct {
	root    string
	counter int
	creates []stressCreate
}

func TestRandomizedConcurrentCheckins(t *testing.T) {
	const (
		rootCount = 8
		clients   = 6
		iters     = 40
	)
	_, addr, db := startServer(t)

	rootNames := make([]string, rootCount)
	for i := range rootNames {
		rootNames[i] = fmt.Sprintf("Root%d", i)
		class := "Data"
		if i%2 == 1 {
			class = "Action"
		}
		id, err := db.CreateObject(class, rootNames[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateValueObject(id, "Description", seed.NewString("0")); err != nil {
			t.Fatal(err)
		}
	}

	committed := make([][]stressBatch, clients)
	var lockConflicts, disconnects, checkins atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + 17))
			cl, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer func() { cl.Close() }()
			createCtr := 0
			for it := 0; it < iters; it++ {
				switch a := rng.Intn(10); {
				case a < 6: // check-in against a random (possibly overlapping) lock set
					k := 1 + rng.Intn(3)
					perm := rng.Perm(rootCount)
					names := make([]string, k)
					for i := 0; i < k; i++ {
						names[i] = rootNames[perm[i]]
					}
					ws, err := cl.Checkout(names...)
					if err != nil {
						if errors.Is(err, wire.ErrLocked) {
							lockConflicts.Add(1) // another client holds one; skip this round
							continue
						}
						errCh <- fmt.Errorf("client %d checkout %v: %w", c, names, err)
						return
					}
					target := names[0]
					snap, ok := ws.Copy(target)
					if !ok {
						errCh <- fmt.Errorf("client %d: checkout of %s returned no copy", c, target)
						return
					}
					cur := -1
					for _, o := range snap.Objects {
						if o.Path == target+".Description" {
							cur, err = strconv.Atoi(o.Value)
							if err != nil {
								errCh <- fmt.Errorf("client %d: %s counter %q: %w", c, target, o.Value, err)
								return
							}
						}
					}
					if cur < 0 {
						errCh <- fmt.Errorf("client %d: %s has no Description in its checkout copy", c, target)
						return
					}
					batch := stressBatch{root: target, counter: cur + 1}
					ws.SetValue(target+".Description", uint8(seed.KindString), strconv.Itoa(cur+1))
					for n := rng.Intn(3); n > 0; n-- {
						cr := stressCreate{
							class: []string{"Data", "Action"}[rng.Intn(2)],
							name:  fmt.Sprintf("N%dx%d", c, createCtr),
							desc:  fmt.Sprintf("by client %d", c),
						}
						createCtr++
						ws.CreateObject(cr.class, cr.name)
						ws.CreateValue(cr.name, "Description", uint8(seed.KindString), cr.desc)
						batch.creates = append(batch.creates, cr)
					}
					if err := ws.Commit(); err != nil {
						// Disjoint lock sets may never false-positive as
						// conflicts, and nothing else is allowed to fail.
						errCh <- fmt.Errorf("client %d checkin on %v: %w", c, names, err)
						return
					}
					committed[c] = append(committed[c], batch)
					checkins.Add(1)
				case a < 7: // checkout then abandon: locks must come back
					ws, err := cl.Checkout(rootNames[rng.Intn(rootCount)])
					if err != nil {
						if errors.Is(err, wire.ErrLocked) {
							lockConflicts.Add(1)
							continue
						}
						errCh <- err
						return
					}
					if err := ws.Abandon(); err != nil {
						errCh <- err
						return
					}
				case a < 8: // retrieval interleaved with the write traffic
					if _, err := cl.Get(rootNames[rng.Intn(rootCount)]); err != nil {
						errCh <- err
						return
					}
					if _, err := cl.List(""); err != nil {
						errCh <- err
						return
					}
				case a < 9: // whole-database barrier op under fire
					if _, err := cl.SaveVersion("stress"); err != nil {
						errCh <- fmt.Errorf("client %d save-version: %w", c, err)
						return
					}
				default: // disconnect mid-schedule: the server must release
					// locks and abort anything staged, then a fresh
					// connection carries on.
					cl.Close()
					disconnects.Add(1)
					cl, err = client.Dial(addr)
					if err != nil {
						errCh <- err
						return
					}
				}
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if checkins.Load() == 0 {
		t.Fatal("schedule committed no batches; workload too shallow")
	}
	t.Logf("%d check-ins, %d lock conflicts skipped, %d disconnects",
		checkins.Load(), lockConflicts.Load(), disconnects.Load())

	// Per-root counter sequences must be gapless: the Nth committed batch
	// on a root wrote N. A duplicate is two writers inside one lock; a gap
	// is a lost update.
	perRoot := make(map[string][]stressBatch)
	var creates []stressCreate
	for _, log := range committed {
		for _, b := range log {
			perRoot[b.root] = append(perRoot[b.root], b)
			creates = append(creates, b.creates...)
		}
	}
	for root, batches := range perRoot {
		sort.Slice(batches, func(i, j int) bool { return batches[i].counter < batches[j].counter })
		for i, b := range batches {
			if b.counter != i+1 {
				t.Fatalf("root %s: committed counters not gapless at %d (want %d)", root, b.counter, i+1)
			}
		}
	}

	// Serial replay of exactly the committed batches.
	replay, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range rootNames {
		class := "Data"
		if i%2 == 1 {
			class = "Action"
		}
		id, err := replay.CreateObject(class, name)
		if err != nil {
			t.Fatal(err)
		}
		final := "0"
		if bs := perRoot[name]; len(bs) > 0 {
			final = strconv.Itoa(bs[len(bs)-1].counter)
		}
		if _, err := replay.CreateValueObject(id, "Description", seed.NewString(final)); err != nil {
			t.Fatal(err)
		}
	}
	for _, cr := range creates {
		id, err := replay.CreateObject(cr.class, cr.name)
		if err != nil {
			t.Fatalf("replaying create of %s: %v", cr.name, err)
		}
		if _, err := replay.CreateValueObject(id, "Description", seed.NewString(cr.desc)); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := stressDump(db), stressDump(replay); got != want {
		t.Errorf("server state diverged from serial replay of committed batches:\n--- server ---\n%s\n--- replay ---\n%s", got, want)
	}
}

// stressDump renders a database state canonically by path (IDs differ
// between the live database and the replay).
func stressDump(db *seed.Database) string {
	v := db.RawView()
	var lines []string
	for _, id := range v.Objects() {
		o, ok := v.Object(id)
		if !ok {
			continue
		}
		path := "?"
		if p, ok := item.PathOf(v, id); ok {
			path = p.String()
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", path, o.Class.QualifiedName(), o.Value.String()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
