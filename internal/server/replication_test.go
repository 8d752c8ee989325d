package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
	"repro/seed"
)

// startPrimary opens a file-backed primary and serves it.
func startPrimary(t *testing.T, opts seed.Options) (*seed.Database, *Server, string) {
	t.Helper()
	if opts.Schema == nil {
		opts.Schema = seed.Figure3Schema()
	}
	db, err := seed.Open(filepath.Join(t.TempDir(), "primary"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv, addr
}

// startReplica runs a Follower against a primary address and waits for its
// first catch-up.
func startReplica(t *testing.T, primaryAddr string) (*seed.Database, *Follower) {
	t.Helper()
	rep := seed.NewFollower()
	fol := NewFollower(rep, primaryAddr)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go fol.Run(ctx)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := fol.WaitReady(wctx); err != nil {
		t.Fatalf("follower never caught up: %v", err)
	}
	return rep, fol
}

// awaitConvergence polls until the replica's state digest equals the
// primary's current digest. The primary must be quiescent.
func awaitConvergence(t *testing.T, primary, replica *seed.Database, when string) {
	t.Helper()
	want, err := primary.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := replica.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: replica never converged (primary %s, replica %s)", when, want, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerServesReadsRefusesWrites: the end-to-end wire path — a
// follower server bootstraps over subscribe-log, serves the retrieval
// surface from replica state, reports its position in stats, and refuses
// every mutating op with the retryable not-primary code.
func TestFollowerServesReadsRefusesWrites(t *testing.T) {
	primary, psrv, primaryAddr := startPrimary(t, seed.Options{})
	alarms, err := primary.CreateObject("Data", "Alarms")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := primary.CreateSubObject(alarms, "Text")
	if _, err := primary.CreateValueObject(text, "Selector", seed.NewString("Representation")); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.SaveVersion("v1"); err != nil {
		t.Fatal(err)
	}

	rep, fol := startReplica(t, primaryAddr)
	fsrv := New(rep)
	fsrv.SetFollower(true)
	fsrv.SetReplicaStatus(fol.Status)
	faddr, err := fsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fsrv.Close() })

	awaitConvergence(t, primary, rep, "after bootstrap")

	cli, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Retrieval surface answers from replica state.
	names, err := cli.List("")
	if err != nil || len(names) != 1 || names[0] != "Alarms" {
		t.Fatalf("List on follower = %v, %v", names, err)
	}
	snaps, err := cli.Get("Alarms")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("Get on follower = %v, %v", snaps, err)
	}
	vers, err := cli.Versions()
	if err != nil || len(vers) != 1 {
		t.Fatalf("Versions on follower = %v, %v", vers, err)
	}
	st, err := cli.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Follower || st.FollowerGen == 0 {
		t.Fatalf("stats missing follower position: %+v", st)
	}

	// Every op-table row answers as its follower flag says: mutations, lock
	// traffic and subscribe-log (followers do not chain) are refused with the
	// redial class, the retrieval surface is served.
	refused := []wire.Op{wire.OpCheckin, wire.OpCheckout, wire.OpRelease, wire.OpSaveVersion, wire.OpSubscribeLog}
	walkRoutes(t, cli, "Alarms", func(rt route) bool { return rt.follower }, wire.ErrNotPrimary, refused...)
	// The refusals are counted under their own code, not as uncoded errors,
	// and the refused subscription is timed like every other op.
	var scrape strings.Builder
	fsrv.WriteMetrics(&scrape)
	for _, line := range []string{
		fmt.Sprintf(`seed_responses_total{code="not-primary"} %d`, len(refused)),
		`seed_responses_total{code="error"} 0`,
		`seed_op_duration_seconds_count{op="subscribe-log"} 1`,
	} {
		if !strings.Contains(scrape.String(), line+"\n") {
			t.Errorf("/metrics after the follower refusals lacks %q", line)
		}
	}
	// The primary times the follower's one successful subscription (after
	// the publisher starts, so it may trail the stream).
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		scrape.Reset()
		psrv.WriteMetrics(&scrape)
		if strings.Contains(scrape.String(), `seed_op_duration_seconds_count{op="subscribe-log"} 1`+"\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary /metrics never timed the subscription:\n%s", scrape.String())
		}
	}

	// Writes after bootstrap flow through the live tap.
	if _, err := primary.CreateObject("Action", "Sensor"); err != nil {
		t.Fatal(err)
	}
	awaitConvergence(t, primary, rep, "after live write")
	names, err = cli.List("")
	if err != nil || len(names) != 2 {
		t.Fatalf("List after live write = %v, %v", names, err)
	}
}

// TestReplicaDifferentialRandomized is the tentpole differential: random
// mutation batches on the primary, with periodic forced stream disconnects,
// must leave the replica digest-identical to the primary after every batch
// — byte-equal logical state, no lost or re-applied records, across both
// the live-tap path and the reconnect-and-resync path.
func TestReplicaDifferentialRandomized(t *testing.T) {
	// Tiny segments so bootstrap and resync cross many segment boundaries.
	primary, _, primaryAddr := startPrimary(t, seed.Options{SegmentSize: 512})
	rep, fol := startReplica(t, primaryAddr)

	rng := rand.New(rand.NewPCG(1986, 2))
	var ids []seed.ID
	mk := func() {
		id, err := primary.CreateObject("Data", fmt.Sprintf("Obj%04d", len(ids)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	mk()

	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		switch rng.IntN(4) {
		case 0:
			mk()
		case 1: // value churn on a sub-object
			id := ids[rng.IntN(len(ids))]
			sub, err := primary.CreateSubObject(id, "Text")
			if err == nil {
				if _, err := primary.CreateValueObject(sub, "Selector", seed.NewString(fmt.Sprintf("v-%d", round))); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // a multi-record transaction batch
			tx, err := primary.BeginTx()
			if err != nil {
				t.Fatal(err)
			}
			a, err := tx.CreateObject("Data", fmt.Sprintf("Tx%04d", round))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.CreateSubObject(a, "Text"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, a)
		case 3:
			if _, err := primary.SaveVersion(fmt.Sprintf("round-%d", round)); err != nil {
				t.Fatal(err)
			}
		}
		if round%6 == 5 {
			fol.Disconnect() // force a reconnect-and-resync under load
		}
		awaitConvergence(t, primary, rep, fmt.Sprintf("round %d", round))
	}
	if fol.Resyncs() < 2 {
		t.Fatalf("forced disconnects never exercised resync: %d bootstraps", fol.Resyncs())
	}
}

// TestFollowerCrashTruncationMatrix kills the replication stream at every
// chunk boundary — snapshot, each sealed segment, the caught-up marker,
// live batches — via the chunk hook, letting the follower reconnect each
// time. Convergence with digest equality proves every cut point resyncs
// cleanly: nothing lost, nothing applied twice.
func TestFollowerCrashTruncationMatrix(t *testing.T) {
	primary, _, primaryAddr := startPrimary(t, seed.Options{SegmentSize: 256})
	// Enough pre-existing state for a multi-segment, multi-chunk bootstrap.
	for i := 0; i < 12; i++ {
		if _, err := primary.CreateObject("Data", fmt.Sprintf("Seed%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	injected := errors.New("injected stream cut")
	var mu sync.Mutex
	cutAt, cuts := 1, 0
	disabled := false
	rep := seed.NewFollower()
	fol := NewFollower(rep, primaryAddr)
	// Stream k dies at chunk k: successive connections walk the cut point
	// across every boundary until one survives the whole bootstrap.
	fol.chunkHook = func(n int, chunk *wire.LogChunk) error {
		mu.Lock()
		defer mu.Unlock()
		if disabled {
			return nil
		}
		if n == cutAt {
			cutAt++
			cuts++
			return injected
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go fol.Run(ctx)
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := fol.WaitReady(wctx); err != nil {
		t.Fatalf("follower never survived the cut matrix: %v", err)
	}
	mu.Lock()
	disabled = true
	matrixCuts := cuts
	mu.Unlock()
	// The bootstrap is snapshot + segments + caught-up: the matrix must
	// have exercised several distinct boundaries before one stream lived.
	if matrixCuts < 3 {
		t.Fatalf("cut matrix too shallow: %d cuts", matrixCuts)
	}
	awaitConvergence(t, primary, rep, "after cut matrix")

	// Post-matrix live writes still apply exactly once.
	for i := 0; i < 4; i++ {
		if _, err := primary.CreateObject("Action", fmt.Sprintf("Post%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	awaitConvergence(t, primary, rep, "after post-matrix writes")
	if fol.Resyncs() < 1 {
		t.Fatalf("no completed bootstrap recorded: %d", fol.Resyncs())
	}
}

// TestFollowerLagReportsAndRecovers: under a write burst the follower's
// observed lag is eventually reported and then returns to zero once the
// burst stops.
func TestFollowerLagReportsAndRecovers(t *testing.T) {
	primary, _, primaryAddr := startPrimary(t, seed.Options{})
	rep, fol := startReplica(t, primaryAddr)

	for i := 0; i < 50; i++ {
		if _, err := primary.CreateObject("Data", fmt.Sprintf("Burst%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	awaitConvergence(t, primary, rep, "after burst")
	appliedGen, headGen, applied := fol.Status()
	if applied == 0 {
		t.Fatal("follower applied no records")
	}
	if appliedGen < headGen {
		t.Fatalf("lag did not return to zero: applied %d, head %d", appliedGen, headGen)
	}
}
