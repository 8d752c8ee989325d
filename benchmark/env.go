package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/seed"
)

// env is one workload's system under test, set up and ready for its first
// measured request: the served database, its server, the follower pair
// when the workload has one, and one connection pair per client.
type env struct {
	w   *workload
	d   *dataset
	dir string // database directory; "" for an in-memory database

	db   *seed.Database
	srv  *server.Server
	addr string

	rep     *seed.Database // follower replica, nil without a follower
	fol     *server.Follower
	folStop func() // cancels the follower's Run and waits for it
	fsrv    *server.Server

	conns []*conn

	setup     time.Duration
	items     int    // objects + relationships after set-up
	heapBytes uint64 // heap growth over set-up, after two GCs on either side
}

// conn is one client's connections. reader is the follower connection when
// the workload has a follower, else primary itself.
type conn struct {
	primary, reader *client.Client
}

func (c *conn) to(t target) *client.Client {
	if t == toReader {
		return c.reader
	}
	return c.primary
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func declareIndexes(db *seed.Database) error {
	if err := db.CreateAttrIndex("Data", "Description", seed.AttrHash); err != nil {
		return err
	}
	return db.CreateAttrIndex("Data", "Revised", seed.AttrOrdered)
}

// setUp builds the environment for w with nConns client connection pairs.
// tmp is the directory database directories are made in. Everything from
// the first byte populated to the reply of the priming requests counts as
// set-up time: the priming get and query pay the first freeze of the
// populated state, which a lazy implementation would otherwise move into
// the measured window.
func setUp(w *workload, objects, nConns int, tmp string) (e *env, err error) {
	e = &env{w: w, d: newDataset(objects)}
	defer func() {
		if err != nil {
			e.tearDown()
			e = nil
		}
	}()
	heap0 := heapAlloc()
	start := time.Now()

	if w.fileBacked {
		if e.dir, err = os.MkdirTemp(tmp, "db-"); err != nil {
			return e, err
		}
		// Load without fsyncs, compact to a snapshot, and restart under the
		// workload's own policy — loading 60 000 items under group commit
		// would be 60 000 fsyncs.
		load, err := seed.Open(e.dir, seed.Options{Schema: seed.Figure3Schema()})
		if err != nil {
			return e, err
		}
		if err := e.d.populate(load); err != nil {
			load.Close()
			return e, err
		}
		if err := load.Compact(); err != nil {
			load.Close()
			return e, err
		}
		if err := load.Close(); err != nil {
			return e, err
		}
		if e.db, err = e.open(); err != nil {
			return e, err
		}
	} else {
		if e.db, err = seed.NewMemory(seed.Figure3Schema()); err != nil {
			return e, err
		}
		if err := e.d.populate(e.db); err != nil {
			return e, err
		}
	}
	if err := declareIndexes(e.db); err != nil {
		return e, err
	}
	e.srv = server.New(e.db)
	if e.addr, err = e.srv.Listen("127.0.0.1:0"); err != nil {
		return e, err
	}
	readAddr := e.addr
	if w.follower {
		if readAddr, err = e.startFollower(); err != nil {
			return e, err
		}
	}
	for i := 0; i < nConns; i++ {
		c := &conn{}
		e.conns = append(e.conns, c)
		if c.primary, err = client.Dial(e.addr); err != nil {
			return e, err
		}
		c.reader = c.primary
		if w.follower {
			if c.reader, err = client.Dial(readAddr); err != nil {
				return e, err
			}
		}
		for _, cl := range []*client.Client{c.primary, c.reader} {
			if _, err := cl.Get(e.d.names[0]); err != nil {
				return e, err
			}
			if _, _, err := cl.Query(&wire.Query{Class: "Data", Where: whereDescription(0), Limit: 1}); err != nil {
				return e, err
			}
		}
	}
	e.setup = time.Since(start)

	st := e.db.Stats()
	e.items = st.Core.Objects + st.Core.Relationships
	if heap1 := heapAlloc(); heap1 > heap0 {
		e.heapBytes = heap1 - heap0
	}
	return e, nil
}

// open opens the database directory under the workload's policy.
func (e *env) open() (*seed.Database, error) {
	return seed.Open(e.dir, seed.Options{SyncPolicy: e.w.policy, CompactAfter: compactAt})
}

// startFollower bootstraps an in-process follower of the primary and serves
// it; it returns the follower server's address.
func (e *env) startFollower() (string, error) {
	e.rep = seed.NewFollower()
	e.fol = server.NewFollower(e.rep, e.addr)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.fol.Run(ctx)
	}()
	e.folStop = func() {
		cancel()
		<-done
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := e.fol.WaitReady(wctx); err != nil {
		return "", fmt.Errorf("follower bootstrap: %w", err)
	}
	if err := declareIndexes(e.rep); err != nil {
		return "", err
	}
	e.fsrv = server.New(e.rep)
	e.fsrv.SetFollower(true)
	e.fsrv.SetReplicaStatus(e.fol.Status)
	return e.fsrv.Listen("127.0.0.1:0")
}

// stop closes connections, servers and databases, keeping the database
// directory for the reopen check. It returns the first close error of the
// primary database: a failed flush there would be a durability bug.
func (e *env) stop() error {
	for _, c := range e.conns {
		if c.primary != nil {
			c.primary.Close()
		}
		if c.reader != nil {
			c.reader.Close()
		}
	}
	e.conns = nil
	if e.fsrv != nil {
		e.fsrv.Close()
		e.fsrv = nil
	}
	if e.folStop != nil {
		e.folStop()
		e.folStop = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	var err error
	if e.db != nil {
		err = e.db.Close()
		e.db = nil
	}
	if e.rep != nil {
		e.rep.Close()
		e.rep = nil
	}
	return err
}

// tearDown stops everything and removes the database directory.
func (e *env) tearDown() {
	_ = e.stop() // the run is over; a close error has nowhere to go
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
}

// converged waits until the follower's state digest equals the primary's.
// The primary must be quiescent.
func (e *env) converged(timeout time.Duration) error {
	want, err := e.db.StateDigest()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for {
		got, err := e.rep.StateDigest()
		if err != nil {
			return err
		}
		if got == want {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("follower state digest differs from the primary's")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
