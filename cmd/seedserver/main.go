// Command seedserver runs the central SEED server of the two-level
// multi-user scheme over a file-backed database.
//
// Usage:
//
//	seedserver -dir /var/lib/seed -addr 127.0.0.1:7544 [-schema schema.sdl]
//	           [-segment-size 4194304] [-sync request|group]
//	           [-idle-timeout 5m] [-write-timeout 30s]
//	           [-max-inflight 256] [-queue-depth 64]
//	           [-metrics-addr 127.0.0.1:7545] [-drain-timeout 30s]
//	           [-log-format text|json] [-follow 127.0.0.1:7544]
//	           [-attr-index CLASS:PATH[:hash|ordered]]...
//
// A fresh directory requires -schema (an SDL file); an existing database
// loads its schema from storage. -segment-size caps one write-ahead-log
// segment file; -sync group makes every operation durable before it is
// acknowledged (the database serializes operations, so this costs one
// fsync per operation; fsync coalescing across concurrent committers
// happens at the storage layer). -idle-timeout disconnects clients that
// send nothing for the given duration, releasing their locks and aborting
// their in-flight check-ins; it defaults to off because a checked-out
// client editing locally is legitimately silent for long stretches —
// enable it only where clients reconnect and re-checkout on error.
// -write-timeout bounds how long one response frame may take to reach a
// client before the connection is reaped — size it generously for slow
// links, since a near-limit 8 MiB frame needs the whole bound. Zero
// (the default) disables either; both deadlines preserve pre-v2 behavior
// unless explicitly armed.
//
// Overload protection: -max-inflight caps the requests executing at once
// across all connections, and -queue-depth bounds how many more may wait
// for a slot; everything beyond both is shed immediately with the
// retryable "overloaded" wire code (clients using client.Retry back off
// and come back). -max-inflight 0 (the default) disables the gate.
//
// Observability: -metrics-addr starts a side HTTP listener serving
// /metrics (Prometheus text format: per-operation latency histograms,
// response-code counters, connection/lock/queue/WAL gauges), /healthz
// (liveness), and /readyz (flips to 503 the moment a drain begins, so a
// load balancer stops routing before the listener goes away). Empty (the
// default) disables it. -log-format selects the structured log rendering:
// text (key=value lines) or json (one object per line).
//
// Replication: -follow turns the process into a read-only follower of the
// primary at the given address. The follower keeps an in-memory replica
// converged by subscribing to the primary's write-ahead log (snapshot +
// sealed segments + live records), serves the whole retrieval surface
// (get, list, query, versions, completeness, stats) from its own pinned
// snapshots at replication lag, and refuses every mutation with the
// retryable "not-primary" wire code — clients redial the primary (its
// wire.Refusals row has the redial class, which client.Classify reports).
// The listener starts only after the first complete bootstrap, so a
// follower that accepts connections is serving real state; dropped primary
// connections reconnect with backoff and resync without interrupting
// reads. -dir, -schema, -segment-size and -sync are ignored in follower
// mode (the replica is not durable — it re-bootstraps from the primary on
// restart). OpStats reports the follower's applied generation and observed
// lag.
//
// Query acceleration: each -attr-index (repeatable) registers an attribute
// index on a class and role path ("Tool.Defect:Text.Selector" indexes the
// Selector value below Text sub-objects of Defect roots); the cost-based
// planner then answers equality — and, for ordered indexes, range —
// predicates on that path from the index instead of scanning. Indexes are
// in-memory acceleration state, registered again from the flags on every
// start; followers register them after the first bootstrap and keep them
// across resyncs.
//
// Shutdown: on SIGTERM or SIGINT the server drains gracefully — it stops
// accepting connections, refuses new mutations with the retryable
// "shutting-down" code, waits up to -drain-timeout for in-flight
// check-ins to reach group-commit durability, seals the write-ahead log's
// tail segment, closes the remaining connections, and exits 0. A second
// signal, or the timeout, forces immediate teardown.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/seed"
)

func main() {
	dir := flag.String("dir", "seed-data", "database directory")
	addr := flag.String("addr", "127.0.0.1:7544", "listen address")
	schemaFile := flag.String("schema", "", "SDL schema file (required for a fresh database)")
	segmentSize := flag.Int64("segment-size", 0, "WAL segment size cap in bytes (0 = storage default)")
	syncMode := flag.String("sync", "request", "durability policy: request (fsync on save points) or group (group-committed fsync per operation)")
	idleTimeout := flag.Duration("idle-timeout", 0, "disconnect a client after this silence, releasing its locks and in-flight check-in (0 disables; note a checked-out client editing locally is legitimately silent, so enable only with clients that reconnect and re-checkout on error)")
	writeTimeout := flag.Duration("write-timeout", 0, "maximum time one response frame may take to reach a client before the connection is reaped (0 disables; bound one frame's transfer, so size it to the slowest link expected to carry an 8 MiB frame)")
	maxInflight := flag.Int("max-inflight", 0, "maximum requests executing at once across all connections; excess waits in the admission queue or is shed with the retryable overloaded code (0 disables the gate)")
	queueDepth := flag.Int("queue-depth", 64, "requests allowed to wait for an execution slot when -max-inflight is reached; beyond this they are shed immediately")
	metricsAddr := flag.String("metrics-addr", "", "side HTTP listen address for /metrics, /healthz, /readyz (empty disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT, how long to wait for in-flight check-ins to reach durability before forcing teardown")
	logFormat := flag.String("log-format", server.LogText, "structured log rendering: text (key=value) or json (one object per line)")
	follow := flag.String("follow", "", "primary address to replicate from: serve as a read-only follower (ignores -dir/-schema/-segment-size/-sync; mutations are refused with the retryable not-primary code)")
	var attrIndexes []seed.AttrSpec
	flag.Func("attr-index", "register an attribute index CLASS:PATH[:hash|ordered] at startup so predicate queries on that path run index-backed (repeatable; ordered is the default and also answers range predicates)", func(s string) error {
		spec, err := parseAttrIndex(s)
		if err != nil {
			return err
		}
		attrIndexes = append(attrIndexes, spec)
		return nil
	})
	flag.Parse()

	var db *seed.Database
	var fol *server.Follower
	folCtx, folStop := context.WithCancel(context.Background())
	defer folStop()
	if *follow != "" {
		db = seed.NewFollower()
		fol = server.NewFollower(db, *follow)
		fol.SetLogger(log.Printf)
		go fol.Run(folCtx)
	} else {
		opts := seed.Options{CompactAfter: 4 << 20, SegmentSize: *segmentSize}
		switch *syncMode {
		case "request":
			opts.SyncPolicy = seed.SyncOnRequest
		case "group":
			opts.SyncPolicy = seed.SyncGroupCommit
		default:
			log.Fatalf("unknown -sync policy %q (want request or group)", *syncMode)
		}
		if *schemaFile != "" {
			text, err := os.ReadFile(*schemaFile)
			if err != nil {
				log.Fatalf("reading schema: %v", err)
			}
			sch, err := seed.ParseSDL(string(text))
			if err != nil {
				log.Fatalf("parsing schema: %v", err)
			}
			opts.Schema = sch
		}
		var err error
		db, err = seed.Open(*dir, opts)
		if err != nil {
			log.Fatalf("opening database: %v", err)
		}
		// Indexes are in-memory acceleration, not persistent state — a
		// restart registers them again from the flags.
		for _, spec := range attrIndexes {
			if err := db.CreateAttrIndex(spec.Key.Class, spec.Key.Path, spec.Kind); err != nil {
				log.Fatalf("registering attribute index %s: %v", spec.Key, err)
			}
		}
	}

	srv := server.New(db)
	srv.SetLogger(log.Printf)
	if err := srv.SetLogFormat(*logFormat); err != nil {
		log.Fatalf("%v", err)
	}
	srv.SetTimeouts(*idleTimeout, *writeTimeout)
	srv.SetAdmission(*maxInflight, *queueDepth, 0)
	if fol != nil {
		// A follower listens only once it serves real state: the first
		// bootstrap must complete before the first client connects. A
		// signal during the wait aborts the boot.
		log.Printf("seedserver: following %s, waiting for first catch-up", *follow)
		wctx, wstop := signal.NotifyContext(folCtx, os.Interrupt, syscall.SIGTERM)
		err := fol.WaitReady(wctx)
		wstop()
		if err != nil {
			log.Fatalf("follower bootstrap: %v", err)
		}
		srv.SetFollower(true)
		srv.SetReplicaStatus(fol.Status)
		// Followers register indexes after the first bootstrap, once the
		// replicated schema (and its classes) exists to validate against.
		for _, spec := range attrIndexes {
			if err := db.CreateAttrIndex(spec.Key.Class, spec.Key.Path, spec.Kind); err != nil {
				log.Fatalf("registering attribute index %s: %v", spec.Key, err)
			}
		}
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listening: %v", err)
	}
	if fol != nil {
		log.Printf("seedserver: follower of %s serving on %s", *follow, bound)
	} else {
		log.Printf("seedserver: serving %s on %s", *dir, bound)
	}

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		log.Printf("seedserver: metrics on %s", mln.Addr().String())
		go func() {
			// The metrics plane dies with the process; /readyz keeps
			// answering through the drain so orchestrators see the flip.
			if err := http.Serve(mln, srv.MetricsHandler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("seedserver: draining (timeout %s; signal again to force)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sig // a second signal forces immediate teardown
		cancel()
	}()
	err = srv.Shutdown(ctx)
	cancel()
	if err != nil {
		log.Printf("drain: %v", err)
		if err := srv.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
	folStop() // stop replicating before the replica closes
	if err := db.Close(); err != nil {
		log.Fatalf("closing database: %v", err)
	}
	log.Printf("seedserver: exit")
}

// parseAttrIndex parses one -attr-index value: CLASS:PATH[:hash|ordered].
func parseAttrIndex(s string) (seed.AttrSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
		return seed.AttrSpec{}, fmt.Errorf("want CLASS:PATH[:hash|ordered], got %q", s)
	}
	kind := seed.AttrOrdered
	if len(parts) == 3 {
		var err error
		kind, err = seed.ParseAttrKind(parts[2])
		if err != nil {
			return seed.AttrSpec{}, err
		}
	}
	return seed.AttrSpec{Key: seed.AttrKey{Class: parts[0], Path: parts[1]}, Kind: kind}, nil
}
