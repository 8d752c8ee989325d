package main

import (
	"time"

	"repro/seed"
)

// The registry: every workload and metric the benchmark knows, by the name
// later issues cite. BENCHMARK.json lists the same names; the smoke test
// fails when the two drift apart.

const (
	clients     = 2                      // connections and generator goroutines; the sandbox has 2 cores
	readWindow  = 8                      // requests in flight per connection on read.mixed
	warmup      = 3 * time.Second        // untimed, before the measured window
	unitTimeout = time.Second            // a slower unit counts as failed
	compactAt   = int64(256 << 10)       // CompactAfter; see README for why not seedserver's 4 MiB
	setupRounds = 5                      // set-ups per timed run; setup_s is their median
	sliceLen    = 500 * time.Millisecond // throughput and p50 are taken per slice of the window
	pollEvery   = 100 * time.Millisecond // between looks at the log files for WAL bytes and compactions
)

type workload struct {
	name        string
	why         string
	objects     int
	fileBacked  bool
	policy      seed.SyncPolicy
	follower    bool
	window      int // requests in flight per connection; 1 is lockstep
	tracedUnits int
	next        func(*gen) unit
}

var workloads = []workload{
	{
		name: "edit.durable", objects: 10_000, fileBacked: true, policy: seed.SyncGroupCommit, window: 1,
		tracedUnits: 2000, next: (*gen).editUnit,
		why: "check-out, 3 updates, check-in under group commit: storage (fsync, rotation, compaction) does most of the work, query does none",
	},
	{
		name: "read.mixed", objects: 100_000, window: readWindow,
		tracedUnits: 20000, next: (*gen).readUnit,
		why: "pipelined gets and four query shapes, no writes: wire, server dispatch and query do all the work, storage and freeze none",
	},
	{
		name: "spades.session", objects: 10_000, fileBacked: true, policy: seed.SyncOnRequest, window: 1,
		tracedUnits: 2000, next: (*gen).sessionUnit,
		why: "query, gets, check-out, edit, check-in, read-back in lockstep without fsync: seed tx, journal encode and one freeze per check-in dominate",
	},
	{
		name: "spades.session.follower", objects: 10_000, fileBacked: true, policy: seed.SyncOnRequest, follower: true, window: 1,
		tracedUnits: 2000, next: (*gen).sessionUnit,
		why: "the session unit with every read on a follower: WAL tap, log stream, replica apply and follower freeze are on the blocking path",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// End-to-end metrics, reported by the timed run (tracing off).
var endToEnd = []metricDef{
	{"throughput_units_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"heap_bytes_per_item", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, reported by the traced run. Layer names are this
// repository's packages.
var perLayer = []metricDef{
	{name: "wire.codec_us", unit: "us", better: "lower"},
	{name: "wire.bytes_per_unit", unit: "B", better: "lower"},
	{name: "server.residual_us", unit: "us", better: "lower"},
	{name: "server.residual_share", unit: "share", better: "lower"},
	{name: "seed.tx_us", unit: "us", better: "lower"},
	{name: "core.freeze_us", unit: "us", better: "lower"},
	{name: "core.freezes_per_unit", unit: "count", better: "lower"},
	{name: "seed.read_us", unit: "us", better: "lower"},
	{name: "query.run_us", unit: "us", better: "lower"},
	{name: "query.candidates_per_result", unit: "count", better: "lower"},
	{name: "query.plans.scan", unit: "count", better: "lower"},
	{name: "query.plans.name", unit: "count", better: "higher"},
	{name: "query.plans.class", unit: "count", better: "lower"},
	{name: "query.plans.attr-eq", unit: "count", better: "higher"},
	{name: "query.plans.attr-range", unit: "count", better: "higher"},
	{name: "storage.commit_us", unit: "us", better: "lower"},
	{name: "storage.compactions", unit: "count", better: "lower"},
	{name: "storage.compaction_stall_ms", unit: "ms", better: "lower"},
	{name: "follower.visible_lag_us", unit: "us", better: "lower"},
	{name: "follower.stale_reads_per_unit", unit: "count", better: "lower"},
	{name: "follower.resyncs", unit: "count", better: "lower"},
	{name: "wal_bytes_per_unit", unit: "B", better: "lower"},
	{name: "failed_share", unit: "share", better: "lower"},
	{name: "trace_overhead_share", unit: "share", better: "lower"},
}
