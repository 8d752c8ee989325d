package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// The observability plane: per-operation latency histograms and response
// counters collected on the hot path with atomics only (no locks, no
// allocation), rendered on demand in the Prometheus text exposition format
// by Server.WriteMetrics — dependency-free, scraped over the side HTTP
// listener seedserver starts for -metrics-addr. Gauges (connections,
// in-flight, queue depth, locks, WAL size, ...) are sampled at scrape time
// from the structures that already own them, so the serving path pays for
// exactly two atomic adds per request.

// histBounds are the histogram bucket upper bounds in seconds. They span
// 100µs to 10s in a 1-2.5-5 progression: fine enough to separate "in-memory
// snapshot read" from "group-commit fsync" from "stuck behind overload".
var histBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// opHist is one operation's cumulative latency histogram.
type opHist struct {
	buckets [len(histBounds) + 1]atomic.Uint64 // last bucket is +Inf
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

func (h *opHist) observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(histBounds) && secs > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d))
}

// respCodes enumerates the response outcomes counted by seed_responses_total.
// "ok" is a success, "error" an uncoded failure; the rest are the wire codes.
var respCodes = func() []string {
	codes := []string{"ok", "error"}
	for _, r := range wire.Refusals {
		codes = append(codes, r.Code)
	}
	return codes
}()

// metrics is the server's hot-path counter set. All fields are atomics (or
// written once before serving starts), so handlers never contend on it.
type metrics struct {
	start       time.Time
	connsTotal  atomic.Uint64
	readWorkers atomic.Uint64       // read-lane workers started, over all connections
	ops         map[wire.Op]*opHist // one per routes row, built by newMetrics
	codes       map[string]*atomic.Uint64
}

func newMetrics() *metrics {
	m := &metrics{
		start: time.Now(),
		ops:   make(map[wire.Op]*opHist),
		codes: make(map[string]*atomic.Uint64),
	}
	for op := range routes {
		m.ops[op] = &opHist{}
	}
	for _, c := range respCodes {
		m.codes[c] = &atomic.Uint64{}
	}
	return m
}

// observe records one handled request: its latency under the operation's
// histogram and its outcome under the response-code counter.
func (m *metrics) observe(op wire.Op, code string, d time.Duration) {
	if h, ok := m.ops[op]; ok {
		h.observe(d)
	}
	m.countCode(code)
}

// outcomeCode maps a response onto its counter label: the wire code when
// one is set, "error" for uncoded failures, ok ("") otherwise.
func outcomeCode(resp *wire.Response) string {
	if resp.Code == "" && resp.Err != "" {
		return "error"
	}
	return resp.Code
}

// countCode bumps the outcome counter for one response code ("" = ok).
func (m *metrics) countCode(code string) {
	switch code {
	case "":
		code = "ok"
	default:
		if _, known := m.codes[code]; !known {
			code = "error"
		}
	}
	m.codes[code].Add(1)
}

// fmtFloat renders a float the way the Prometheus text format expects.
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WriteMetrics renders the server's metrics in the Prometheus text
// exposition format: per-operation latency histograms and response-code
// counters from the hot-path atomics, plus gauges sampled now from the
// admission gate, the connection and lock tables, and the database.
func (s *Server) WriteMetrics(w io.Writer) {
	m := s.met
	st := s.stats()
	fmt.Fprintf(w, "# HELP seed_up Whether the server process is serving.\n# TYPE seed_up gauge\nseed_up 1\n")
	fmt.Fprintf(w, "# HELP seed_uptime_seconds Seconds since the server was created.\n# TYPE seed_uptime_seconds gauge\nseed_uptime_seconds %s\n",
		fmtFloat(time.Since(m.start).Seconds()))

	// Histograms, one series set per op, ops in stable order.
	opNames := make([]string, 0, len(m.ops))
	for op := range m.ops {
		opNames = append(opNames, string(op))
	}
	sort.Strings(opNames)
	fmt.Fprintf(w, "# HELP seed_op_duration_seconds Latency of handled requests by operation.\n# TYPE seed_op_duration_seconds histogram\n")
	for _, name := range opNames {
		h := m.ops[wire.Op(name)]
		cum := uint64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := "+Inf"
			if i < len(histBounds) {
				le = fmtFloat(histBounds[i])
			}
			fmt.Fprintf(w, "seed_op_duration_seconds_bucket{op=%q,le=%q} %d\n", name, le, cum)
		}
		fmt.Fprintf(w, "seed_op_duration_seconds_sum{op=%q} %s\n", name, fmtFloat(float64(h.sumNs.Load())/1e9))
		fmt.Fprintf(w, "seed_op_duration_seconds_count{op=%q} %d\n", name, h.count.Load())
	}

	fmt.Fprintf(w, "# HELP seed_responses_total Responses by outcome code.\n# TYPE seed_responses_total counter\n")
	for _, c := range respCodes {
		fmt.Fprintf(w, "seed_responses_total{code=%q} %d\n", c, m.codes[c].Load())
	}
	fmt.Fprintf(w, "# HELP seed_rejected_total Requests shed by admission control with the overloaded code.\n# TYPE seed_rejected_total counter\nseed_rejected_total %d\n",
		st.Rejected)
	fmt.Fprintf(w, "# HELP seed_connections_total Connections accepted since start.\n# TYPE seed_connections_total counter\nseed_connections_total %d\n",
		m.connsTotal.Load())
	fmt.Fprintf(w, "# HELP seed_read_workers_started_total Read-lane workers started; a connection reuses its workers, so this grows with concurrency, not requests.\n# TYPE seed_read_workers_started_total counter\nseed_read_workers_started_total %d\n",
		m.readWorkers.Load())

	// Gauges, from the sample taken at the top of the scrape.
	draining := 0
	if st.Draining {
		draining = 1
	}
	for _, g := range []struct {
		name, help string
		value      string
	}{
		{"seed_inflight_requests", "Requests executing right now (admission tokens held).", strconv.Itoa(st.InFlight)},
		{"seed_queued_requests", "Requests waiting in the bounded admission queue.", strconv.Itoa(st.Queued)},
		{"seed_connections_open", "Open client connections.", strconv.Itoa(st.Connections)},
		{"seed_locks_held", "Check-out write locks currently held.", strconv.Itoa(st.Locks)},
		{"seed_open_txs", "Check-in transactions staged right now.", strconv.Itoa(st.OpenTxs)},
		{"seed_draining", "Whether the server is draining for shutdown.", strconv.Itoa(draining)},
		{"seed_db_objects", "Objects in the database.", strconv.Itoa(st.Objects)},
		{"seed_db_relationships", "Relationships in the database.", strconv.Itoa(st.Relationships)},
		{"seed_db_generation", "Mutation generation of the database.", strconv.FormatUint(st.Generation, 10)},
		{"seed_wal_segments", "Live write-ahead-log segment files.", strconv.Itoa(st.WALSegments)},
		{"seed_wal_bytes", "Write-ahead-log size in bytes.", strconv.FormatInt(st.WALBytes, 10)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", g.name, g.help, g.name, g.name, g.value)
	}
}

// MetricsHandler returns the side HTTP handler seedserver mounts on
// -metrics-addr: /metrics (Prometheus text format), /healthz (the process
// is alive and serving its listener), and /readyz (flips to 503 when the
// server starts draining, so a load balancer stops routing to it before
// the listener actually goes away).
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}
