// Package repro is a from-scratch Go reproduction of SEED, the database
// system for software engineering applications based on the
// entity-relationship approach (Glinz & Ludewig, ICDE 1986).
//
// The public API lives in the seed package; DESIGN.md maps every subsystem
// and experiment, EXPERIMENTS.md records the reproduced evaluation
// artifacts, and bench_test.go regenerates one benchmark group per paper
// figure.
//
// The end-to-end benchmark is seedmark, its own module under benchmark/:
// `bash benchmark/run.sh` drives four SPADES-shaped workloads over loopback
// through the real server and client, reports the end-to-end metrics and
// bounds declared in BENCHMARK.json, and traces a per-layer time budget
// that sums to the round trip (DESIGN.md section 5, benchmark/README.md).
package repro
