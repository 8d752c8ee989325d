// Command benchmark is seedmark, the repository's one end-to-end benchmark:
// four SPADES-shaped workloads driven over loopback TCP against an
// in-process seed server, end-to-end metrics from a timed run and a
// per-layer budget from a traced run. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's result line (default: all, timed then traced)")
		seedFlag     = flag.Int64("seed", 1, "op-stream seed")
		seconds      = flag.Float64("seconds", 20, "measured window of a timed run, and the most a traced pass may take, in seconds")
		trace        = flag.Int("trace", 0, "with -workload: 0 runs the timed run, 1 the traced run")
		agree        = flag.Bool("agree", false, "run the timed set twice and compare every end-to-end metric with its bound")
		out          = flag.String("out", "out", "directory for traces, results and scratch databases")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	code := 0
	switch {
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			os.RemoveAll(tmp)
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		code = runOne(w, *seedFlag, window, *trace != 0, *out, tmp)
	case *agree:
		code = runAgree(*seedFlag, window, tmp)
	default:
		code = runAll(*seedFlag, window, *out, tmp)
	}
	os.RemoveAll(tmp)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
