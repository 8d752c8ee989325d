package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// -agree: the same code, measured twice. A metric whose two sets differ by
// more than its own bound cannot tell a regression of that size from noise;
// it has to be steadied or demoted before the benchmark is trusted with it.

// runAgree runs every workload's timed run twice back to back and compares
// each end-to-end metric of the two sets with the metric's bound.
func runAgree(seed int64, window time.Duration, tmp string) int {
	env := currentEnvironment(seed)
	var sets [2][]*timedResult
	for s := range sets {
		for i := range workloads {
			w := &workloads[i]
			printHeader(w, env, fmt.Sprintf("timed, set %d of 2", s+1))
			res, err := runTimed(w, w.objects, seed, window, setupRounds, tmp)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			res.print()
			if !res.Correct {
				return 1
			}
			sets[s] = append(sets[s], res)
		}
	}
	fmt.Printf("== agreement of two sets of runs of the same code\n")
	fmt.Printf("  %-26s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	code := 0
	for i := range workloads {
		a, b := sets[0][i].metrics(), sets[1][i].metrics()
		for _, def := range endToEnd {
			diff := math.Abs(b[def.name]-a[def.name]) / a[def.name]
			verdict := ""
			if diff > def.bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("  %-26s %-22s %14.3f %14.3f %8.2f%% %6.0f%%%s\n",
				workloads[i].name, def.name, a[def.name], b[def.name], 100*diff, 100*def.bound, verdict)
		}
	}
	return code
}
