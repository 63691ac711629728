package main

import (
	"fmt"
	"os"
)

// selfCheck runs every workload twice on this build and compares each
// end-to-end metric of the second run with the first, in the metric's
// worse direction, against its bound: what the regression gate would say
// about a change that changes nothing. It reports whether every pair
// agreed and no op failed.
func selfCheck(cfg runConfig) bool {
	cfg.trace = false
	ok := true
	for _, w := range workloads {
		cfg.workload = w.name
		var pair [2]*outcome
		for i := range pair {
			o, err := run(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			for _, n := range o.notes {
				fmt.Fprintf(os.Stderr, "bench: %s run %d FAILED: %s\n", w.name, i+1, n)
			}
			ok = ok && o.failed == 0
			pair[i] = o
		}
		for _, m := range endToEnd {
			a, b := pair[0].v[m.name], pair[1].v[m.name]
			worse := (b - a) / a
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.bound {
				verdict, ok = "BREACH", false
			}
			fmt.Printf("%-10s %-12s %12.4f %12.4f %-4s worse by %+6.1f%% (bound %4.1f%%) %s\n",
				w.name, m.name, a, b, m.unit, 100*worse, 100*m.bound, verdict)
		}
	}
	return ok
}
