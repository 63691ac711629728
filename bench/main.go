// Command bench is the repository's one benchmark: four count-bounded
// HTAP/VDM workloads, each reporting round- or commit-level latency, and
// a traced phase that splits the same work by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "vdm_read, vdm_plan, oltp_write or htap_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the fixture data and the op stream")
	flag.IntVar(&cfg.seconds, "seconds", 20, "sizes the op schedule: about this long at the seed commit")
	trace := flag.Int("trace", 0, "1 adds the traced phase and puts the per-layer metrics in the JSON line")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced phase's spans to this file as JSONL (implies -trace 1)")
	flag.BoolVar(&cfg.quick, "quick", false, "1/20-size schedule (tests)")
	aa := flag.Bool("aa", false, "run every workload twice and compare the pairs against the bounds")
	flag.Parse()
	cfg.trace = *trace != 0 || cfg.traceOut != ""

	if *aa {
		if !selfCheck(cfg) {
			os.Exit(1)
		}
		return
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	report(os.Stdout, cfg, o)
	if o.failed > 0 {
		for _, n := range o.notes {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", n)
		}
		os.Exit(1)
	}
}

// run executes one workload.
func run(cfg runConfig) (*outcome, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			if n := w.ops(cfg); !cfg.quick && !supported(n/latBlocks*quietP90, 0.90) {
				return nil, fmt.Errorf("-seconds %d gives %s %d ops, too few for their quietest third to carry a p90", cfg.seconds, w.name, n)
			}
			o := &outcome{v: values{}}
			if err := w.run(cfg, w, o); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if cfg.trace {
				o.v["loadgen.box_walk_ms"] = boxWalkMS()
			}
			return o, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// report prints every metric as "name value unit", then the one-line
// JSON result: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func report(w io.Writer, cfg runConfig, o *outcome) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]jsonMetric{}}

	fmt.Fprintf(w, "ops_attempted %d count\nops_failed %d count\n", o.attempted, o.failed)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%s %v %s\n", m.name, o.v[m.name], m.unit)
		if !cfg.trace {
			out.Metrics[m.name] = jsonMetric{o.v[m.name], m.unit}
		}
	}
	if cfg.trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%s %v %s\n", m.name, o.v[m.name], m.unit)
			out.Metrics[m.name] = jsonMetric{o.v[m.name], m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}
