// Command vdmbench regenerates the paper's tables and figures: the
// Table 1–4 optimization status matrices, the Figure 3/4 plan censuses,
// the Figure 14 paging-query measurement, and the §7 SQL-extension
// demonstrations.
//
// Usage:
//
//	vdmbench [-exp all|t1|t2|t3|t4|f3|f4|f14|f14csv|ablate|s71|s72|s73] [-views N] [-reps N] [-big]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vdm/internal/engine"
	"vdm/internal/experiments"
	"vdm/internal/s4"
	"vdm/internal/tpch"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: all, t1, t2, t3, t4, f3, f4, f14, f14csv, ablate, s71, s72, s73")
	views := flag.Int("views", 100, "number of Figure 14 views to measure")
	reps := flag.Int("reps", 3, "timing repetitions per query")
	big := flag.Bool("big", false, "use benchmark-sized data volumes")
	timeout := flag.Duration("timeout", 0, "statement timeout per benchmark query (0 = none)")
	memlimit := flag.Int64("memlimit", 0, "per-query memory budget in bytes (0 = unlimited)")
	flag.Parse()
	gov := govOpts{timeout: *timeout, memlimit: *memlimit}
	if err := run(*exp, *views, *reps, *big, gov); err != nil {
		fmt.Fprintln(os.Stderr, "vdmbench:", err)
		os.Exit(1)
	}
}

// govOpts carries the optional governance bounds onto each engine the
// benchmark builds, so runaway experiment queries fail with typed
// errors instead of hanging or exhausting memory.
type govOpts struct {
	timeout  time.Duration
	memlimit int64
}

func (g govOpts) apply(e *engine.Engine) {
	if g.timeout <= 0 && g.memlimit <= 0 {
		return
	}
	opts := e.Options()
	opts.StatementTimeout = g.timeout
	opts.MemoryBudget = g.memlimit
	e.SetOptions(opts)
}

func run(exp string, views, reps int, big bool, gov govOpts) error {
	tpchScale := tpch.TinyScale()
	s4Size := s4.TinySize()
	f14Size := s4.Fig14Tiny()
	f14Size.Views = views
	if big {
		tpchScale = tpch.BenchScale()
		s4Size = s4.BenchSize()
		f14Size = s4.Fig14Full()
		f14Size.Views = views
	}

	needTPCH := map[string]bool{"all": true, "t1": true, "t2": true, "t3": true, "t4": true,
		"s71": true, "s72": true, "s73": true}
	needS4 := map[string]bool{"all": true, "f3": true, "f4": true, "f14": true, "f14csv": true, "ablate": true}
	if !needTPCH[exp] && !needS4[exp] {
		return fmt.Errorf("unknown experiment %q", exp)
	}

	var te *engine.Engine
	var err error
	if needTPCH[exp] {
		fmt.Fprintf(os.Stderr, "loading TPC-H data (%d orders)...\n", tpchScale.Orders)
		te, err = experiments.NewTPCHEngine(tpchScale)
		if err != nil {
			return err
		}
		gov.apply(te)
	}
	var se *engine.Engine
	if needS4[exp] {
		fmt.Fprintf(os.Stderr, "loading S/4HANA-like data (%d journal lines, %d views)...\n",
			s4Size.ACDOCARows, f14Size.Views)
		se, err = experiments.NewS4Engine(s4Size, f14Size)
		if err != nil {
			return err
		}
		gov.apply(se)
	}

	show := func(name string, fn func() (string, error)) error {
		if exp != "all" && exp != name {
			return nil
		}
		out, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		fmt.Println(out)
		return nil
	}
	matrix := func(fn func(*engine.Engine) (experiments.Matrix, error)) func() (string, error) {
		return func() (string, error) {
			m, err := fn(te)
			if err != nil {
				return "", err
			}
			return m.Format(), nil
		}
	}
	steps := []struct {
		name string
		fn   func() (string, error)
	}{
		{"t1", matrix(experiments.Table1)},
		{"t2", matrix(experiments.Table2)},
		{"t3", matrix(experiments.Table3)},
		{"t4", matrix(experiments.Table4)},
		{"f3", func() (string, error) { return experiments.Figure3Report(se) }},
		{"f4", func() (string, error) { return experiments.Figure4Report(se) }},
		{"f14", func() (string, error) { return experiments.Figure14Report(se, f14Size.Views, reps) }},
		{"f14csv", func() (string, error) { return experiments.Figure14CSV(se, f14Size.Views, reps) }},
		{"ablate", func() (string, error) { return experiments.AblationReport(se, reps) }},
		{"s71", func() (string, error) { return experiments.PrecisionLossReport(te) }},
		{"s72", func() (string, error) { return experiments.MacroReport(te) }},
		{"s73", func() (string, error) { return experiments.CardSpecReport(te) }},
	}
	for _, s := range steps {
		if (s.name == "f14csv" || s.name == "ablate") && exp != s.name {
			continue
		}
		if err := show(s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}
