package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameOpStream(t *testing.T) {
	render := func(seed int64) string {
		g := newWriterGen(seed, writeScale)
		var b strings.Builder
		for i := 0; i < 5000; i++ {
			b.WriteString(g.next().String())
		}
		return b.String()
	}
	a, b := render(7), render(7)
	if a != b {
		t.Fatal("two generations from seed 7 differ")
	}
	if a == render(8) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	// No op may lack a target: activates and deletes name existing ids.
	g := newWriterGen(7, 100)
	for i := 0; i < 5000; i++ {
		if o := g.next(); o.id == 0 {
			t.Fatalf("op %d has no document: %v", i, o)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{288, 0.9, true}, {288, 0.99, false},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	s := make(samples, 101)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, ok := percentile(s, 0.9); v != 91 || !ok {
		t.Errorf("p90 of 1..101 = %d, %v; want 91, true", v, ok)
	}
	if v, ok := percentile(s, 0.99); v != 100 || ok {
		t.Errorf("p99 of 1..101 = %d, %v; want 100, false (1 sample beyond)", v, ok)
	}
}

func TestQuietest(t *testing.T) {
	// 64 blocks of 100 samples at level 1000 with a spread inside each
	// block; a loud stretch covering 40 of the 64 blocks doubles them,
	// and one op in every block stalls.
	s := make(samples, 0, 6400)
	for b := 0; b < latBlocks; b++ {
		for i := 0; i < 100; i++ {
			v := int64(1000 + i)
			if b >= 10 && b < 50 {
				v *= 2
			}
			if i == 50 {
				v = 1_000_000
			}
			s = append(s, v)
		}
	}
	if whole, _ := percentile(s.sorted(), 0.50); whole < 2000 {
		t.Fatalf("whole-run p50 = %d: the loud stretch should own it", whole)
	}
	eighth, third := quietest(s, quietP50), quietest(s, quietP90)
	if len(eighth) != quietP50*100 || len(third) != quietP90*100 {
		t.Fatalf("pools hold %d and %d samples, want %d and %d", len(eighth), len(third), quietP50*100, quietP90*100)
	}
	if got, _ := percentile(eighth, 0.50); got != 1049 {
		t.Errorf("quiet p50 = %d, want 1049 (a quiet block's median)", got)
	}
	if got, _ := percentile(third, 0.90); got != 1090 {
		t.Errorf("quiet p90 = %d, want 1090", got)
	}
	if got := third[len(third)-1]; got != 1_000_000 {
		t.Errorf("quiet max = %d: the stalls of the kept blocks must stay in", got)
	}
	// A slowdown of every block moves it in full.
	for i := range s {
		s[i] += s[i] / 2
	}
	if got, _ := percentile(quietest(s, quietP50), 0.50); got != 1573 {
		t.Errorf("after a 1.5x slowdown quiet p50 = %d, want 1573", got)
	}
	// Fewer samples than blocks: the whole run.
	if got := quietest(samples{5, 1, 3}, quietP50); len(got) != 3 || got[0] != 1 {
		t.Errorf("short run: %v, want all three, ascending", got)
	}
	// The shortest schedule's pools carry their percentiles.
	if n := 320 / latBlocks; !supported(n*quietP50, 0.50) || !supported(n*quietP90, 0.90) {
		t.Errorf("320 samples: pools of %d and %d do not carry p50 and p90", n*quietP50, n*quietP90)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps span 1 by 10
		{ID: 3, Parent: 0, Start: 90, End: 120},   // runs past its parent by 20
		{ID: 4, Parent: 1, Start: 15, End: 20},    // grandchild: not the root's
		{ID: 5, Parent: -1, Start: 200, End: 250}, // no children
	}
	want := []int64{
		100 - (30 + 20 + 10), // children cover [10,60) and [90,100)
		30 - 5,
		30,
		30,
		5,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	st := spanStats([]span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "engine.stmt", Start: 0, End: 900},
		{ID: 2, Parent: 1, Name: "sql.parse", Start: 0, End: 300},
		{ID: 3, Parent: 1, Name: "exec.drain", Start: 300, End: 800},
	}, "round")
	if got := st.share("sql.parse")[0]; got != 0.3 {
		t.Errorf("parse share = %v, want 0.3", got)
	}
	if got := st.selfUS["engine.stmt"][0]; got != 0.1 {
		t.Errorf("stmt self = %v us, want 0.1", got)
	}
	if got := st.cover[0]; got != 0.9 {
		t.Errorf("children cover %v of the round, want 0.9", got)
	}
}

func TestPacingSplit(t *testing.T) {
	const ms = time.Millisecond
	// Idle generator oversleeps: the op is timed from its wake-up and
	// the oversleep is the generator's.
	if from, late := pacing(10*ms, 9*ms, 10*ms+300*time.Microsecond); from != 10*ms+300*time.Microsecond || late != 300*time.Microsecond {
		t.Errorf("idle oversleep: from %v late %v", from, late)
	}
	// Previous commit still in flight at the due time: the op queued, is
	// timed from when it was due, and the generator is not late.
	if from, late := pacing(10*ms, 25*ms, 25*ms); from != 10*ms || late != 0 {
		t.Errorf("queued: from %v late %v", from, late)
	}
	// Previous commit ended exactly at the due time: nothing in flight.
	if from, late := pacing(10*ms, 10*ms, 10*ms); from != 10*ms || late != 0 {
		t.Errorf("on time: from %v late %v", from, late)
	}
}

// TestCountsRepeat runs each single-client workload twice on the quick
// schedule: the counts a later change may rest a claim on must be exact.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six quick workloads")
	}
	for _, c := range []struct {
		workload string
		counts   []string
	}{
		{"vdm_read", []string{"core.joins_in", "core.joins_out", "exec.rows_out", "exec.vec_batches"}},
		{"vdm_plan", []string{"core.joins_in", "core.joins_out", "exec.rows_out", "exec.vec_batches"}},
		{"oltp_write", []string{"wal.bytes_per_commit"}},
	} {
		cfg := runConfig{workload: c.workload, seed: 5, seconds: 20, trace: true, quick: true}
		var runs [2]*outcome
		for i := range runs {
			o, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed > 0 || o.attempted == 0 {
				t.Fatalf("%s: %d of %d ops failed: %v", c.workload, o.failed, o.attempted, o.notes)
			}
			runs[i] = o
		}
		for _, name := range c.counts {
			a, b := runs[0].v[name], runs[1].v[name]
			if a == 0 || a != b {
				t.Errorf("%s %s: %v then %v, want equal and nonzero", c.workload, name, a, b)
			}
		}
	}
}

// TestMixOracles runs htap_mix on the quick schedule: conservation, page
// order, snapshot monotonicity and recovery must all hold.
func TestMixOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick workload")
	}
	o, err := run(runConfig{workload: "htap_mix", seed: 5, seconds: 20, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.failed > 0 || o.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", o.failed, o.attempted, o.notes)
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the metric tables in
// step: same names, units, directions and bounds, in the same order.
func TestManifestMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, code %q", i, m.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind string
		got  []entry
		want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: manifest has %d metrics, code has %d", c.kind, len(c.got), len(c.want))
		}
		for i, w := range c.want {
			if g := c.got[i]; g != (entry{w.name, w.unit, w.better, w.bound}) {
				t.Errorf("%s[%d]: manifest %+v, code %+v", c.kind, i, g, w)
			}
		}
	}
}
