package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"pmtest"
	"pmtest/internal/dist"
)

// tinyWorkloads are the real workloads cut to a few hundred app ops and
// two pairs.
func tinyWorkloads() []workload {
	sizes := map[string]int{
		"micro_ctree":    600,
		"kv_ycsb":        3000,
		"stream_striped": streamSectionRounds,
		"remote_ctree":   600,
	}
	var out []workload
	for _, w := range workloads {
		w.size, w.rounds = sizes[w.name], 2
		out = append(out, w)
	}
	return out
}

// TestRoundCounts checks that every workload's pair order alternates.
func TestRoundCounts(t *testing.T) {
	for _, w := range workloads {
		if w.rounds < 2 || w.rounds%2 != 0 || w.natives < 0 {
			t.Errorf("%s: %d rounds of %d natives, want an even number of at least 2", w.name, w.rounds, w.natives)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json declares exactly
// the workloads and metrics this program emits, with valid names.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: file %d+%d, code %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: file %+v, code %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: file %+v, code %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or duplicate name or unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}

// TestEveryMetricEmitted runs every workload at a tiny size, untraced and
// traced, and checks that each declared metric is emitted and finite, and
// that every oracle passes.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			res, _, err := runWorkload(w, options{seed: 7, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, d.Name, v.Value)
				case !traced && v.Value == 0:
					t.Errorf("%s: end-to-end %s is 0", w.name, d.Name)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
		}
	}
}

// TestOracleCountsDamagedReports checks that a report with one diagnostic
// removed, and a missing report, each count as one failed section.
func TestOracleCountsDamagedReports(t *testing.T) {
	w := tinyWorkloads()[0]
	f, err := setup(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	sess := pmtest.Init(w.config)
	th := sess.ThreadInit()
	rd, err := f.prog.start(th, th.SendTrace)
	if err != nil {
		t.Fatal(err)
	}
	th.Start()
	for i := 0; i < f.prog.appOps; i++ {
		if err := rd.step(i); err != nil {
			t.Fatal(err)
		}
	}
	reports := sess.Exit()
	if n := f.checkReports(reports, false); n != 0 {
		t.Fatalf("intact reports: %d failed", n)
	}
	victim := -1
	for i, r := range reports {
		if r.Fails() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no FAIL section: the fault hook injected nothing")
	}
	damaged := append([]pmtest.Report(nil), reports...)
	damaged[victim].Diags = damaged[victim].Diags[1:]
	if n := f.checkReports(damaged, false); n != 1 {
		t.Errorf("one diagnostic removed: %d failed, want 1", n)
	}
	if n := f.checkReports(reports[:len(reports)-1], false); n != 1 {
		t.Errorf("one report missing: %d failed, want 1", n)
	}
}

// TestSpanChain checks that traced spans nest whisper.op → pmtest.send →
// core.queue → core.check on the local engine, and that remote sections
// get a dist.node span inside their send's lifetime.
func TestSpanChain(t *testing.T) {
	for _, w := range tinyWorkloads() {
		if w.name != "micro_ctree" && w.name != "remote_ctree" {
			continue
		}
		f, err := setup(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.runRound(traced)
		f.close()
		if err != nil {
			t.Fatal(err)
		}
		tr := r.tr
		if len(tr.sends) != f.sections {
			t.Fatalf("%s: %d send spans, want %d", w.name, len(tr.sends), f.sections)
		}
		var start int64
		for i, end := range tr.opEnd {
			k := tr.opSection[i]
			if k < 0 {
				t.Fatalf("%s: op %d shipped no section", w.name, i)
			}
			s := tr.sends[k]
			if s[0] < start || s[1] > end {
				t.Errorf("%s: send %d %v outside op %d [%d %d]", w.name, k, s, i, start, end)
			}
			if !w.remote && !(s[0] <= tr.sub[k] && tr.sub[k] <= s[1] && tr.sub[k] <= tr.deq[k] && tr.deq[k] <= tr.chk[k]) {
				t.Errorf("%s: section %d: send %v, sub %d deq %d chk %d", w.name, k, s, tr.sub[k], tr.deq[k], tr.chk[k])
			}
			start = end
		}
		if w.remote {
			if len(tr.node) != f.sections {
				t.Fatalf("%s: %d node spans, want %d", w.name, len(tr.node), f.sections)
			}
			for k, ns := range tr.node {
				if ns.seq != k {
					t.Fatalf("%s: node span %d carries seq %d", w.name, k, ns.seq)
				}
				if ns.start < tr.sends[k][0] || ns.end <= ns.start {
					t.Errorf("%s: node span of section %d [%d %d] starts before its send %v", w.name, k, ns.start, ns.end, tr.sends[k])
				}
			}
			if g := tr.analyze(false).nodeGrowth; g <= 0 || math.IsNaN(g) || math.IsInf(g, 0) {
				t.Errorf("%s: node growth %v", w.name, g)
			}
		}
		names := map[string]bool{}
		for _, e := range tr.chrome(w.name, !w.remote) {
			names[e.Name] = true
		}
		want := []string{"whisper.op", "pmtest.send", "core.queue", "core.check", "pmtest.getresult"}
		if w.remote {
			want = []string{"whisper.op", "pmtest.send", "dist.node", "pmtest.getresult"}
		}
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: no %s span exported", w.name, n)
			}
		}
	}
}

// TestNodeSpanSeqs checks that the node wrapper refuses a round whose
// section requests carry no seq header, or whose seqs leave a gap.
func TestNodeSpanSeqs(t *testing.T) {
	n := &nodeServer{node: dist.NewNode(dist.NodeConfig{})}
	defer n.node.Close()
	send := func(seq string) {
		r := httptest.NewRequest(http.MethodPost, dist.PathSection+"?session=s", nil)
		if seq != "" {
			r.Header.Set(seqHeader, seq)
		}
		n.ServeHTTP(httptest.NewRecorder(), r)
	}
	n.reset(time.Now())
	send("")
	if _, err := n.take(1); err == nil {
		t.Error("a section without a seq header was accepted")
	}
	n.reset(time.Now())
	send("0")
	send("2")
	if _, err := n.take(3); err == nil {
		t.Error("seqs 0 and 2 of 3 were accepted")
	}
	n.reset(time.Now())
	send("1")
	send("0")
	send("1")
	spans, err := n.take(2)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range spans {
		if s.seq != k {
			t.Errorf("span %d carries seq %d", k, s.seq)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "app_ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 100, 101, 99, 100, 100, 101, 99, 100, 100}, "within bound"},
		{[]float64{80, 81, 79, 80, 80, 81, 79, 80, 80, 80}, "REGRESSION"},
		{[]float64{105, 106, 104, 105, 105, 106, 104, 105, 105, 105}, "gain"},
		{[]float64{50, 150, 60, 140, 100, 70, 130, 100, 80, 120}, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(d, base, c.b); got != c.want {
			t.Errorf("judge(%v) = %q, want %q", c.b, got, c.want)
		}
	}
}
