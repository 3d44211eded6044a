package perf

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func baseResult() *Result {
	r := &Result{SchemaVersion: SchemaVersion, Budget: "small"}
	r.add(Metric{Name: "check/allocs_per_trace", Value: 100, Unit: "allocs/op",
		Better: LowerIsBetter, Tolerance: TolAllocs})
	r.add(Metric{Name: "engine/traces_per_sec", Value: 1000, Unit: "traces/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	r.add(Metric{Name: "encode/allocs_per_trace", Value: 0, Unit: "allocs/op",
		Better: LowerIsBetter, Tolerance: TolAllocs})
	return r
}

func clone(r *Result) *Result {
	c := &Result{SchemaVersion: r.SchemaVersion, Budget: r.Budget}
	c.Metrics = append([]Metric(nil), r.Metrics...)
	return c
}

func setValue(r *Result, name string, v float64) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i].Value = v
			return
		}
	}
	panic("no metric " + name)
}

// TestCompareFlagsInjectedRegression is the gate's core contract: a
// lower-is-better metric that grows beyond tolerance, or a
// higher-is-better metric that shrinks beyond it, must be reported as a
// regression — and in-tolerance noise must not.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	base := baseResult()

	cur := clone(base)
	setValue(cur, "check/allocs_per_trace", 200) // +100%, tol 30%
	deltas, err := Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if got := Regressions(deltas); got != 1 {
		t.Fatalf("injected alloc regression: %d regressions, want 1\n%v", got, deltas)
	}

	cur = clone(base)
	setValue(cur, "engine/traces_per_sec", 500) // -50%, tol 35%
	deltas, err = Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if got := Regressions(deltas); got != 1 {
		t.Fatalf("injected throughput regression: %d regressions, want 1\n%v", got, deltas)
	}

	cur = clone(base)
	setValue(cur, "check/allocs_per_trace", 105) // +5%: inside every tolerance
	setValue(cur, "engine/traces_per_sec", 900)  // -10%
	setValue(cur, "encode/allocs_per_trace", 2)  // zero baseline, small absolute drift
	deltas, err = Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if got := Regressions(deltas); got != 0 {
		t.Fatalf("in-tolerance noise flagged: %d regressions\n%v", got, deltas)
	}
}

// TestCompareToleranceFloor: the flag is a floor over per-metric
// tolerance, never a cap.
func TestCompareToleranceFloor(t *testing.T) {
	base := baseResult()
	cur := clone(base)
	setValue(cur, "check/allocs_per_trace", 130) // +30%: over TolAllocs, under flag 50%
	deltas, err := Compare(base, cur, 0.50)
	if err != nil {
		t.Fatal(err)
	}
	if got := Regressions(deltas); got != 0 {
		t.Fatalf("flag floor not applied: %d regressions\n%v", got, deltas)
	}
}

// TestCompareMissingMetric: a baseline metric that vanishes from the new
// run gates, so renames force a conscious baseline refresh.
func TestCompareMissingMetric(t *testing.T) {
	base := baseResult()
	cur := clone(base)
	cur.Metrics = cur.Metrics[:len(cur.Metrics)-1]
	missing := base.Metrics[len(base.Metrics)-1].Name
	deltas, err := Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range deltas {
		if d.Name == missing && d.MissingNew && d.Regressed {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing metric %q not flagged\n%v", missing, deltas)
	}
}

// TestCompareRejectsMismatches: schema and budget mismatches are errors,
// not silent comparisons.
func TestCompareRejectsMismatches(t *testing.T) {
	base := baseResult()
	cur := clone(base)
	cur.SchemaVersion = SchemaVersion + 1
	if _, err := Compare(base, cur, 0.3); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
	cur = clone(base)
	cur.Budget = "large"
	if _, err := Compare(base, cur, 0.3); err == nil {
		t.Fatal("budget mismatch not rejected")
	}
}

// TestMergeKeepsBest: count>1 passes keep the min of costs and the max
// of throughputs.
func TestMergeKeepsBest(t *testing.T) {
	r := baseResult()
	pass2 := clone(r)
	setValue(pass2, "check/allocs_per_trace", 90)
	setValue(pass2, "engine/traces_per_sec", 1200)
	r.merge(*pass2)
	if m, _ := r.Get("check/allocs_per_trace"); m.Value != 90 {
		t.Errorf("cost metric: kept %v, want min 90", m.Value)
	}
	if m, _ := r.Get("engine/traces_per_sec"); m.Value != 1200 {
		t.Errorf("throughput metric: kept %v, want max 1200", m.Value)
	}
}

// TestMeasureCountsAllocs sanity-checks the fixed-iteration measurer
// against a function with a known allocation profile.
func TestMeasureCountsAllocs(t *testing.T) {
	var sink []byte
	s := measure(100, func() { sink = make([]byte, 4096) })
	_ = sink
	if s.AllocsPerOp < 0.9 || s.AllocsPerOp > 8 {
		t.Errorf("AllocsPerOp = %v, want ~1", s.AllocsPerOp)
	}
	if s.BytesPerOp < 4096 {
		t.Errorf("BytesPerOp = %v, want >= 4096", s.BytesPerOp)
	}
	if s.NsPerOp <= 0 {
		t.Errorf("NsPerOp = %v, want > 0", s.NsPerOp)
	}
}

// TestNearestRank pins the search-fanout percentiles: ranks round up,
// so with 101 queries p50 is the 51st and p99 the 100th, not the slowest.
func TestNearestRank(t *testing.T) {
	one := []time.Duration{7}
	if got := nearestRank(one, 50); got != 7 {
		t.Errorf("1 value: p50 = %v, want 7", got)
	}
	if got := nearestRank(one, 99); got != 7 {
		t.Errorf("1 value: p99 = %v, want 7", got)
	}
	var durs []time.Duration
	for i := 1; i <= 101; i++ {
		durs = append(durs, time.Duration(i))
	}
	for _, c := range []struct {
		p    int
		want time.Duration
	}{{1, 2}, {50, 51}, {99, 100}, {100, 101}} {
		if got := nearestRank(durs, c.p); got != c.want {
			t.Errorf("101 values: p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(durs[:100], 99); got != 99 {
		t.Errorf("100 values: p99 = %v, want 99", got)
	}
}

// TestSuiteTinyRoundTrip runs the real suite at the test budget and
// round-trips the result through JSON: every expected metric present,
// self-comparison clean.
func TestSuiteTinyRoundTrip(t *testing.T) {
	b, ok := Budgets("tiny")
	if !ok {
		t.Fatal("tiny budget missing")
	}
	res, err := Run(b, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"micro/ctree/tx64/inserts_per_sec",
		"micro/ctree/tx64/allocs_per_insert",
		"check/traces_per_sec",
		"check/allocs_per_trace",
		"engine/traces_per_sec",
		"engine/check_p50_ns",
		"engine/check_p99_ns",
		"encode/ns_per_trace",
		"encode/allocs_per_trace",
		"decode/ns_per_trace",
		"crashmc/schedules_per_sec",
	} {
		if _, ok := res.Get(want); !ok {
			t.Errorf("suite result missing metric %q", want)
		}
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema_version": 1`) {
		t.Errorf("JSON missing schema_version:\n%s", buf.String())
	}

	deltas, err := Compare(res, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Regressions(deltas); got != 0 {
		t.Errorf("self-comparison regressed: %d\n%v", got, deltas)
	}
}

// TestBudgetsKnown: every published budget resolves and CI's budget is
// among them.
func TestBudgetsKnown(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "large"} {
		if _, ok := Budgets(name); !ok {
			t.Errorf("budget %q missing", name)
		}
	}
	if _, ok := Budgets("nope"); ok {
		t.Error("unknown budget resolved")
	}
}
