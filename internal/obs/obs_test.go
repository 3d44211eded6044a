package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("fresh counter = %d, want 0", c.Load())
	}
	c.Add(3)
	c.Add(4)
	if c.Load() != 7 {
		t.Fatalf("counter = %d, want 7", c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.Mean != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations of 1µs, 10 of 1ms: p50 must land near 1µs, p99
	// in the 1ms bucket.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	if s.P50 < 512*time.Nanosecond || s.P50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs", s.P50)
	}
	if s.P99 < 512*time.Microsecond || s.P99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ~1ms", s.P99)
	}
	wantMean := (100*time.Microsecond + 10*time.Millisecond) / 110
	if s.Mean != wantMean {
		t.Errorf("mean = %v, want %v", s.Mean, wantMean)
	}
	// Cumulative buckets must end at the total count with an unbounded
	// final bucket.
	if n := len(s.Buckets); n == 0 || s.Buckets[n-1].Le != 0 || s.Buckets[n-1].Count != 110 {
		t.Errorf("final bucket = %+v, want +Inf cumulative 110", s.Buckets)
	}
}

func TestHistogramNegativeAndHuge(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)     // clamped to 0
	h.Observe(30 * time.Second) // beyond the last bound → overflow bucket
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	s := h.Snapshot()
	if s.Buckets[len(s.Buckets)-1].Count != 2 {
		t.Fatalf("overflow bucket missing: %+v", s.Buckets)
	}
}

// TestHistogramOverflowQuantiles pins the open-bucket interpolation:
// the last bucket has no upper bound and quantile() assumes one more
// doubling, so observations far beyond the final bound (256<<24 ns ≈
// 4.29s) yield quantiles clamped into [lastBound, 2*lastBound] — large
// but finite, never the raw 30s outlier.
func TestHistogramOverflowQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 4; i++ {
		h.Observe(30 * time.Second) // all land in the overflow bucket
	}
	s := h.Snapshot()
	lo := histBound(histBuckets - 2) // inclusive lower bound of the open bucket
	hi := 2 * lo
	for _, q := range []struct {
		name string
		v    time.Duration
	}{{"p50", s.P50}, {"p90", s.P90}, {"p99", s.P99}} {
		if q.v < lo || q.v > hi {
			t.Errorf("%s = %v, want within open-bucket range [%v, %v]", q.name, q.v, lo, hi)
		}
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not monotonic: p50=%v p90=%v p99=%v", s.P50, s.P90, s.P99)
	}
	// The mean uses the exact sum, so unlike the quantiles it reports
	// the true 30s.
	if s.Mean != 30*time.Second {
		t.Errorf("mean = %v, want 30s", s.Mean)
	}
	// Mixed case: half tiny, half overflow — p50 stays in the first
	// bucket, p99 moves to the open one.
	var m Histogram
	for i := 0; i < 50; i++ {
		m.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 50; i++ {
		m.Observe(time.Minute)
	}
	ms := m.Snapshot()
	// rank 50 exhausts exactly the first bucket, so interpolation lands
	// on its upper edge.
	if ms.P50 > histBound(0) {
		t.Errorf("mixed p50 = %v, want within first bucket (<= %v)", ms.P50, histBound(0))
	}
	if ms.P99 < lo || ms.P99 > hi {
		t.Errorf("mixed p99 = %v, want in open bucket [%v, %v]", ms.P99, lo, hi)
	}
}

func TestRing(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh ring snapshot = %v, want empty", got)
	}
	r.Add(1)
	r.Add(2)
	if got := r.Snapshot(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("snapshot = %v, want [2 1]", got)
	}
	r.Add(3)
	r.Add(4) // evicts 1
	got := r.Snapshot()
	if len(got) != 3 || got[0] != 4 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("snapshot = %v, want [4 3 2]", got)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
}

func TestRingZeroCapacity(t *testing.T) {
	r := NewRing[int](0) // clamped to 1
	r.Add(7)
	r.Add(8)
	if got := r.Snapshot(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("snapshot = %v, want [8]", got)
	}
}

func TestRingDo(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 5; i++ { // ring holds [5 4 3]
		r.Add(i)
	}
	var seen []int
	r.Do(func(v int) bool {
		seen = append(seen, v)
		return true
	})
	if len(seen) != 3 || seen[0] != 5 || seen[1] != 4 || seen[2] != 3 {
		t.Fatalf("Do order = %v, want [5 4 3]", seen)
	}
	// Early stop: fn returning false halts the walk.
	seen = seen[:0]
	r.Do(func(v int) bool {
		seen = append(seen, v)
		return false
	})
	if len(seen) != 1 || seen[0] != 5 {
		t.Fatalf("Do with early stop = %v, want [5]", seen)
	}
	// Allocation-free filtering is the point of Do over Snapshot.
	if allocs := testing.AllocsPerRun(100, func() {
		r.Do(func(int) bool { return true })
	}); allocs != 0 {
		t.Fatalf("Do allocates %v per run, want 0", allocs)
	}
}

func TestMetricsObserver(t *testing.T) {
	m := NewMetrics(4)
	m.TraceSubmitted(0, 0, 10)
	m.TraceSubmitted(1, 1, 20)
	m.TraceDequeued(0, 0, time.Microsecond)
	m.TraceDequeued(1, 1, 2*time.Microsecond)
	m.TraceChecked(TraceEvent{
		TraceID: 0, Worker: 0, Ops: 10, TrackedOps: 8,
		Fails: 1, Warns: 2, Infos: 1,
		Codes:     map[string]int{"not-persisted": 1, "duplicate-writeback": 2},
		QueueWait: time.Microsecond, CheckDur: 5 * time.Microsecond,
	})
	m.TraceChecked(TraceEvent{TraceID: 1, Worker: 1, Ops: 20, TrackedOps: 20,
		CheckDur: 10 * time.Microsecond})
	m.SubmitStalled(0, time.Millisecond)

	s := m.Snapshot()
	if s.TracesSubmitted != 2 || s.TracesDequeued != 2 || s.TracesChecked != 2 {
		t.Fatalf("lifecycle counters wrong: %+v", s)
	}
	if s.OpsSubmitted != 30 || s.OpsChecked != 30 {
		t.Fatalf("op counters = %d/%d, want 30/30", s.OpsSubmitted, s.OpsChecked)
	}
	if s.DiagsBySeverity["FAIL"] != 1 || s.DiagsBySeverity["WARN"] != 2 || s.DiagsBySeverity["INFO"] != 1 {
		t.Fatalf("severity tallies wrong: %v", s.DiagsBySeverity)
	}
	if s.DiagsByCode["not-persisted"] != 1 || s.DiagsByCode["duplicate-writeback"] != 2 {
		t.Fatalf("code tallies wrong: %v", s.DiagsByCode)
	}
	if len(s.PerWorkerChecked) != 2 || s.PerWorkerChecked[0] != 1 || s.PerWorkerChecked[1] != 1 {
		t.Fatalf("per-worker counts wrong: %v", s.PerWorkerChecked)
	}
	if s.BackpressureStalls != 1 || s.BackpressureStall != time.Millisecond {
		t.Fatalf("stall accounting wrong: %d %v", s.BackpressureStalls, s.BackpressureStall)
	}
	if len(s.RecentTraces) != 2 || s.RecentTraces[0].TraceID != 1 {
		t.Fatalf("recent ring wrong: %+v", s.RecentTraces)
	}
	if s.QueueWait.Count != 2 || s.CheckDur.Count != 2 {
		t.Fatalf("histogram counts wrong: %d %d", s.QueueWait.Count, s.CheckDur.Count)
	}
	if s.OpsPerSec <= 0 {
		t.Fatalf("ops/s = %v, want > 0", s.OpsPerSec)
	}
}

func TestMetricsQueueDepthFn(t *testing.T) {
	m := NewMetrics(1)
	m.SetQueueDepthFn(func() []int { return []int{3, 0} })
	s := m.Snapshot()
	if len(s.QueueDepths) != 2 || s.QueueDepths[0] != 3 {
		t.Fatalf("queue depths = %v, want [3 0]", s.QueueDepths)
	}
	// Nil receiver must be a no-op, both for the setter and Snapshot.
	var nilM *Metrics
	nilM.SetQueueDepthFn(func() []int { return nil })
	if s := nilM.Snapshot(); s.TracesChecked != 0 {
		t.Fatalf("nil Metrics snapshot not zero: %+v", s)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no live observers must be nil")
	}
	a, b := NewMetrics(1), NewMetrics(1)
	if Multi(a, nil) != Observer(a) {
		t.Fatal("Multi of one observer must return it unwrapped")
	}
	fan := Multi(a, b)
	fan.TraceSubmitted(0, 0, 5)
	fan.TraceDequeued(0, 0, time.Microsecond)
	fan.TraceChecked(TraceEvent{Ops: 5})
	fan.(StallObserver).SubmitStalled(0, time.Microsecond)
	for _, m := range []*Metrics{a, b} {
		if m.TracesSubmitted.Load() != 1 || m.TracesChecked.Load() != 1 ||
			m.BackpressureStalls.Load() != 1 {
			t.Fatalf("fan-out missed an observer: %+v", m.Snapshot())
		}
	}
}

// TestMultiSkipsNilMetrics: a nil *Metrics is a non-nil Observer
// interface value; Multi skips it like a nil entry, so callers can pass
// an optional registry straight in.
func TestMultiSkipsNilMetrics(t *testing.T) {
	var nilM *Metrics
	if Multi(nilM) != nil {
		t.Fatal("Multi of a nil *Metrics must be nil")
	}
	a := NewMetrics(1)
	if Multi(nilM, a) != Observer(a) {
		t.Fatal("Multi of a nil *Metrics and one observer must return that observer")
	}
}

func TestSnapshotFormat(t *testing.T) {
	m := NewMetrics(4)
	m.TraceSubmitted(0, 0, 10)
	m.TraceChecked(TraceEvent{Ops: 10, Fails: 1, Codes: map[string]int{"not-persisted": 1},
		CheckDur: time.Microsecond})
	m.SectionsShipped.Add(1)
	m.OpsRecorded.Add(10)
	m.BytesEncoded.Add(123)
	m.SubmitStalled(0, time.Millisecond)
	m.SharingTracesFed.Add(2)
	m.CampaignSchedules.Add(3)
	m.FaultsInjected.Add(3)
	m.CrashStatesExplored.Add(40)
	m.CrashStatesPossible.Add(64)
	m.RecoveryFailures.Add(2)
	m.CampaignDeadlineHits.Add(1)
	out := m.Snapshot().Format()
	for _, want := range []string{
		"observability snapshot", "checked 1", "ops/s", "p50", "p99",
		"FAIL 1", "not-persisted", "encoded 123B", "backpressure", "sharing",
		"campaign 3 schedules", "explored 40 of 64 possible",
		"2 recovery failures", "1 deadline expiries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	// The empty snapshot must render without panicking.
	if out := (Snapshot{}).Format(); !strings.Contains(out, "diags    none") {
		t.Errorf("empty Format() = %q", out)
	}
}
