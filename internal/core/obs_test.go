package core

import (
	"sync"
	"testing"
	"time"

	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

func obsTxOps(writes int) []trace.Op {
	ops := []trace.Op{{Kind: trace.KindTxCheckerStart}, {Kind: trace.KindTxBegin}}
	for i := 0; i < writes; i++ {
		addr := uint64(0x1000 + i*64)
		ops = append(ops,
			trace.Op{Kind: trace.KindTxAdd, Addr: addr, Size: 64},
			trace.Op{Kind: trace.KindWrite, Addr: addr, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: addr, Size: 64})
	}
	return append(ops, trace.Op{Kind: trace.KindFence},
		trace.Op{Kind: trace.KindTxEnd}, trace.Op{Kind: trace.KindTxCheckerEnd})
}

func TestEngineObserverLifecycle(t *testing.T) {
	m := obs.NewMetrics(16)
	e := NewEngine(Options{Workers: 2, Observer: m})
	const traces = 10
	ops := obsTxOps(8)
	for i := 0; i < traces; i++ {
		e.Submit(&trace.Trace{Thread: i % 3, Ops: ops})
	}
	e.Close()

	s := m.Snapshot()
	if s.TracesSubmitted != traces || s.TracesDequeued != traces || s.TracesChecked != traces {
		t.Fatalf("lifecycle counts = %d/%d/%d, want %d each",
			s.TracesSubmitted, s.TracesDequeued, s.TracesChecked, traces)
	}
	wantOps := uint64(traces * len(ops))
	if s.OpsSubmitted != wantOps || s.OpsChecked != wantOps {
		t.Fatalf("op counts = %d/%d, want %d", s.OpsSubmitted, s.OpsChecked, wantOps)
	}
	if s.QueueWait.Count != traces || s.CheckDur.Count != traces {
		t.Fatalf("histogram counts = %d/%d, want %d", s.QueueWait.Count, s.CheckDur.Count, traces)
	}
	if s.CheckDur.P50 <= 0 {
		t.Fatalf("check p50 = %v, want > 0", s.CheckDur.P50)
	}
	// Round-robin dispatch over two workers must touch both.
	total := uint64(0)
	for _, n := range s.PerWorkerChecked {
		total += n
	}
	if total != traces || len(s.PerWorkerChecked) != 2 ||
		s.PerWorkerChecked[0] == 0 || s.PerWorkerChecked[1] == 0 {
		t.Fatalf("per-worker counts = %v, want both non-zero summing to %d",
			s.PerWorkerChecked, traces)
	}
	if len(s.RecentTraces) == 0 || s.RecentTraces[0].Ops != len(ops) {
		t.Fatalf("recent trace ring empty or wrong: %+v", s.RecentTraces)
	}
}

func TestEngineObserverDiagCounts(t *testing.T) {
	m := obs.NewMetrics(4)
	e := NewEngine(Options{Observer: m})
	// A write that is never flushed plus an isPersist checker → one FAIL
	// with code not-persisted.
	e.Submit(&trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x10, Size: 64},
		{Kind: trace.KindIsPersist, Addr: 0x10, Size: 64},
	}})
	reports := e.Close()
	if len(reports) != 1 || reports[0].Fails() != 1 {
		t.Fatalf("expected one FAIL report, got %+v", reports)
	}
	s := m.Snapshot()
	if s.DiagsBySeverity["FAIL"] != 1 {
		t.Fatalf("severity tally = %v, want FAIL:1", s.DiagsBySeverity)
	}
	if s.DiagsByCode[string(CodeNotPersisted)] != 1 {
		t.Fatalf("code tally = %v, want %s:1", s.DiagsByCode, CodeNotPersisted)
	}
	ev := s.RecentTraces[0]
	if ev.Fails != 1 || ev.Codes[string(CodeNotPersisted)] != 1 || ev.TrackedOps != 1 {
		t.Fatalf("trace event wrong: %+v", ev)
	}
}

// TestEngineBackpressureStall forces Submit to block on a full
// single-slot queue and verifies the stall is observed.
func TestEngineBackpressureStall(t *testing.T) {
	m := obs.NewMetrics(4)
	e := NewEngine(Options{Workers: 1, queueDepth: 1, Observer: m})
	// Large traces keep the single worker busy long enough for the
	// producer to overrun the one-slot queue.
	ops := obsTxOps(2000)
	for i := 0; i < 16; i++ {
		e.Submit(&trace.Trace{Ops: ops})
	}
	e.Close()
	s := m.Snapshot()
	if s.BackpressureStalls == 0 || s.BackpressureStall <= 0 {
		t.Fatalf("expected backpressure stalls, got %d (%v)",
			s.BackpressureStalls, s.BackpressureStall)
	}
}

func TestEngineQueueDepths(t *testing.T) {
	e := NewEngine(Options{Workers: 3})
	defer e.Close()
	d := e.QueueDepths()
	if len(d) != 3 {
		t.Fatalf("QueueDepths len = %d, want 3", len(d))
	}
	for i, v := range d {
		if v != 0 {
			t.Fatalf("idle queue %d depth = %d, want 0", i, v)
		}
	}
}

// TestEngineNoObserverUnchanged: with no observer the engine must behave
// exactly as before (and take no timestamps — verified by the benchmark
// suite staying within noise of the seed).
func TestEngineNoObserverUnchanged(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	for i := 0; i < 5; i++ {
		e.Submit(&trace.Trace{Ops: obsTxOps(4)})
	}
	reports := e.Close()
	if len(reports) != 5 {
		t.Fatalf("got %d reports, want 5", len(reports))
	}
	for _, r := range reports {
		if !r.Clean() {
			t.Fatalf("clean trace flagged: %s", r.Summary())
		}
	}
}

// TestEngineConcurrentSubmitWait is the regression test for mixing
// Submit, Wait and report reads from concurrent goroutines (the
// GetResult path): the seed's sync.WaitGroup-based pending counter was
// vulnerable to "Add called concurrently with Wait" misuse; the engine
// now serializes the counters under its mutex. Run under -race.
func TestEngineConcurrentSubmitWait(t *testing.T) {
	e := NewEngine(Options{Workers: 4, queueDepth: 8})
	ops := obsTxOps(16)
	const producers = 4
	const perProducer = 50

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				e.Submit(&trace.Trace{Ops: ops})
			}
		}()
	}
	// Concurrent waiters polling results while producers are still
	// submitting (PMTest_GET_RESULT from a monitoring thread).
	stop := make(chan struct{})
	var waiters sync.WaitGroup
	for w := 0; w < 2; w++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reports := e.Wait()
				for _, r := range reports {
					if r.Ops != len(ops) {
						t.Errorf("report ops = %d, want %d", r.Ops, len(ops))
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	waiters.Wait()
	reports := e.Close()
	if len(reports) != producers*perProducer {
		t.Fatalf("got %d reports, want %d", len(reports), producers*perProducer)
	}
	// IDs must be unique and dense.
	seen := make(map[int]bool, len(reports))
	for _, r := range reports {
		if seen[r.TraceID] {
			t.Fatalf("duplicate trace id %d", r.TraceID)
		}
		seen[r.TraceID] = true
	}
}

// TestTrackOnlyReportsTrackedOps: TrackOnly runs must carry the
// non-checker op count so framework-overhead measurements have real
// data (Fig. 10b).
func TestTrackOnlyReportsTrackedOps(t *testing.T) {
	ops := []trace.Op{
		{Kind: trace.KindTxCheckerStart}, // checker
		{Kind: trace.KindWrite, Addr: 0x10, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x10, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsPersist, Addr: 0x10, Size: 64}, // checker
		{Kind: trace.KindTxCheckerEnd},                    // checker
	}
	e := NewEngine(Options{TrackOnly: true})
	e.Submit(&trace.Trace{Ops: ops})
	reports := e.Close()
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Ops != 6 || r.TrackedOps != 3 {
		t.Fatalf("Ops/TrackedOps = %d/%d, want 6/3", r.Ops, r.TrackedOps)
	}
	if len(r.Diags) != 0 {
		t.Fatalf("track-only run produced diagnostics: %+v", r.Diags)
	}
	// Full checking reports the same tracked-op count.
	full := CheckTrace(X86{}, &trace.Trace{Ops: ops})
	if full.TrackedOps != 3 {
		t.Fatalf("checked TrackedOps = %d, want 3", full.TrackedOps)
	}
}

// TestShadowGaugeMatchesPeak: every check publishes its own
// PeakIntervals as the live shadow-interval gauge and adds its GC
// retirements to the total exactly once, on one stripe and on four,
// including a striped trace that reaches the diagnostic cap and re-runs
// on one stripe.
func TestShadowGaugeMatchesPeak(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		a := uint64(i) * 4096
		ops = append(ops,
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
	}
	section := &trace.Trace{Ops: append(ops, trace.Op{Kind: trace.KindFence})}
	excludes := []Range{{Addr: 1 << 40, Size: 64}}
	stream := &trace.Trace{Ops: streamOps(40, 8, 64, 0, 4096, true)}
	ops = nil
	for i := 0; i < 1100; i++ { // one duplicate writeback per round
		a := uint64(i%64) * 4096
		ops = append(ops,
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFence})
	}
	capped := &trace.Trace{Ops: ops}

	for _, c := range []struct {
		name     string
		tr       *trace.Trace
		excludes []Range
		cfg      Config
		sharded  bool
	}{
		{"section/stripes1", section, excludes, Config{Shards: 1}, false},
		{"section/stripes4", section, excludes, Config{Shards: 4}, true},
		{"stream/stripes1+gc", stream, nil, Config{Shards: 1, EpochGC: true}, false},
		{"stream/stripes4+gc", stream, nil, Config{Shards: 4, EpochGC: true}, true},
		{"capped/stripes4+gc", capped, nil, Config{Shards: 4, EpochGC: true}, false},
	} {
		CheckTrace(X86{}, &trace.Trace{}) // publishes a peak of 0
		before := ResourceStats().GCRetiredIntervals
		rep, stats := CheckTraceCfg(X86{}, c.tr, c.excludes, c.cfg)
		r := ResourceStats()
		if stats.Sharded != c.sharded {
			t.Errorf("%s: sharded = %v, want %v", c.name, stats.Sharded, c.sharded)
		}
		if r.ShadowIntervalsLive != uint64(stats.PeakIntervals) {
			t.Errorf("%s: gauge reads %d, check's peak is %d", c.name, r.ShadowIntervalsLive, stats.PeakIntervals)
		}
		if got := r.GCRetiredIntervals - before; got != stats.RetiredIntervals {
			t.Errorf("%s: GC total grew by %d, check retired %d", c.name, got, stats.RetiredIntervals)
		}
		if stats.PeakIntervals == 0 {
			t.Errorf("%s: peak 0", c.name)
		}
		if c.cfg.EpochGC && stats.RetiredIntervals == 0 {
			t.Errorf("%s: GC retired nothing", c.name)
		}
		if c.tr == section && stats.PeakIntervals != 64 {
			t.Errorf("%s: peak %d, want 64 (one per write)", c.name, stats.PeakIntervals)
		}
		if c.tr == capped && !rep.HasCode(CodeTruncated) {
			t.Errorf("%s: report not truncated", c.name)
		}
	}
	CheckTraceExcluding(X86{}, section, excludes)
	if got := ResourceStats().ShadowIntervalsLive; got != 64 {
		t.Errorf("CheckTraceExcluding: gauge reads %d, want the peak 64", got)
	}
}

// stripeDursObserver keeps the StripeDurs of every checked trace.
type stripeDursObserver struct{ durs [][]time.Duration }

func (*stripeDursObserver) TraceSubmitted(int, int, int)          {}
func (*stripeDursObserver) TraceDequeued(int, int, time.Duration) {}
func (o *stripeDursObserver) TraceChecked(ev obs.TraceEvent)      { o.durs = append(o.durs, ev.StripeDurs) }

// TestWorkerObserverStripeDurs: a Worker with an observer hands it one
// checking time per stripe, in a copy, when the stripes checked the
// trace, and none when the trace ran on one stripe.
func TestWorkerObserverStripeDurs(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		a := uint64(i) * 4096
		ops = append(ops,
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
	}
	striped := &trace.Trace{Ops: append(ops, trace.Op{Kind: trace.KindFence})}
	giant := &trace.Trace{Ops: []trace.Op{{Kind: trace.KindWrite, Addr: 0xF0, Size: 1 << 25}}}

	o := &stripeDursObserver{}
	w := NewWorker(Options{Check: Config{Shards: 4}, Observer: o})
	defer w.Close()
	w.Check(striped)
	w.Check(giant) // wider than 16 MiB: one stripe
	w.Check(striped)
	if len(o.durs) != 3 {
		t.Fatalf("observer saw %d traces, want 3", len(o.durs))
	}
	for _, i := range []int{0, 2} {
		if len(o.durs[i]) != 4 {
			t.Fatalf("striped trace %d: %d stripe durations, want 4", i, len(o.durs[i]))
		}
	}
	if o.durs[1] != nil {
		t.Fatalf("one-stripe trace carried stripe durations %v", o.durs[1])
	}
	if &o.durs[0][0] == &o.durs[2][0] {
		t.Fatal("two events share the checker's duration slice")
	}
}

func TestSharingAnalyzerMetrics(t *testing.T) {
	m := obs.NewMetrics(4)
	a := NewSharingAnalyzer(nil)
	a.SetMetrics(m)
	a.Feed(&trace.Trace{Thread: 0, Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64}, // not a write
	}})
	a.Feed(&trace.Trace{Thread: 1, Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x120, Size: 64},
	}})
	if got := m.SharingTracesFed.Load(); got != 2 {
		t.Fatalf("traces fed = %d, want 2", got)
	}
	if got := m.SharingWritesTracked.Load(); got != 2 {
		t.Fatalf("writes tracked = %d, want 2", got)
	}
	if shared := a.Shared(); len(shared) != 1 {
		t.Fatalf("shared ranges = %+v, want one overlap", shared)
	}
}
