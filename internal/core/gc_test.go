package core

import (
	"testing"

	"pmtest/internal/trace"
)

// gcState returns a fresh state with epoch GC on at the given lag.
func gcState(lag uint64) *State {
	s := NewState()
	s.gcOn = true
	s.gcLag = lag
	return s
}

func apply(s *State, rules RuleSet, ops ...trace.Op) {
	for i, op := range ops {
		s.opIndex = i
		rules.Apply(s, op)
	}
}

// TestGCNeverRetiresOpenInterval: a write that was never fenced keeps an
// open persist interval; no number of later fences may retire it — it is
// exactly what a future isPersist must still be able to fail on.
func TestGCNeverRetiresOpenInterval(t *testing.T) {
	s := gcState(2)
	ops := []trace.Op{{Kind: trace.KindWrite, Addr: 0x100, Size: 64}} // never flushed
	for i := 0; i < 10; i++ {
		ops = append(ops, trace.Op{Kind: trace.KindFence})
	}
	apply(s, X86{}, ops...)
	if s.gcRetired != 0 {
		t.Fatalf("GC retired %d segments; the only segment has an open persist interval", s.gcRetired)
	}
	if s.Mem.Len() != 1 {
		t.Fatalf("open-interval segment vanished: Mem.Len() = %d", s.Mem.Len())
	}
	// The checker must still catch the bug after all those epochs.
	s.opIndex = len(ops)
	X86{}.Apply(s, trace.Op{Kind: trace.KindIsPersist, Addr: 0x100, Size: 64})
	if len(s.diags) != 1 || s.diags[0].Code != CodeNotPersisted {
		t.Fatalf("isPersist after GC passes: diags = %v", s.diags)
	}
}

// TestGCNeverRetiresLiveEpoch: an interval that closed fewer than GCLag
// epochs ago must survive — a checker in the current epoch may still
// reference it.
func TestGCNeverRetiresLiveEpoch(t *testing.T) {
	s := gcState(2)
	apply(s, X86{},
		trace.Op{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		trace.Op{Kind: trace.KindFlush, Addr: 0x100, Size: 64},
		trace.Op{Kind: trace.KindFence}, // closes PI/FI at epoch 1
		trace.Op{Kind: trace.KindFence}, // epoch 2: horizon 0 < 1, keep
	)
	if s.Mem.Len() != 1 || s.gcRetired != 0 {
		t.Fatalf("segment closed within GC lag was retired: len=%d retired=%d", s.Mem.Len(), s.gcRetired)
	}
	// One more epoch ages it past the lag; now it may go.
	apply(s, X86{}, trace.Op{Kind: trace.KindFence}) // epoch 3: horizon 1 >= End 1
	if s.Mem.Len() != 0 || s.gcRetired != 1 {
		t.Fatalf("aged-out segment not retired: len=%d retired=%d", s.Mem.Len(), s.gcRetired)
	}
}

// TestGCHalfOpenSegmentSurvives: a segment whose flush interval closed
// but whose persist interval is still open (or vice versa) is live by
// definition.
func TestGCHalfOpenSegmentSurvives(t *testing.T) {
	s := gcState(1)
	// HOPS: ofence advances the epoch without closing persist intervals.
	apply(s, HOPS{},
		trace.Op{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		trace.Op{Kind: trace.KindOFence},
		trace.Op{Kind: trace.KindOFence},
		trace.Op{Kind: trace.KindOFence},
		// dfence drains: now closed at epoch 4...
		trace.Op{Kind: trace.KindDFence},
	)
	if s.Mem.Len() != 1 {
		t.Fatalf("open segment retired early: len=%d", s.Mem.Len())
	}
	// ...and two more drains age it out under lag 1.
	apply(s, HOPS{}, trace.Op{Kind: trace.KindDFence}, trace.Op{Kind: trace.KindDFence})
	if s.Mem.Len() != 0 || s.gcRetired != 1 {
		t.Fatalf("closed segment survived GC: len=%d retired=%d", s.Mem.Len(), s.gcRetired)
	}
}

// streamOps builds a streaming trace shaped like the benchmark's stream
// workload: each round writes window 64-byte objects at consecutive
// slots of a ring of slots, stride bytes apart, starting at slot first
// and moving on by window slots per round, then fences once. With flush
// set every write is written back before the fence. No write overlaps
// another while both are live, so each leaves one segment behind.
func streamOps(rounds, window, slots, first int, stride uint64, flush bool) []trace.Op {
	var ops []trace.Op
	for r := 0; r < rounds; r++ {
		for w := 0; w < window; w++ {
			a := uint64((first+r*window+w)%slots) * stride
			ops = append(ops, trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64})
			if flush {
				ops = append(ops, trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
			}
		}
		ops = append(ops, trace.Op{Kind: trace.KindFence})
	}
	return ops
}

// checkStream checks ops once under cfg and also returns the segments
// left live in the checker's shadow memory (summed over its stripes).
// The one-stripe check resets its pooled State when it is done, so
// there the count comes from replaying ops on a fresh State with the
// checker's GC settings.
func checkStream(t *testing.T, rules RuleSet, ops []trace.Op, cfg Config) (Report, CheckStats, int) {
	t.Helper()
	c := NewChecker(rules, cfg)
	defer c.Close()
	rep, stats := c.Check(&trace.Trace{Ops: ops}, nil)
	live := 0
	if stats.Sharded {
		for _, s := range c.states {
			live += s.Mem.Len()
		}
	} else {
		s := NewState()
		s.gcOn, s.gcLag = c.cfg.EpochGC, c.cfg.GCLag
		CheckTraceInto(s, rules, &trace.Trace{Ops: ops}, nil)
		live = s.Mem.Len()
	}
	return rep, stats, live
}

// The GC accounting tests below pin PeakIntervals and RetiredIntervals
// to the values the checker produced before fences retired segments in
// the same pass that closes their intervals: the pass may change how
// segments are removed, never which ones or how many.

// TestGCBoundsStreamingMemory is the tentpole property: over a long
// streaming trace with a rotating working set, live shadow intervals
// stay near the working-set size instead of growing with the trace.
func TestGCBoundsStreamingMemory(t *testing.T) {
	const rounds, window = 400, 8
	ops := streamOps(rounds, window, rounds*window, 0, 64, true)

	noGC, statsOff, liveOff := checkStream(t, X86{}, ops, Config{Shards: 1})
	withGC, statsOn, liveOn := checkStream(t, X86{}, ops, Config{Shards: 1, EpochGC: true})
	if !noGC.Clean() || !withGC.Clean() {
		t.Fatalf("streaming trace flagged: gc-off clean=%v gc-on clean=%v", noGC.Clean(), withGC.Clean())
	}
	if statsOff.PeakIntervals < rounds*window/2 {
		t.Fatalf("without GC expected ~%d live intervals, got %d", rounds*window, statsOff.PeakIntervals)
	}
	// With GC the peak is the working set plus the GC lag's worth of
	// closed epochs — far below the whole trace footprint.
	bound := window * 4
	if statsOn.PeakIntervals > bound {
		t.Fatalf("GC peak %d exceeds bound %d (working set %d)", statsOn.PeakIntervals, bound, window)
	}
	if statsOn.RetiredIntervals == 0 {
		t.Fatal("GC retired nothing over a 400-round streaming trace")
	}
	if got, want := [2]uint64{uint64(statsOff.PeakIntervals), statsOff.RetiredIntervals}, [2]uint64{3200, 0}; got != want {
		t.Errorf("without GC (peak, retired) = %v, want %v", got, want)
	}
	if got, want := [2]uint64{uint64(statsOn.PeakIntervals), statsOn.RetiredIntervals}, [2]uint64{24, 3184}; got != want {
		t.Errorf("with GC (peak, retired) = %v, want %v", got, want)
	}
	if liveOff != rounds*window || statsOn.RetiredIntervals+uint64(liveOn) != rounds*window {
		t.Errorf("segments written %d: %d live without GC; %d retired + %d live with GC",
			rounds*window, liveOff, statsOn.RetiredIntervals, liveOn)
	}
}

// TestGCShardedEquivalenceStreaming: the same streaming shape must be
// clean and report-identical under shards=4 with GC, and each stripe's
// peak must stay bounded.
func TestGCShardedEquivalenceStreaming(t *testing.T) {
	const rounds, window = 200, 8
	// One line per 4 KiB chunk, striped.
	ops := streamOps(rounds, window, rounds*window, 0, 4096, true)
	tr := &trace.Trace{Ops: ops}
	want := renderReport(CheckTraceExcluding(X86{}, tr, nil))
	rep, stats, live := checkStream(t, X86{}, ops, Config{Shards: 4, EpochGC: true})
	if got := renderReport(rep); got != want {
		t.Fatalf("sharded+GC streaming diverges\n--- serial ---\n%s--- sharded ---\n%s", want, got)
	}
	if !stats.Sharded {
		t.Fatal("streaming trace fell back to serial")
	}
	if bound := window * 4; stats.PeakIntervals > bound {
		t.Fatalf("sharded GC peak %d exceeds bound %d", stats.PeakIntervals, bound)
	}
	if stats.RetiredIntervals == 0 {
		t.Fatal("sharded GC retired nothing")
	}
	if got, want := [2]uint64{uint64(stats.PeakIntervals), stats.RetiredIntervals}, [2]uint64{24, 1584}; got != want {
		t.Errorf("(peak, retired) = %v, want %v", got, want)
	}
	if stats.RetiredIntervals+uint64(live) != rounds*window {
		t.Errorf("segments written %d: %d retired + %d live", rounds*window, stats.RetiredIntervals, live)
	}
}

// TestGCWrappingWindow streams a window that wraps around a ring of
// slots, as the benchmark's stream rotates over 4 096 slots, and starts
// off the window's alignment. Once it wraps, the oldest round no longer
// sits at the low end of the address space, so fences retire segments
// from the middle and the end of the map as well as its front. The
// promoted cases keep 1 536 segments live per map, so epoch GC runs on
// the treap too. Every case must report like the serial check without
// GC and account for every segment it wrote.
func TestGCWrappingWindow(t *testing.T) {
	cases := []struct {
		name                  string
		rules                 RuleSet
		rounds, window, slots int
		stride                uint64
		shards                int
		peak                  int
		retired               uint64
	}{
		{"x86/serial", X86{}, 400, 8, 64, 64, 1, 24, 3184},
		{"x86/stripes4", X86{}, 400, 8, 64, 4096, 4, 24, 3184},
		{"hops/serial", HOPS{}, 400, 8, 64, 64, 1, 24, 3184},
		{"hops/stripes4", HOPS{}, 400, 8, 64, 4096, 4, 24, 3184},
		{"x86/serial/promoted", X86{}, 40, 512, 4096, 64, 1, 1536, 19456},
		{"x86/stripes4/promoted", X86{}, 40, 4 * 512, 4 * 4096, 4096, 4, 6144, 77824},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, flush := c.rules.(X86) // HOPS warns on every explicit writeback
			ops := streamOps(c.rounds, c.window, c.slots, 29, c.stride, flush)
			want := renderReport(CheckTraceExcluding(c.rules, &trace.Trace{Ops: ops}, nil))
			rep, stats, live := checkStream(t, c.rules, ops, Config{Shards: c.shards, EpochGC: true})
			if got := renderReport(rep); got != want || !rep.Clean() {
				t.Fatalf("report differs from the serial check without GC\n--- serial ---\n%s--- GC ---\n%s", want, got)
			}
			if stats.Sharded != (c.shards > 1) {
				t.Fatalf("sharded = %v with %d shards", stats.Sharded, c.shards)
			}
			if stats.PeakIntervals != c.peak || stats.RetiredIntervals != c.retired {
				t.Errorf("(peak, retired) = (%d, %d), want (%d, %d)",
					stats.PeakIntervals, stats.RetiredIntervals, c.peak, c.retired)
			}
			if written := uint64(c.rounds * c.window); stats.RetiredIntervals+uint64(live) != written {
				t.Errorf("segments written %d: %d retired + %d live", written, stats.RetiredIntervals, live)
			}
		})
	}
}
