//go:build !race

package core

import (
	"testing"

	"pmtest/internal/trace"
)

// cleanStripedOps builds a clean section whose lines spread across 4 KiB
// chunks, so every stripe of a 4-way checker receives work.
func cleanStripedOps(writes int) []trace.Op {
	ops := []trace.Op{{Kind: trace.KindTxCheckerStart}, {Kind: trace.KindTxBegin}}
	for i := 0; i < writes; i++ {
		addr := uint64(i) * 4096
		ops = append(ops,
			trace.Op{Kind: trace.KindTxAdd, Addr: addr, Size: 64},
			trace.Op{Kind: trace.KindWrite, Addr: addr, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: addr, Size: 64})
	}
	return append(ops, trace.Op{Kind: trace.KindFence},
		trace.Op{Kind: trace.KindTxEnd}, trace.Op{Kind: trace.KindTxCheckerEnd})
}

// TestShardedCheckAllocCeiling pins the steady-state allocation cost of
// the stripe path: routing ops into warm per-stripe index lists, the
// phase dispatch, per-stripe checking against pooled trees, GC, and the
// clean-path merge must all be allocation-free once the checker is warm.
// The ceiling tolerates runtime noise (a GC mid-measurement migrating a
// goroutine stack) while failing loudly on any real per-op regression:
// at 256 writes per section even 1 alloc/op would cost ~770.
func TestShardedCheckAllocCeiling(t *testing.T) {
	tr := &trace.Trace{Ops: cleanStripedOps(256)}
	c := NewChecker(X86{}, Config{Shards: 4, EpochGC: true})
	defer c.Close()
	// Warm: grows index lists, tree freelists and GC scratch to capacity.
	for i := 0; i < 4; i++ {
		rep, stats := c.Check(tr, nil)
		if !rep.Clean() || !stats.Sharded {
			t.Fatalf("warmup: clean=%v sharded=%v", rep.Clean(), stats.Sharded)
		}
	}
	const ceiling = 16.0
	allocs := testing.AllocsPerRun(100, func() {
		rep, _ := c.Check(tr, nil)
		if !rep.Clean() {
			t.Fatal("clean striped section flagged")
		}
	})
	if allocs > ceiling {
		t.Fatalf("warm sharded Check on a clean 256-write section: %.1f allocs, ceiling %v",
			allocs, ceiling)
	}
}

// TestEpochGCStreamAllocCeiling pins 0 allocs for a warm serial checker
// with epoch GC on a stream section of the benchmark's shape: 32 rounds
// of 256 written-back objects at 4 KiB stride over 4 096 slots, one fence
// per round. Each fence closes intervals and retires segments in one
// pass over the shadow memory, with no scratch list of retired ranges.
func TestEpochGCStreamAllocCeiling(t *testing.T) {
	tr := &trace.Trace{Ops: streamOps(32, 256, 4096, 1000, 4096, true)}
	c := NewChecker(X86{}, Config{Shards: 1, EpochGC: true})
	defer c.Close()
	for i := 0; i < 2; i++ { // warm: grows the segment slice to capacity
		if rep, stats := c.Check(tr, nil); !rep.Clean() || stats.RetiredIntervals == 0 {
			t.Fatalf("warmup: clean=%v retired=%d", rep.Clean(), stats.RetiredIntervals)
		}
	}
	const ceiling = 0.0
	allocs := testing.AllocsPerRun(20, func() {
		rep, _ := c.Check(tr, nil)
		if !rep.Clean() {
			t.Fatal("clean stream section flagged")
		}
	})
	if allocs > ceiling {
		t.Fatalf("warm epoch-GC Check on a %d-op stream section: %.1f allocs, ceiling %v",
			len(tr.Ops), allocs, ceiling)
	}
}
