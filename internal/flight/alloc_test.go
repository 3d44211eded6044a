//go:build !race

package flight

// Allocation-regression ceilings for the recording hot path: with a
// recorder attached, a steady stream of clean sections must not add
// per-trace allocations on top of the checking engine's own budget.
// Spans are pooled and copied into preallocated rings, so span
// start/annotate/finish is allocation-free in steady state. Excluded
// under -race: the race runtime randomly drops sync.Pool items, which
// makes allocation counts meaningless.

import (
	"testing"

	"pmtest/internal/core"
	"pmtest/internal/trace"
)

// cleanSectionOps mirrors the clean transactional section of the core
// alloc tests: logged, written, flushed lines closed by one fence.
func cleanSectionOps(writes int) []trace.Op {
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

// TestSpanRecordAllocCeiling pins the cost of one span cycle: start,
// annotate, finish into the ring. Steady state is 0 — pool hit, fixed
// attr arrays, preallocated ring slot.
func TestSpanRecordAllocCeiling(t *testing.T) {
	rec := NewRecorder(64)
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Start(CatTx, "tx", 1).
			SetTID(0).
			SetInt("begin_op", 1).
			SetInt("end_op", 99).
			Finish()
	})
	if allocs > 0 {
		t.Fatalf("span record cycle: %.1f allocs/op, want 0", allocs)
	}
}

// TestCheckedTraceAllocCeiling pins the full observed clean path: a
// core.Worker checks a 256-write section carrying span identity, builds
// the observer event, and emits the engine span through EngineObserver.
// The ceiling matches the engine's own CheckTrace ceiling — the flight
// recorder must ride along for free on clean traces.
func TestCheckedTraceAllocCeiling(t *testing.T) {
	rec := NewRecorder(64)
	w := core.NewWorker(core.Options{Rules: core.X86{}, Observer: EngineObserver(rec)})
	defer w.Close()
	tr := &trace.Trace{
		Ops:     cleanSectionOps(256),
		SpanID:  1,
		TxSpans: []trace.SpanRange{{Begin: 1, End: 770, SpanID: 2}},
	}
	const ceiling = 64.0
	allocs := testing.AllocsPerRun(100, func() {
		if rep := w.Check(tr); !rep.Clean() {
			t.Fatal("clean trace flagged")
		}
	})
	if allocs > ceiling {
		t.Fatalf("checked trace with recorder: %.1f allocs/op, ceiling %v", allocs, ceiling)
	}
}
