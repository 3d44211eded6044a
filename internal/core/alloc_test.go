//go:build !race

package core

// Allocation-regression tests: the checking hot path is pooled
// (statePool + interval-tree node freelists + scratch buffers), so a
// steady stream of clean traces must check without per-trace
// allocations. These ceilings fail `go test` locally the moment a
// change reintroduces per-op allocation — the bench job's compare gate
// is the second, coarser line of defense. Excluded under -race: the
// race runtime randomly drops sync.Pool items to widen interleaving
// coverage, which makes allocation counts meaningless.

import (
	"testing"

	"pmtest/internal/trace"
)

// cleanMicroOps builds the clean transactional section the micro suite
// ships per insert: logged, written, flushed lines closed by one fence.
func cleanMicroOps(writes int) []trace.Op {
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

// TestCheckTraceAllocCeiling pins allocs per checked trace. The pre-pool
// baseline for this trace shape was ~1286 allocs; steady state is now 0.
// The ceiling leaves slack for a GC clearing the pool mid-measurement,
// while still failing loudly on any real regression.
func TestCheckTraceAllocCeiling(t *testing.T) {
	tr := &trace.Trace{Ops: cleanMicroOps(256)}
	const ceiling = 64.0
	allocs := testing.AllocsPerRun(100, func() {
		rep := CheckTrace(X86{}, tr)
		if !rep.Clean() {
			t.Fatal("clean trace flagged")
		}
	})
	if allocs > ceiling {
		t.Fatalf("CheckTrace on a clean 256-write section: %.1f allocs/op, ceiling %v (pre-optimization baseline ~1286)",
			allocs, ceiling)
	}
}

// TestCheckTraceAllocCeilingOrdered covers the isOrderedBefore path,
// whose operand collection used to allocate two slices per checker.
func TestCheckTraceAllocCeilingOrdered(t *testing.T) {
	ops := []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x1000, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x1000, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindWrite, Addr: 0x2000, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x2000, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsOrderedBefore, Addr: 0x1000, Size: 64, Addr2: 0x2000, Size2: 64},
		{Kind: trace.KindIsPersist, Addr: 0x2000, Size: 64},
	}
	tr := &trace.Trace{Ops: ops}
	const ceiling = 16.0
	allocs := testing.AllocsPerRun(100, func() {
		rep := CheckTrace(X86{}, tr)
		if !rep.Clean() {
			t.Fatal("clean ordered trace flagged")
		}
	})
	if allocs > ceiling {
		t.Fatalf("CheckTrace with checkers: %.1f allocs/op, ceiling %v", allocs, ceiling)
	}
}

// TestCheckTraceAllocCeilingPromoted covers a section big enough that the
// shadow memory, log and written maps each pass interval.Map's flat limit
// (1 024 segments) and move into a treap. A pooled State keeps those
// treaps, node freelists included, across Reset, so the steady state
// allocates nothing; rebuilding them on every trace would cost over
// 9 000 allocs.
func TestCheckTraceAllocCeilingPromoted(t *testing.T) {
	tr := &trace.Trace{Ops: cleanMicroOps(4 * 1024)}
	const ceiling = 0.0
	allocs := testing.AllocsPerRun(20, func() {
		rep := CheckTrace(X86{}, tr)
		if !rep.Clean() {
			t.Fatal("clean trace flagged")
		}
	})
	if allocs > ceiling {
		t.Fatalf("CheckTrace on a clean 4096-write section: %.1f allocs/op, ceiling %v", allocs, ceiling)
	}
}

// splitFillOps builds a clean section whose flushes edit the shadow
// memory at the two places a flush can: each 128-byte write is written
// back as two 64-byte lines, so the first writeback splits its segment,
// and each write is followed by a writeback of a never-written line
// inside the excluded range at excluded, which fills a gap without a
// warning.
func splitFillOps(writes int, excluded uint64) []trace.Op {
	var ops []trace.Op
	for i := 0; i < writes; i++ {
		addr := uint64(0x1000 + i*128)
		line := excluded + uint64(i*64)
		ops = append(ops,
			trace.Op{Kind: trace.KindWrite, Addr: addr, Size: 128},
			trace.Op{Kind: trace.KindFlush, Addr: addr, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: addr + 64, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: line, Size: 64})
	}
	return append(ops, trace.Op{Kind: trace.KindFence})
}

// TestCheckTraceAllocCeilingFlushEdits pins 0 allocs for flushes that
// split segments and quietly fill gaps in an excluded range, on a map
// that stays flat (192 segments) and on one that promotes (12 288).
// Flushes edit the shadow memory in place; a gap's value is built where
// it is stored, since a pointer to a local zero value handed to the
// edit's callback would escape and cost an allocation per gap.
func TestCheckTraceAllocCeilingFlushEdits(t *testing.T) {
	const excluded = 1 << 32
	for _, c := range []struct {
		name   string
		writes int
	}{{"flat", 64}, {"promoted", 4 * 1024}} {
		t.Run(c.name, func(t *testing.T) {
			tr := &trace.Trace{Ops: splitFillOps(c.writes, excluded)}
			excl := []Range{{Addr: excluded, Size: uint64(c.writes * 64)}}
			const ceiling = 0.0
			allocs := testing.AllocsPerRun(20, func() {
				rep := CheckTraceExcluding(X86{}, tr, excl)
				if !rep.Clean() {
					t.Fatalf("clean trace flagged: %v", rep.Diags)
				}
			})
			if allocs > ceiling {
				t.Fatalf("CheckTrace on %d split and %d filled flushes: %.1f allocs/op, ceiling %v",
					c.writes, c.writes, allocs, ceiling)
			}
		})
	}
}
