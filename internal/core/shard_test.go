package core

import (
	"fmt"
	"strings"
	"testing"

	"pmtest/internal/trace"
)

// renderReport serializes every externally visible field of a report —
// the byte-equality surface the sharded checker must preserve. The
// hidden merge key (Diagnostic.sortKey) is deliberately absent: it is
// not part of the report.
func renderReport(r Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace=%d thread=%d ops=%d tracked=%d\n",
		r.TraceID, r.Thread, r.Ops, r.TrackedOps)
	for _, d := range r.Diags {
		fmt.Fprintf(&b, "  op=%d %s\n", d.OpIndex, d.String())
	}
	return b.String()
}

// checkEquiv asserts the sharded report is byte-identical to the serial
// one and that the expected path (striped vs fallback) was taken.
func checkEquiv(t *testing.T, rules RuleSet, tr *trace.Trace, excludes []Range, cfg Config, wantSharded bool) {
	t.Helper()
	want := renderReport(CheckTraceExcluding(rules, tr, excludes))
	rep, stats := CheckTraceCfg(rules, tr, excludes, cfg)
	if got := renderReport(rep); got != want {
		t.Fatalf("sharded report diverges (%s, cfg %+v)\n--- serial ---\n%s--- sharded ---\n%s",
			rules.Name(), cfg, want, got)
	}
	if stats.Sharded != wantSharded {
		t.Errorf("stats.Sharded = %v, want %v (cfg %+v)", stats.Sharded, wantSharded, cfg)
	}
}

// shardCfgs is the matrix every equivalence test runs: varying stripe
// counts (including one exceeding the address spread) with small chunks
// so test addresses actually distribute.
var shardCfgs = []Config{
	{Shards: 2, chunkBits: 8},
	{Shards: 4, chunkBits: 8},
	{Shards: 7, chunkBits: 8},
	{Shards: 4, chunkBits: 8, EpochGC: true},
}

// chunkAddr places object i at a 64-byte-aligned address in chunk
// i%16 of the 256-byte chunk space, spreading ops across stripes.
func chunkAddr(i int) uint64 {
	return uint64(i%16)<<8 + uint64(i/16%4)*64
}

func equivTraces() map[string]*trace.Trace {
	traces := map[string]*trace.Trace{}

	// Clean transactional section: every line logged, written, flushed,
	// fenced — the hot path of the harness workloads.
	var ops []trace.Op
	ops = append(ops, trace.Op{Kind: trace.KindTxCheckerStart}, trace.Op{Kind: trace.KindTxBegin})
	for i := 0; i < 24; i++ {
		a := chunkAddr(i)
		ops = append(ops,
			trace.Op{Kind: trace.KindTxAdd, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
	}
	ops = append(ops, trace.Op{Kind: trace.KindFence},
		trace.Op{Kind: trace.KindTxEnd}, trace.Op{Kind: trace.KindTxCheckerEnd})
	traces["clean-tx"] = &trace.Trace{Ops: ops}

	// Incomplete transaction: flushes dropped on a third of the lines,
	// so TX_CHECKER_END injects findings on several stripes at one op —
	// the address-order merge is load-bearing here.
	ops = nil
	ops = append(ops, trace.Op{Kind: trace.KindTxCheckerStart}, trace.Op{Kind: trace.KindTxBegin})
	for i := 0; i < 24; i++ {
		a := chunkAddr(i)
		ops = append(ops, trace.Op{Kind: trace.KindTxAdd, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64})
		if i%3 != 0 {
			ops = append(ops, trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
		}
	}
	ops = append(ops, trace.Op{Kind: trace.KindFence},
		trace.Op{Kind: trace.KindTxEnd}, trace.Op{Kind: trace.KindTxCheckerEnd})
	traces["incomplete-tx"] = &trace.Trace{Ops: ops}

	// Missing undo-log backups on some lines (FAIL at the write op).
	ops = nil
	ops = append(ops, trace.Op{Kind: trace.KindTxCheckerStart}, trace.Op{Kind: trace.KindTxBegin})
	for i := 0; i < 16; i++ {
		a := chunkAddr(i)
		if i%4 != 1 {
			ops = append(ops, trace.Op{Kind: trace.KindTxAdd, Addr: a, Size: 64})
		}
		ops = append(ops, trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
	}
	ops = append(ops, trace.Op{Kind: trace.KindFence},
		trace.Op{Kind: trace.KindTxEnd}, trace.Op{Kind: trace.KindTxCheckerEnd})
	traces["missing-backup"] = &trace.Trace{Ops: ops}

	// Performance warnings: duplicate and unnecessary writebacks, plus a
	// duplicate undo-log entry.
	traces["writeback-warns"] = &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindTxCheckerStart},
		{Kind: trace.KindTxBegin},
		{Kind: trace.KindTxAdd, Addr: 0x100, Size: 64},
		{Kind: trace.KindTxAdd, Addr: 0x100, Size: 64}, // duplicate log
		{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64}, // duplicate writeback
		{Kind: trace.KindFlush, Addr: 0x700, Size: 64}, // never written
		{Kind: trace.KindFence},
		{Kind: trace.KindTxEnd},
		{Kind: trace.KindTxCheckerEnd},
	}}

	// Unbalanced structure: stray ends, double start, trailing open
	// scope. These warnings are trace-global; exactly one stripe may
	// report them.
	traces["unbalanced"] = &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindTxEnd}, // end without begin
		{Kind: trace.KindTxCheckerEnd},
		{Kind: trace.KindTxCheckerStart},
		{Kind: trace.KindTxCheckerStart}, // double start
		{Kind: trace.KindWrite, Addr: 0x200, Size: 32},
		// trace ends inside the open checker scope
	}}

	// Unpersisted data caught by explicit checkers.
	traces["not-persisted"] = &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		{Kind: trace.KindWrite, Addr: 0x300, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsPersist, Addr: 0x100, Size: 64}, // ok
		{Kind: trace.KindIsPersist, Addr: 0x300, Size: 64}, // FAIL
	}}

	// isOrderedBefore with cross-stripe operands, ordered and unordered.
	traces["ordered-cross"] = &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindWrite, Addr: 0x900, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x900, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsOrderedBefore, Addr: 0x100, Size: 64, Addr2: 0x900, Size2: 64}, // ok
		{Kind: trace.KindIsOrderedBefore, Addr: 0x900, Size: 64, Addr2: 0x100, Size2: 64}, // FAIL
	}}

	// isOrderedBefore with both operands on one stripe plus an unordered
	// same-epoch pair.
	traces["ordered-local"] = &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x100, Size: 32},
		{Kind: trace.KindWrite, Addr: 0x140, Size: 32},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 32},
		{Kind: trace.KindFlush, Addr: 0x140, Size: 32},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsOrderedBefore, Addr: 0x100, Size: 32, Addr2: 0x140, Size2: 32}, // same epoch: FAIL
	}}

	// Exclusion scope: a broadcast Exclude over a huge range mutes
	// findings; Include restores them.
	traces["exclude-include"] = &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindExclude, Addr: 0, Size: 1 << 30},
		{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64}, // excluded: quiet
		{Kind: trace.KindInclude, Addr: 0, Size: 1 << 30},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64}, // now warns
		{Kind: trace.KindFence},
	}}

	// Degenerate shapes.
	traces["empty"] = &trace.Trace{Ops: nil}
	traces["fences-only"] = &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindFence}, {Kind: trace.KindOFence}, {Kind: trace.KindDFence},
	}}

	return traces
}

// TestShardedEquivalence proves the stripe path emits byte-identical
// reports across rule sets, stripe counts, and GC settings.
func TestShardedEquivalence(t *testing.T) {
	for name, tr := range equivTraces() {
		for _, rules := range []RuleSet{X86{}, HOPS{}, Epoch{}, ARM{}} {
			for _, cfg := range shardCfgs {
				t.Run(fmt.Sprintf("%s/%s/shards=%d-gc=%v", name, rules.Name(), cfg.Shards, cfg.EpochGC), func(t *testing.T) {
					checkEquiv(t, rules, tr, nil, cfg, true)
				})
			}
		}
	}
}

// TestShardedEquivalenceStaticExcludes seeds session-wide exclusions,
// which must replicate into every stripe.
func TestShardedEquivalenceStaticExcludes(t *testing.T) {
	tr := equivTraces()["writeback-warns"]
	excludes := []Range{{Addr: 0x700, Size: 64}}
	checkEquiv(t, X86{}, tr, excludes, Config{Shards: 4, chunkBits: 8}, true)
}

// TestShardedTruncation drives the per-trace diagnostic cap: the
// truncation point, the cap diagnostic, the tracked-op count and the
// trailing open-scope warning must all match serial. A trace whose
// diagnostics reach the cap re-runs on one stripe, so none of these
// report as striped.
func TestShardedTruncation(t *testing.T) {
	traces := map[string]*trace.Trace{}

	// Duplicate writebacks on every stripe, one warning per triple. The
	// scope never closes: serial reports the trailing warning at the
	// truncation op.
	ops := []trace.Op{{Kind: trace.KindTxCheckerStart}}
	for i := 0; i < 1100; i++ {
		a := chunkAddr(i)
		ops = append(ops,
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
	}
	traces["duplicate-writebacks"] = &trace.Trace{Ops: ops}

	// Only the coordinator reports: two unfenced writes on different
	// stripes, then 1 100 cross-stripe isOrderedBefore FAILs.
	ops = []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x000, Size: 64},
		{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
	}
	for i := 0; i < 1100; i++ {
		ops = append(ops, trace.Op{Kind: trace.KindIsOrderedBefore,
			Addr: 0x000, Size: 64, Addr2: 0x100, Size2: 64})
	}
	traces["cross-stripe-order"] = &trace.Trace{Ops: ops}

	// One TX_CHECKER_END injects 1 500 incomplete-transaction checks,
	// spread over every stripe, at a single op.
	ops = []trace.Op{{Kind: trace.KindTxCheckerStart}}
	for i := 0; i < 1500; i++ {
		ops = append(ops, trace.Op{Kind: trace.KindWrite, Addr: uint64(i) * 128, Size: 64})
	}
	ops = append(ops, trace.Op{Kind: trace.KindTxCheckerEnd})
	traces["checker-end"] = &trace.Trace{Ops: ops}

	for name, tr := range traces {
		if !CheckTrace(X86{}, tr).HasCode(CodeTruncated) {
			t.Fatalf("%s: the serial check does not reach the cap", name)
		}
		for _, cfg := range shardCfgs {
			t.Run(fmt.Sprintf("%s/shards=%d-gc=%v", name, cfg.Shards, cfg.EpochGC), func(t *testing.T) {
				checkEquiv(t, X86{}, tr, nil, cfg, false)
			})
		}
	}
}

// TestShardedSpanningRangeCoarsens: a range crossing the configured
// chunk line has no single owning stripe at that granularity, so the
// planner coarsens the chunk size for the trace instead of giving up —
// the trace still runs striped and reports identically.
func TestShardedSpanningRangeCoarsens(t *testing.T) {
	ops := []trace.Op{
		{Kind: trace.KindWrite, Addr: 0xF0, Size: 64}, // crosses the 0x100 chunk line
		{Kind: trace.KindFlush, Addr: 0xF0, Size: 64},
	}
	// Enough single-chunk lines across coarsened chunks that multiple
	// stripes still get work at the widened granularity.
	for i := 0; i < 32; i++ {
		a := uint64(i) << 9 // one per 512 B chunk, the coarsened size
		ops = append(ops,
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 32},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 32})
	}
	ops = append(ops, trace.Op{Kind: trace.KindFence},
		trace.Op{Kind: trace.KindIsPersist, Addr: 0xF0, Size: 64})
	tr := &trace.Trace{Ops: ops}
	checkEquiv(t, X86{}, tr, nil, Config{Shards: 4, chunkBits: 8}, true)
}

// TestShardedFallbackGiantRange: an op spanning more than 1<<maxChunkBits
// bytes exceeds what coarsening will absorb; the whole trace must fall
// back to the serial path and still report identically.
func TestShardedFallbackGiantRange(t *testing.T) {
	tr := &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0xF0, Size: 1 << 25}, // 32 MiB, spans 16 MiB chunks
		{Kind: trace.KindFlush, Addr: 0xF0, Size: 1 << 25},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsPersist, Addr: 0xF0, Size: 1 << 25},
	}}
	checkEquiv(t, X86{}, tr, nil, Config{Shards: 4, chunkBits: 8}, false)
}

// customRules is a RuleSet the router does not know; it must force the
// serial path (its Apply could carry semantics the planner cannot see).
type customRules struct{ X86 }

func (customRules) Name() string { return "custom" }

func TestShardedFallbackCustomRules(t *testing.T) {
	tr := equivTraces()["clean-tx"]
	checkEquiv(t, customRules{}, tr, nil, Config{Shards: 4, chunkBits: 8}, false)
}

// TestShardedChunkDefaults: the default 4 KiB chunks shard the harness
// address shapes (64-byte-aligned lines) without fallback.
func TestShardedChunkDefaults(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		a := uint64(i) * 4096 // one line per chunk → round-robin stripes
		ops = append(ops,
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
	}
	ops = append(ops, trace.Op{Kind: trace.KindFence})
	tr := &trace.Trace{Ops: ops}
	rep, stats := CheckTraceCfg(X86{}, tr, nil, Config{Shards: 4})
	if !stats.Sharded {
		t.Fatal("default chunking fell back to serial on aligned lines")
	}
	if !rep.Clean() {
		t.Fatalf("clean trace flagged: %s", renderReport(rep))
	}
}

// TestShardedCheckerReuse exercises one persistent checker across many
// traces (the engine-worker pattern): state must fully reset between
// traces and reports must stay identical throughout.
func TestShardedCheckerReuse(t *testing.T) {
	traces := equivTraces()
	names := []string{"clean-tx", "incomplete-tx", "unbalanced", "ordered-cross",
		"clean-tx", "writeback-warns", "empty", "not-persisted", "clean-tx"}
	c := NewChecker(X86{}, Config{Shards: 4, chunkBits: 8, EpochGC: true})
	defer c.Close()
	for round := 0; round < 3; round++ {
		for _, name := range names {
			tr := traces[name]
			want := renderReport(CheckTraceExcluding(X86{}, tr, nil))
			rep, _ := c.Check(tr, nil)
			if got := renderReport(rep); got != want {
				t.Fatalf("round %d %s: reused checker diverges\n--- serial ---\n%s--- sharded ---\n%s",
					round, name, want, got)
			}
		}
	}
}

// TestShardedPanicFallback: a rule-set panic under the configured
// checker must surface as the same CodeCheckerPanic report the serial
// checker produces, not kill the process. panicRules (panic_test.go) is
// a custom rule set, so this also pins the unknown-rules serial route.
func TestShardedPanicFallback(t *testing.T) {
	rep, stats := CheckTraceCfg(panicRules{}, poisonTrace(), nil, Config{Shards: 4, chunkBits: 8})
	if stats.Sharded {
		t.Fatal("unknown rule set took the striped path")
	}
	if !rep.HasCode(CodeCheckerPanic) {
		t.Fatalf("panic not converted to diagnostic: %s", renderReport(rep))
	}
}

// TestStripeWorkerPanicRecovers drives the stripe-side recover directly
// (built-in rule sets never panic on any input — FuzzCheckTrace pins
// that — so the hook is exercised with an out-of-range command) and
// verifies the checker records the panic and stays usable afterwards.
func TestStripeWorkerPanicRecovers(t *testing.T) {
	c := NewChecker(X86{}, Config{Shards: 2, chunkBits: 8})
	defer c.Close()
	tr := &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		{Kind: trace.KindFence},
	}}
	if !c.plan(tr.Ops) {
		t.Fatal("plan rejected a routable trace")
	}
	c.ops = tr.Ops
	c.runStripe(0, c.states[0], stripeCmd{from: 0, to: 1 << 20}) // out of range: panics inside
	if !c.bail.Load() {
		t.Fatal("runStripe panic was not recorded")
	}
	rep, _ := c.Check(tr, nil)
	want := renderReport(CheckTraceExcluding(X86{}, tr, nil))
	if got := renderReport(rep); got != want {
		t.Fatalf("checker unusable after stripe panic\n--- serial ---\n%s--- got ---\n%s", want, got)
	}
}
