package core

import (
	"strings"
	"testing"

	"pmtest/internal/trace"
)

// Additional edge-case coverage for the engine and rule sets.

func TestIsOrderedBeforeVacuousCases(t *testing.T) {
	// Neither range ever written: vacuously ordered (nothing to compare).
	r := CheckTrace(X86{}, mk(isOrdered(0x10, 8, 0x20, 8)))
	if !r.Clean() {
		t.Fatalf("vacuous isOrderedBefore flagged: %s", r.Summary())
	}
	// Only B written: nothing in A constrains the order.
	r = CheckTrace(X86{}, mk(write(0x20, 8), isOrdered(0x10, 8, 0x20, 8)))
	if !r.Clean() {
		t.Fatalf("A-empty isOrderedBefore flagged: %s", r.Summary())
	}
	// Only A written and open: A may persist after anything — but with no
	// writes in B there is nothing to violate.
	r = CheckTrace(X86{}, mk(write(0x10, 8), isOrdered(0x10, 8, 0x20, 8)))
	if !r.Clean() {
		t.Fatalf("B-empty isOrderedBefore flagged: %s", r.Summary())
	}
}

func TestIsPersistOnNeverWrittenRangePasses(t *testing.T) {
	// isPersist asserts "persisted since last update"; with no update in
	// the trace the assertion is vacuous (the paper's semantics).
	r := CheckTrace(X86{}, mk(isPersist(0x1000, 64)))
	if !r.Clean() {
		t.Fatalf("vacuous isPersist flagged: %s", r.Summary())
	}
}

func TestWriteSpanningExcludedBoundary(t *testing.T) {
	// A write that straddles an excluded range: only the non-excluded
	// part must be covered by the log.
	r := CheckTrace(X86{}, mk(
		exclude(0x100, 32),
		txCheckStart(),
		txBegin(),
		write(0x100, 64), // [0x100,0x120) excluded, [0x120,0x140) not
		txEnd(),
		txCheckEnd(),
	))
	if !r.HasCode(CodeMissingBackup) {
		t.Fatalf("non-excluded half must need a backup: %s", r.Summary())
	}
}

func TestFenceWithNothingPendingIsHarmless(t *testing.T) {
	r := CheckTrace(X86{}, mk(fence(), fence(), fence()))
	if !r.Clean() {
		t.Fatalf("bare fences flagged: %s", r.Summary())
	}
}

func TestOverlappingWritesMergeIntervals(t *testing.T) {
	// Overlapping writes: the later write's interval governs the overlap.
	r := CheckTrace(X86{}, mk(
		write(0x100, 64),
		flush(0x100, 64),
		fence(),
		write(0x120, 64), // overlaps the tail of the first write
		isPersist(0x100, 32),
	))
	if !r.Clean() {
		t.Fatalf("persisted prefix flagged: %s", r.Summary())
	}
	r = CheckTrace(X86{}, mk(
		write(0x100, 64),
		flush(0x100, 64),
		fence(),
		write(0x120, 64),
		isPersist(0x100, 64), // includes re-dirtied suffix
	))
	if !r.HasCode(CodeNotPersisted) {
		t.Fatalf("re-dirtied suffix must fail: %s", r.Summary())
	}
}

func TestEngineQueueBackpressure(t *testing.T) {
	// A tiny queue forces Submit to block until workers drain; all traces
	// must still be checked exactly once.
	e := NewEngine(Options{Workers: 1, queueDepth: 1})
	const n = 200
	for i := 0; i < n; i++ {
		e.Submit(mk(write(0x10, 8), flush(0x10, 8), fence(), isPersist(0x10, 8)))
	}
	reports := e.Close()
	if len(reports) != n {
		t.Fatalf("reports = %d, want %d", len(reports), n)
	}
}

func TestSummarizeOutput(t *testing.T) {
	r1 := CheckTrace(X86{}, mk(write(0x10, 8), isPersist(0x10, 8)))
	r2 := CheckTrace(X86{}, mk(write(0x20, 8), flush(0x20, 8), fence(), isPersist(0x20, 8)))
	out := Summarize([]Report{r1, r2})
	if !strings.Contains(out, "2 traces checked: 1 FAIL, 0 WARN") {
		t.Fatalf("Summarize = %q", out)
	}
	if !strings.Contains(out, "not-persisted") {
		t.Fatalf("missing finding detail: %q", out)
	}
}

func TestReportSummaryPass(t *testing.T) {
	r := Report{TraceID: 7}
	if got := r.Summary(); got != "trace 7: PASS" {
		t.Fatalf("Summary = %q", got)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Severity: SeverityFail, Code: CodeNotPersisted,
		Message: "boom", Site: "a.go:1", Related: "b.go:2",
	}
	want := "FAIL [not-persisted] @a.go:1: boom (related: b.go:2)"
	if d.String() != want {
		t.Fatalf("String = %q, want %q", d.String(), want)
	}
	if SeverityInfo.String() != "INFO" || SeverityWarn.String() != "WARN" {
		t.Fatal("severity strings wrong")
	}
}

func TestModelsRegistry(t *testing.T) {
	m := Models()
	for _, name := range []string{"x86", "arm", "hops", "epoch"} {
		rs, ok := m[name]
		if !ok || rs.Name() != name {
			t.Fatalf("Models()[%q] = %v", name, rs)
		}
	}
}

// TestHOPSShadowHasNoFlushIntervals: the HOPS rule set never opens flush
// intervals (§5.2 removes them from the shadow memory).
func TestHOPSShadowHasNoFlushIntervals(t *testing.T) {
	s := NewState()
	rules := HOPS{}
	for _, op := range []trace.Op{write(0x10, 8), ofence(), write(0x20, 8), dfence()} {
		rules.Apply(s, op)
	}
	for _, e := range s.Shadow() {
		if e.HasFI {
			t.Fatalf("HOPS shadow has a flush interval at [0x%x,0x%x)", e.Lo, e.Hi)
		}
	}
}

// TestEpochDiffersFromHOPS: a plain fence drains under the epoch model
// but an ofence does not drain under HOPS — the two relaxed models are
// genuinely different rule sets.
func TestEpochDiffersFromHOPS(t *testing.T) {
	tr := mk(write(0x10, 8), ofence(), isPersist(0x10, 8))
	if r := CheckTrace(HOPS{}, tr); r.Fails() != 1 {
		t.Fatalf("HOPS ofence must not drain: %s", r.Summary())
	}
	if r := CheckTrace(Epoch{}, tr); r.Fails() != 0 {
		t.Fatalf("epoch barrier must drain: %s", r.Summary())
	}
}

// TestX86NestedCheckerScopes: a second TxCheckerStart while one is active
// warns but checking continues.
func TestX86NestedCheckerScopes(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		txCheckStart(),
		txCheckStart(),
		txBegin(),
		txAdd(0x100, 8),
		write(0x100, 8),
		flush(0x100, 8),
		fence(),
		txEnd(),
		txCheckEnd(),
	))
	if !r.HasCode(CodeUnbalancedTx) {
		t.Fatalf("nested checker scope must warn: %s", r.Summary())
	}
	if r.Fails() != 0 {
		t.Fatalf("checking should continue cleanly: %s", r.Summary())
	}
}

// TestWriteNTThenFlushWarnsDuplicate: an explicit clwb after a
// non-temporal store is redundant (the NT store already queued its
// writeback).
func TestWriteNTThenFlushWarnsDuplicate(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		trace.Op{Kind: trace.KindWriteNT, Addr: 0x10, Size: 8},
		flush(0x10, 8),
	))
	if !r.HasCode(CodeDuplicateWriteback) {
		t.Fatalf("clwb after NT store must warn: %s", r.Summary())
	}
}

// TestDiagnosticsCap: a pathological trace (one bug repeated endlessly)
// truncates at the cap with an explanatory INFO diagnostic, instead of
// ballooning the report.
func TestDiagnosticsCap(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 3000; i++ {
		ops = append(ops, flush(0x10, 8)) // unnecessary-writeback each time
	}
	r := CheckTrace(X86{}, mk(ops...))
	if len(r.Diags) > maxDiagsPerTrace+1 {
		t.Fatalf("diags = %d, want <= %d+1", len(r.Diags), maxDiagsPerTrace)
	}
	if !r.HasCode(CodeTruncated) {
		t.Fatal("missing truncation note")
	}
	if r.Ops != 3000 {
		t.Fatalf("Ops = %d, want 3000", r.Ops)
	}
}

// TestReportOpsCounted: reports carry the checked op count.
func TestReportOpsCounted(t *testing.T) {
	r := CheckTrace(X86{}, mk(write(0x10, 8), flush(0x10, 8), fence()))
	if r.Ops != 3 {
		t.Fatalf("Ops = %d, want 3", r.Ops)
	}
}

// TestARMModelMatchesX86Semantics: DC CVAP + DSB map onto the same
// interval rules as clwb + sfence; only the model name differs.
func TestARMModelMatchesX86Semantics(t *testing.T) {
	tr := mk(
		write(0x10, 64),
		flush(0x10, 64), // DC CVAP
		fence(),         // DSB
		write(0x50, 64),
		isPersist(0x10, 64),
		isPersist(0x50, 64),
		isOrdered(0x10, 64, 0x50, 64),
	)
	x86 := CheckTrace(X86{}, tr)
	arm := CheckTrace(ARM{}, tr)
	if x86.Fails() != arm.Fails() || x86.Warns() != arm.Warns() {
		t.Fatalf("ARM diverged from x86:\n%s\nvs\n%s", arm.Summary(), x86.Summary())
	}
	if (ARM{}).Name() != "arm" {
		t.Fatal("wrong model name")
	}
	if _, ok := Models()["arm"]; !ok {
		t.Fatal("arm missing from registry")
	}
}
