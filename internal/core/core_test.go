package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pmtest/internal/trace"
)

// mk builds a trace from ops for direct CheckTrace tests.
func mk(ops ...trace.Op) *trace.Trace { return &trace.Trace{Ops: ops} }

func write(addr, size uint64) trace.Op {
	return trace.Op{Kind: trace.KindWrite, Addr: addr, Size: size, File: "test.go", Line: 1}
}

func flush(addr, size uint64) trace.Op {
	return trace.Op{Kind: trace.KindFlush, Addr: addr, Size: size, File: "test.go", Line: 2}
}

func fence() trace.Op  { return trace.Op{Kind: trace.KindFence} }
func ofence() trace.Op { return trace.Op{Kind: trace.KindOFence} }
func dfence() trace.Op { return trace.Op{Kind: trace.KindDFence} }

func isPersist(addr, size uint64) trace.Op {
	return trace.Op{Kind: trace.KindIsPersist, Addr: addr, Size: size, File: "test.go", Line: 3}
}

func isOrdered(a, sa, b, sb uint64) trace.Op {
	return trace.Op{Kind: trace.KindIsOrderedBefore, Addr: a, Size: sa, Addr2: b, Size2: sb,
		File: "test.go", Line: 4}
}

func txBegin() trace.Op { return trace.Op{Kind: trace.KindTxBegin} }
func txEnd() trace.Op   { return trace.Op{Kind: trace.KindTxEnd} }

func txAdd(addr, size uint64) trace.Op {
	return trace.Op{Kind: trace.KindTxAdd, Addr: addr, Size: size, File: "test.go", Line: 5}
}

func txCheckStart() trace.Op { return trace.Op{Kind: trace.KindTxCheckerStart} }
func txCheckEnd() trace.Op   { return trace.Op{Kind: trace.KindTxCheckerEnd, File: "test.go", Line: 6} }

func exclude(addr, size uint64) trace.Op {
	return trace.Op{Kind: trace.KindExclude, Addr: addr, Size: size}
}

func include(addr, size uint64) trace.Op {
	return trace.Op{Kind: trace.KindInclude, Addr: addr, Size: size}
}

func codes(r Report) map[Code]int {
	m := map[Code]int{}
	for _, d := range r.Diags {
		m[d.Code]++
	}
	return m
}

// TestPaperFigure7 reproduces the worked example of paper Fig. 7: the
// isPersist on 0x50 must FAIL (no clwb was issued for it) and the
// isOrderedBefore must pass (0x10's persist interval (0,1) ends where
// 0x50's (1,∞) begins).
func TestPaperFigure7(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0x10, 64),
		flush(0x10, 64),
		fence(),
		write(0x50, 64),
		isPersist(0x50, 64),
		isOrdered(0x10, 64, 0x50, 64),
	))
	c := codes(r)
	if c[CodeNotPersisted] != 1 {
		t.Fatalf("want exactly 1 not-persisted FAIL, got %v", r.Summary())
	}
	if c[CodeOrderViolation] != 0 {
		t.Fatalf("isOrderedBefore should pass, got %v", r.Summary())
	}
	if r.Fails() != 1 {
		t.Fatalf("Fails = %d, want 1", r.Fails())
	}
}

// TestPaperFigure4 reproduces Fig. 4: A and B are written in the same
// epoch and only A is flushed, so their persist intervals overlap
// (isOrderedBefore FAILs) and B may never persist (isPersist FAILs).
func TestPaperFigure4(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		fence(),
		write(0xA0, 8),
		flush(0xA0, 8),
		write(0xB0, 8),
		fence(),
		isOrdered(0xA0, 8, 0xB0, 8),
		isPersist(0xB0, 8),
	))
	c := codes(r)
	if c[CodeOrderViolation] != 1 {
		t.Fatalf("want order-violation FAIL, got %v", r.Summary())
	}
	if c[CodeNotPersisted] != 1 {
		t.Fatalf("want not-persisted FAIL, got %v", r.Summary())
	}
}

// TestX86OrderedPass is the correct variant: flush+fence between the
// writes strictly orders them, and both checkers pass after a final fence.
func TestX86OrderedPass(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0xA0, 8),
		flush(0xA0, 8),
		fence(),
		write(0xB0, 8),
		flush(0xB0, 8),
		fence(),
		isOrdered(0xA0, 8, 0xB0, 8),
		isPersist(0xA0, 8),
		isPersist(0xB0, 8),
	))
	if !r.Clean() {
		t.Fatalf("expected clean report, got %v", r.Summary())
	}
}

// TestX86OrderedInverted: B persists strictly before A is even written, so
// "A ordered before B" must fail.
func TestX86OrderedInverted(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0xB0, 8),
		flush(0xB0, 8),
		fence(),
		write(0xA0, 8),
		flush(0xA0, 8),
		fence(),
		isOrdered(0xA0, 8, 0xB0, 8),
	))
	if codes(r)[CodeOrderViolation] != 1 {
		t.Fatalf("want order-violation, got %v", r.Summary())
	}
}

// TestX86PartialFlushStillFails: flushing only half the written range
// leaves an open persist interval on the other half.
func TestX86PartialFlushStillFails(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0x100, 128),
		flush(0x100, 64), // only the first cache line
		fence(),
		isPersist(0x100, 128),
	))
	if codes(r)[CodeNotPersisted] != 1 {
		t.Fatalf("want not-persisted for unflushed half, got %v", r.Summary())
	}
}

// TestX86FlushWithoutFenceNotPersistent: a clwb alone does not persist;
// only the fence completes it.
func TestX86FlushWithoutFenceNotPersistent(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0x10, 8),
		flush(0x10, 8),
		isPersist(0x10, 8),
	))
	if codes(r)[CodeNotPersisted] != 1 {
		t.Fatalf("clwb without sfence must not count as persisted: %v", r.Summary())
	}
}

// TestX86WriteNT: a non-temporal store needs only a fence.
func TestX86WriteNT(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		trace.Op{Kind: trace.KindWriteNT, Addr: 0x10, Size: 8},
		fence(),
		isPersist(0x10, 8),
	))
	if !r.Clean() {
		t.Fatalf("NT store + fence should persist, got %v", r.Summary())
	}
}

// TestX86RewriteReopensInterval: writing again after a persist reopens the
// persist interval, so isPersist fails until flushed+fenced again.
func TestX86RewriteReopensInterval(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0x10, 8),
		flush(0x10, 8),
		fence(),
		write(0x10, 8),
		isPersist(0x10, 8),
	))
	if codes(r)[CodeNotPersisted] != 1 {
		t.Fatalf("rewrite must reopen persist interval: %v", r.Summary())
	}
}

func TestWarnDuplicateWriteback(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0x10, 64),
		flush(0x10, 64),
		flush(0x10, 64),
	))
	if codes(r)[CodeDuplicateWriteback] != 1 {
		t.Fatalf("want duplicate-writeback WARN, got %v", r.Summary())
	}
	if r.Fails() != 0 {
		t.Fatalf("performance bug must be WARN not FAIL: %v", r.Summary())
	}
}

func TestWarnDuplicateWritebackAfterFence(t *testing.T) {
	// Flushing data that already persisted (no intervening write) is also
	// redundant — this is PMFS Bug 1's shape (paper Fig. 13a).
	r := CheckTrace(X86{}, mk(
		write(0x10, 64),
		flush(0x10, 64),
		fence(),
		flush(0x10, 64),
	))
	if codes(r)[CodeDuplicateWriteback] != 1 {
		t.Fatalf("want duplicate-writeback WARN, got %v", r.Summary())
	}
}

func TestWarnUnnecessaryWriteback(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		flush(0x900, 64),
	))
	if codes(r)[CodeUnnecessaryWriteback] != 1 {
		t.Fatalf("want unnecessary-writeback WARN, got %v", r.Summary())
	}
}

func TestNoWarnAfterWriteClearsFlushState(t *testing.T) {
	// write → flush → fence → write → flush: the second flush is needed
	// because the range was re-modified.
	r := CheckTrace(X86{}, mk(
		write(0x10, 64),
		flush(0x10, 64),
		fence(),
		write(0x10, 64),
		flush(0x10, 64),
		fence(),
		isPersist(0x10, 64),
	))
	if !r.Clean() {
		t.Fatalf("expected clean report, got %v", r.Summary())
	}
}

// TestCoarseFlushOfPartiallyModifiedRange: flushing a large buffer when
// only part was modified warns about writing back unmodified data
// (paper §5.1.2 "coarse-grain writeback").
func TestCoarseFlushOfPartiallyModifiedRange(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0x100, 16),
		flush(0x100, 256),
	))
	if codes(r)[CodeUnnecessaryWriteback] != 1 {
		t.Fatalf("want unnecessary-writeback WARN for the unmodified tail, got %v", r.Summary())
	}
}

// --- Transaction checkers -------------------------------------------------

func TestTxMissingBackup(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		txCheckStart(),
		txBegin(),
		txAdd(0x100, 64),
		write(0x100, 64), // backed up: fine
		write(0x200, 8),  // not backed up: missing TX_ADD (paper Fig. 1b)
		flush(0x100, 64),
		flush(0x200, 8),
		fence(),
		txEnd(),
		txCheckEnd(),
	))
	if codes(r)[CodeMissingBackup] != 1 {
		t.Fatalf("want missing-backup FAIL, got %v", r.Summary())
	}
}

func TestTxCompletePasses(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		txCheckStart(),
		txBegin(),
		txAdd(0x100, 64),
		write(0x100, 64),
		flush(0x100, 64),
		fence(),
		txEnd(),
		txCheckEnd(),
	))
	if !r.Clean() {
		t.Fatalf("expected clean, got %v", r.Summary())
	}
}

func TestTxIncomplete(t *testing.T) {
	// Updates are never flushed before the transaction ends → at
	// TX_CHECKER_END the injected isPersist fails (paper §5.1.1).
	r := CheckTrace(X86{}, mk(
		txCheckStart(),
		txBegin(),
		txAdd(0x100, 64),
		write(0x100, 64),
		txEnd(),
		txCheckEnd(),
	))
	if codes(r)[CodeIncompleteTx] != 1 {
		t.Fatalf("want incomplete-tx FAIL, got %v", r.Summary())
	}
}

func TestTxDuplicateLog(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		txCheckStart(),
		txBegin(),
		txAdd(0x100, 64),
		txAdd(0x100, 64), // paper Fig. 13c: same node logged twice
		write(0x100, 64),
		flush(0x100, 64),
		fence(),
		txEnd(),
		txCheckEnd(),
	))
	if codes(r)[CodeDuplicateLog] != 1 {
		t.Fatalf("want duplicate-log WARN, got %v", r.Summary())
	}
}

func TestTxLogClearedBetweenTransactions(t *testing.T) {
	// A TX_ADD in a *previous* transaction does not cover a later one.
	r := CheckTrace(X86{}, mk(
		txCheckStart(),
		txBegin(),
		txAdd(0x100, 64),
		write(0x100, 64),
		flush(0x100, 64),
		fence(),
		txEnd(),
		txBegin(),
		write(0x100, 64), // needs a fresh TX_ADD
		flush(0x100, 64),
		fence(),
		txEnd(),
		txCheckEnd(),
	))
	if codes(r)[CodeMissingBackup] != 1 {
		t.Fatalf("log must not carry across transactions: %v", r.Summary())
	}
}

func TestTxNestedDepth(t *testing.T) {
	// Log added in the outer transaction covers writes in the inner one;
	// the log is only discarded when the outermost commits.
	r := CheckTrace(X86{}, mk(
		txCheckStart(),
		txBegin(),
		txAdd(0x100, 64),
		txBegin(),
		write(0x100, 64),
		txEnd(),
		flush(0x100, 64),
		fence(),
		txEnd(),
		txCheckEnd(),
	))
	if !r.Clean() {
		t.Fatalf("expected clean, got %v", r.Summary())
	}
}

func TestExcludeSuppressesChecks(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		exclude(0x200, 8),
		txCheckStart(),
		txBegin(),
		write(0x200, 8), // excluded: no missing-backup, no injected isPersist
		txEnd(),
		txCheckEnd(),
	))
	if !r.Clean() {
		t.Fatalf("excluded range must be skipped, got %v", r.Summary())
	}
}

func TestIncludeRestoresChecks(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		exclude(0x200, 8),
		include(0x200, 8),
		txCheckStart(),
		txBegin(),
		write(0x200, 8),
		txEnd(),
		txCheckEnd(),
	))
	c := codes(r)
	if c[CodeMissingBackup] != 1 || c[CodeIncompleteTx] != 1 {
		t.Fatalf("re-included range must be checked again, got %v", r.Summary())
	}
}

func TestUnbalancedTxWarns(t *testing.T) {
	r := CheckTrace(X86{}, mk(txEnd()))
	if codes(r)[CodeUnbalancedTx] != 1 {
		t.Fatalf("want unbalanced-tx WARN, got %v", r.Summary())
	}
	r = CheckTrace(X86{}, mk(txCheckEnd()))
	if codes(r)[CodeUnbalancedTx] != 1 {
		t.Fatalf("want unbalanced-tx WARN for stray checker end, got %v", r.Summary())
	}
	r = CheckTrace(X86{}, mk(txCheckStart()))
	if codes(r)[CodeUnbalancedTx] != 1 {
		t.Fatalf("want unbalanced-tx WARN for unclosed checker scope, got %v", r.Summary())
	}
}

// --- HOPS model (paper §5.2, Fig. 3b) --------------------------------------

func TestHOPSFigure3b(t *testing.T) {
	r := CheckTrace(HOPS{}, mk(
		write(0xA0, 8),
		ofence(),
		write(0xB0, 8),
		dfence(),
		isOrdered(0xA0, 8, 0xB0, 8),
		isPersist(0xA0, 8),
		isPersist(0xB0, 8),
	))
	if !r.Clean() {
		t.Fatalf("Fig. 3b trace should pass under HOPS, got %v", r.Summary())
	}
}

func TestHOPSMissingOFence(t *testing.T) {
	r := CheckTrace(HOPS{}, mk(
		write(0xA0, 8),
		write(0xB0, 8), // same epoch: not ordered
		dfence(),
		isOrdered(0xA0, 8, 0xB0, 8),
	))
	if codes(r)[CodeOrderViolation] != 1 {
		t.Fatalf("same-epoch writes are unordered under HOPS: %v", r.Summary())
	}
}

func TestHOPSOFenceDoesNotPersist(t *testing.T) {
	r := CheckTrace(HOPS{}, mk(
		write(0xA0, 8),
		ofence(),
		isPersist(0xA0, 8),
	))
	if codes(r)[CodeNotPersisted] != 1 {
		t.Fatalf("ofence orders but does not drain: %v", r.Summary())
	}
}

func TestHOPSFlushWarns(t *testing.T) {
	r := CheckTrace(HOPS{}, mk(
		write(0xA0, 8),
		flush(0xA0, 8),
	))
	if codes(r)[CodeUnnecessaryWriteback] != 1 {
		t.Fatalf("clwb is unnecessary under HOPS: %v", r.Summary())
	}
}

// --- Epoch model (extension) ------------------------------------------------

func TestEpochBarrierOrdersAndDrains(t *testing.T) {
	r := CheckTrace(Epoch{}, mk(
		write(0xA0, 8),
		fence(),
		write(0xB0, 8),
		fence(),
		isOrdered(0xA0, 8, 0xB0, 8),
		isPersist(0xA0, 8),
		isPersist(0xB0, 8),
	))
	if !r.Clean() {
		t.Fatalf("expected clean under epoch model, got %v", r.Summary())
	}
}

func TestEpochSameEpochUnordered(t *testing.T) {
	r := CheckTrace(Epoch{}, mk(
		write(0xA0, 8),
		write(0xB0, 8),
		fence(),
		isOrdered(0xA0, 8, 0xB0, 8),
	))
	if codes(r)[CodeOrderViolation] != 1 {
		t.Fatalf("same-epoch writes unordered: %v", r.Summary())
	}
}

// --- Diagnostics content ----------------------------------------------------

func TestDiagnosticSitesPointAtSources(t *testing.T) {
	r := CheckTrace(X86{}, mk(
		write(0x10, 8), // test.go:1
		isPersist(0x10, 8),
	))
	if len(r.Diags) != 1 {
		t.Fatalf("want 1 diag, got %v", r.Summary())
	}
	d := r.Diags[0]
	if d.Site != "test.go:3" {
		t.Errorf("Site = %q, want test.go:3 (the checker)", d.Site)
	}
	if d.Related != "test.go:1" {
		t.Errorf("Related = %q, want test.go:1 (the write)", d.Related)
	}
	if d.OpIndex != 1 {
		t.Errorf("OpIndex = %d, want 1", d.OpIndex)
	}
}

// --- Engine (worker pool) ---------------------------------------------------

func TestEngineRoundRobinAllChecked(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := NewEngine(Options{Workers: workers})
		const n = 50
		for i := 0; i < n; i++ {
			e.Submit(mk(
				write(0x10, 8),
				isPersist(0x10, 8), // always fails
			))
		}
		reports := e.Close()
		if len(reports) != n {
			t.Fatalf("workers=%d: got %d reports, want %d", workers, len(reports), n)
		}
		for i, r := range reports {
			if r.TraceID != i {
				t.Fatalf("reports not in trace order: got id %d at %d", r.TraceID, i)
			}
			if r.Fails() != 1 {
				t.Fatalf("trace %d: fails = %d, want 1", i, r.Fails())
			}
		}
	}
}

func TestEngineWaitThenSubmitMore(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	e.Submit(mk(write(0x10, 8), flush(0x10, 8), fence(), isPersist(0x10, 8)))
	if got := e.Wait(); len(got) != 1 || !got[0].Clean() {
		t.Fatalf("first wait: %v", got)
	}
	e.Submit(mk(write(0x20, 8), isPersist(0x20, 8)))
	reports := e.Close()
	if len(reports) != 2 || reports[1].Fails() != 1 {
		t.Fatalf("second batch: %v", reports)
	}
}

// TestEngineReportsIndexedByTraceID: with four workers finishing out of
// submission order, every report sits at index TraceID in Wait.
func TestEngineReportsIndexedByTraceID(t *testing.T) {
	e := NewEngine(Options{Workers: 4})
	defer e.Close()
	const n = 200
	// Sizes vary so workers finish out of order; the op count and the
	// number of failing checkers identify the trace in its report.
	size := func(i int) int { return 1 + (i*37)%300 }
	for i := 0; i < n; i++ {
		ops := make([]trace.Op, 0, size(i)+i%3)
		for j := 0; j < size(i); j++ {
			ops = append(ops, write(uint64(j)*64, 8))
		}
		for j := 0; j < i%3; j++ {
			ops = append(ops, isPersist(uint64(j)*64, 8))
		}
		e.Submit(mk(ops...))
	}
	reports := e.Wait()
	if len(reports) != n {
		t.Fatalf("got %d reports, want %d", len(reports), n)
	}
	for i, r := range reports {
		if r.TraceID != i || r.Ops != size(i)+i%3 || r.Fails() != i%3 {
			t.Fatalf("report at %d: id %d, %d ops, %d fails; want id %d, %d ops, %d fails",
				i, r.TraceID, r.Ops, r.Fails(), i, size(i)+i%3, i%3)
		}
	}
}

func TestEngineTrackOnlyReportsNothing(t *testing.T) {
	e := NewEngine(Options{TrackOnly: true})
	e.Submit(mk(write(0x10, 8), isPersist(0x10, 8)))
	reports := e.Close()
	if len(reports) != 1 || !reports[0].Clean() {
		t.Fatalf("track-only must not validate checkers: %v", reports)
	}
}

func TestEngineSubmitAfterClosePanics(t *testing.T) {
	e := NewEngine(Options{})
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Close should panic")
		}
	}()
	e.Submit(mk(write(0x10, 8)))
}

func TestMergeAndCount(t *testing.T) {
	r1 := CheckTrace(X86{}, mk(write(0x10, 8), isPersist(0x10, 8)))
	r2 := CheckTrace(X86{}, mk(flush(0x99, 8)))
	all := MergeReports([]Report{r1, r2})
	if len(all) != 2 {
		t.Fatalf("merged = %d, want 2", len(all))
	}
	if CountCode([]Report{r1, r2}, CodeNotPersisted) != 1 {
		t.Fatal("CountCode(not-persisted) != 1")
	}
	if CountCode([]Report{r1, r2}, CodeUnnecessaryWriteback) != 1 {
		t.Fatal("CountCode(unnecessary-writeback) != 1")
	}
}

// --- Property tests ---------------------------------------------------------

// TestQuickFlushedFencedAlwaysPersists: whatever the prefix of random PM
// operations, flushing every written range and fencing makes isPersist
// pass — the fundamental soundness direction of the x86 rules.
func TestQuickFlushedFencedAlwaysPersists(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var ops []trace.Op
		written := map[uint64]bool{}
		for i := 0; i < int(n%40); i++ {
			addr := uint64(rng.Intn(16)) * 64
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, write(addr, 64))
				written[addr] = true
			case 1:
				if written[addr] {
					ops = append(ops, flush(addr, 64))
				}
			case 2:
				ops = append(ops, fence())
			}
		}
		// Epilogue: flush everything written, fence, then check.
		for addr := range written {
			ops = append(ops, flush(addr, 64))
		}
		ops = append(ops, fence())
		for addr := range written {
			ops = append(ops, isPersist(addr, 64))
		}
		r := CheckTrace(X86{}, mk(ops...))
		return r.Fails() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNoFenceNeverPersists: without any fence, isPersist on a written
// range always fails, regardless of flushes.
func TestQuickNoFenceNeverPersists(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var ops []trace.Op
		addr := uint64(rng.Intn(8)) * 64
		ops = append(ops, write(addr, 64))
		for i := 0; i < int(n%20); i++ {
			a := uint64(rng.Intn(8)) * 64
			if rng.Intn(2) == 0 {
				ops = append(ops, write(a, 64))
			} else {
				ops = append(ops, flush(a, 64))
			}
		}
		ops = append(ops, isPersist(addr, 64))
		r := CheckTrace(X86{}, mk(ops...))
		return CountCode([]Report{r}, CodeNotPersisted) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEngineMatchesInline: the concurrent engine must produce exactly
// the verdicts of the pure CheckTrace function.
func TestQuickEngineMatchesInline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var traces []*trace.Trace
		for i := 0; i < 8; i++ {
			var ops []trace.Op
			for j := 0; j < 20; j++ {
				addr := uint64(rng.Intn(8)) * 64
				switch rng.Intn(5) {
				case 0:
					ops = append(ops, write(addr, 64))
				case 1:
					ops = append(ops, flush(addr, 64))
				case 2:
					ops = append(ops, fence())
				case 3:
					ops = append(ops, isPersist(addr, 64))
				case 4:
					ops = append(ops, isOrdered(addr, 64, (addr+64)%512, 64))
				}
			}
			traces = append(traces, mk(ops...))
		}
		var want []Report
		for i, tr := range traces {
			cp := &trace.Trace{ID: i, Ops: tr.Ops}
			want = append(want, CheckTrace(X86{}, cp))
		}
		e := NewEngine(Options{Workers: 3})
		for _, tr := range traces {
			e.Submit(tr)
		}
		got := e.Close()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Fails() != want[i].Fails() || got[i].Warns() != want[i].Warns() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestShadowDump(t *testing.T) {
	s := NewState()
	rules := X86{}
	for _, op := range []trace.Op{write(0x10, 64), flush(0x10, 64), fence(), write(0x50, 64)} {
		rules.Apply(s, op)
	}
	sh := s.Shadow()
	if len(sh) != 2 {
		t.Fatalf("shadow entries = %d, want 2", len(sh))
	}
	if sh[0].PI.Open() || sh[0].PI.End != 1 {
		t.Errorf("first PI = %v, want closed at 1", sh[0].PI)
	}
	if !sh[1].PI.Open() {
		t.Errorf("second PI = %v, want open", sh[1].PI)
	}
}
