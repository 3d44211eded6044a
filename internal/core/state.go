package core

import (
	"fmt"

	"pmtest/internal/interval"
	"pmtest/internal/trace"
)

// Inf marks an interval that has not been closed by a fence: the write may
// persist at any time moving forward (paper §4.4).
const Inf = ^uint64(0)

// EpochInterval is the (start, end] epoch range in which an event (persist
// or writeback) may take effect. End == Inf means the event is never
// guaranteed to happen within the trace.
type EpochInterval struct {
	Start uint64
	End   uint64
}

// Open reports whether the interval has not been closed by a fence.
func (e EpochInterval) Open() bool { return e.End == Inf }

// Overlaps reports whether two persist intervals overlap, meaning the two
// events are not strictly ordered. Touching intervals — one ending exactly
// where the other starts — do NOT overlap: in the paper's Fig. 7, PI(0,1)
// and PI(1,∞) are ordered.
func (e EpochInterval) Overlaps(o EpochInterval) bool {
	return e.Start < o.End && o.Start < e.End
}

// String renders "(s,e)" with ∞ for open ends, matching the paper.
func (e EpochInterval) String() string {
	if e.Open() {
		return fmt.Sprintf("(%d,∞)", e.Start)
	}
	return fmt.Sprintf("(%d,%d)", e.Start, e.End)
}

// status is the per-range persistency status stored in the shadow memory:
// the local state of §4.4 (persist_interval, flush_interval) plus the
// source site of the last write for diagnostics.
type status struct {
	PI    EpochInterval // when the last write to the range may persist
	HasPI bool
	FI    EpochInterval // when a pending writeback may take effect
	HasFI bool
	// WriteSite locates the store that created the persist interval, so a
	// failing isPersist can point back at the unpersisted write.
	WriteSite string
}

// logInfo is the per-range value of the log tree (§5.1.1): where the range
// was TX_ADDed, so duplicate-log warnings can cite the first backup.
type logInfo struct {
	Site string
}

// writeInfo records a range modified inside a checked transaction, used by
// TX_CHECKER_END to inject isPersist checks for every modified object.
type writeInfo struct {
	Site string
}

// State is the checking state for a single trace: one shadow memory, one
// global timestamp, the transaction log tree, and the accumulated
// diagnostics. Each trace gets a fresh State (§4.4: "every trace has its
// shadow memory").
type State struct {
	// T is the global epoch counter, incremented at every ordering fence.
	T uint64
	// Mem is the shadow memory: address range → persistency status.
	Mem *interval.Map[status]
	// Log tracks ranges backed up by TX_ADD inside the current
	// outermost transaction.
	Log *interval.Map[logInfo]
	// Written tracks ranges modified inside the active TX_CHECKER scope.
	Written *interval.Map[writeInfo]
	// Excluded holds ranges removed from the testing scope
	// (PMTest_EXCLUDE); automatic checks and warnings skip them.
	Excluded *interval.Map[struct{}]

	// TxDepth is the current transaction nesting depth.
	TxDepth int
	// TxCheckActive is set between TX_CHECKER_START and TX_CHECKER_END.
	TxCheckActive bool

	diags   []Diagnostic
	opIndex int
	// diagKey is stamped into the sortKey of every diagnostic reported
	// while it is set; applyTxCheckerEnd sets it to the written segment's
	// address so the sharded merge can reconstruct emission order.
	diagKey uint64
	// muted suppresses warnings about trace-global structure (unbalanced
	// tx/checker scopes). In a sharded check every stripe replays those
	// broadcast ops; only stripe 0 may report them, or the merged report
	// would repeat each warning once per stripe.
	muted bool

	// Epoch GC (sharded streaming mode): when gcOn, each fence retires
	// shadow-memory segments whose persist and flush intervals both closed
	// at least gcLag epochs ago — no future op or checker can change or
	// observe anything about them except via warnings on re-flush, which
	// gcLag epochs of slack make vanishingly unlikely in real traces.
	gcOn      bool
	gcLag     uint64
	gcRetired uint64
	// peakIntervals is the high-water mark of Mem.Len() sampled at fences.
	peakIntervals int

	// Scratch buffers for the persist intervals of isOrderedBefore's two
	// operands, reused from one call to the next (and, via the state
	// pool, across traces) so that the checker allocates no slice.
	segScratch  []interval.Seg[status]
	segScratch2 []interval.Seg[status]
}

// NewState returns the empty checking state for a fresh trace.
func NewState() *State {
	return &State{
		Mem:      interval.NewMap[status](),
		Log:      interval.NewMap[logInfo](),
		Written:  interval.NewMap[writeInfo](),
		Excluded: interval.NewMap[struct{}](),
	}
}

// Reset returns the state to its freshly-constructed condition while
// keeping allocated capacity — segment slices, treaps with their node
// freelists, and scratch buffers — so a pooled State checks its next
// trace without reallocating. The diagnostics slice is detached, not
// truncated: the previous trace's Report owns it.
func (s *State) Reset() {
	s.T = 0
	s.Mem.Clear()
	s.Log.Clear()
	s.Written.Clear()
	s.Excluded.Clear()
	s.TxDepth = 0
	s.TxCheckActive = false
	s.diags = nil
	s.opIndex = 0
	s.diagKey = 0
	s.muted = false
	s.gcOn = false
	s.gcLag = 0
	s.gcRetired = 0
	s.peakIntervals = 0
}

// fence runs a fence that completes persists (x86's sfence, the drain of
// HOPS and Epoch): it starts the next epoch, samples the shadow-memory
// high-water mark, and applies closing, the model's interval-closing
// rule, to every segment in one pass. With epoch GC on,
// the same pass retires the segments all of whose intervals ended at
// least gcLag epochs before the new one: no later fence will move them,
// and checkers only fail on open intervals.
func (s *State) fence(closing func(st *status)) {
	s.T++
	s.peakIntervals = max(s.peakIntervals, s.Mem.Len())
	if !s.gcOn || s.T < s.gcLag {
		s.Mem.ForEachPtr(func(_, _ uint64, st *status) { closing(st) })
		return
	}
	horizon := s.T - s.gcLag
	retired := s.Mem.Retain(func(_, _ uint64, st *status) bool {
		closing(st)
		return st.HasPI && (st.PI.Open() || st.PI.End > horizon) ||
			st.HasFI && (st.FI.Open() || st.FI.End > horizon)
	})
	s.gcRetired += uint64(retired)
}

// report appends a diagnostic anchored at the current operation.
func (s *State) report(sev Severity, code Code, site, related, format string, args ...any) {
	if s.diags == nil {
		// Most traces are clean; size the first growth for the common
		// several-findings case instead of the append 1→2→4 ramp.
		s.diags = make([]Diagnostic, 0, 8)
	}
	s.diags = append(s.diags, Diagnostic{
		Severity: sev,
		Code:     code,
		Message:  fmt.Sprintf(format, args...),
		Site:     site,
		Related:  related,
		OpIndex:  s.opIndex,
		sortKey:  s.diagKey,
	})
}

// excluded reports whether the whole range is inside the excluded scope.
func (s *State) excluded(lo, hi uint64) bool {
	return s.Excluded.Covered(lo, hi)
}

// --- Shared operation semantics -------------------------------------------
//
// The handlers below implement the parts of §4.4 and §5.1 that are common
// to all persistency models: how writes open persist intervals, how the
// transaction log tree is maintained, and how the two low-level checkers
// and the transaction checkers are validated. Model-specific behaviour
// (what clwb and the fences do) lives in the RuleSet implementations.

// applyWrite clears any prior status for the range and opens a fresh
// persist interval starting at the current epoch. When ntFlushed is true
// (non-temporal store) the write also carries an open flush interval: it
// bypasses the cache and only awaits a fence.
func (s *State) applyWrite(op trace.Op, ntFlushed bool) {
	lo, hi := op.Addr, op.Addr+op.Size
	site := opSite(op) // formatted once: with sites captured, each call allocates
	if s.TxCheckActive && s.TxDepth > 0 && !s.excluded(lo, hi) {
		// §5.1.1: inside a checked transaction every modified range must
		// already be in the log tree.
		if !s.Log.Covered(lo, hi) {
			for _, g := range s.Log.Gaps(lo, hi) {
				if s.excluded(g.Lo, g.Hi) {
					continue
				}
				s.report(SeverityFail, CodeMissingBackup, site, "",
					"modifying [0x%x,0x%x) without a log backup (missing TX_ADD)", g.Lo, g.Hi)
				break // one finding per write is enough
			}
		}
	}
	if s.TxCheckActive {
		s.Written.Set(lo, hi, writeInfo{Site: site})
	}
	st := status{
		PI:        EpochInterval{Start: s.T, End: Inf},
		HasPI:     true,
		WriteSite: site,
	}
	if ntFlushed {
		st.FI = EpochInterval{Start: s.T, End: Inf}
		st.HasFI = true
	}
	s.Mem.Set(lo, hi, st)
}

// applyTxBegin/applyTxEnd maintain nesting depth; the log tree lives for
// the duration of the outermost transaction.
func (s *State) applyTxBegin(op trace.Op) {
	s.TxDepth++
}

func (s *State) applyTxEnd(op trace.Op) {
	if s.TxDepth == 0 {
		if !s.muted {
			s.report(SeverityWarn, CodeUnbalancedTx, opSite(op), "",
				"transaction end without matching begin")
		}
		return
	}
	s.TxDepth--
	if s.TxDepth == 0 {
		// The undo log is discarded when the outermost transaction
		// commits; backups do not carry across transactions.
		s.Log.Clear()
	}
}

// applyTxAdd records an undo-log backup and warns on duplicates (§5.1.2:
// "Check Duplicated Log").
func (s *State) applyTxAdd(op trace.Op) {
	lo, hi := op.Addr, op.Addr+op.Size
	if s.TxCheckActive && !s.excluded(lo, hi) {
		var firstSite string
		s.Log.Visit(lo, hi, func(seg interval.Seg[logInfo]) bool {
			firstSite = seg.Val.Site
			return false
		})
		if firstSite != "" {
			s.report(SeverityWarn, CodeDuplicateLog, opSite(op), firstSite,
				"object [0x%x,0x%x) already logged in this transaction", lo, hi)
		}
	}
	s.Log.Set(lo, hi, logInfo{Site: opSite(op)})
}

// applyTxCheckerStart opens a transaction-checker scope (§5.1.1).
func (s *State) applyTxCheckerStart(op trace.Op) {
	if s.TxCheckActive && !s.muted {
		s.report(SeverityWarn, CodeUnbalancedTx, opSite(op), "",
			"TX_CHECKER_START while a checker scope is already active")
	}
	s.TxCheckActive = true
	s.Written.Clear()
}

// applyTxCheckerEnd injects an isPersist check for every range modified in
// the scope (§5.1.1: "Check Incomplete Transactions") and closes the scope.
func (s *State) applyTxCheckerEnd(op trace.Op) {
	if !s.TxCheckActive {
		if !s.muted {
			s.report(SeverityWarn, CodeUnbalancedTx, opSite(op), "",
				"TX_CHECKER_END without matching TX_CHECKER_START")
		}
		return
	}
	s.Written.Visit(0, ^uint64(0), func(seg interval.Seg[writeInfo]) bool {
		if !s.excluded(seg.Lo, seg.Hi) {
			// Key each injected check by the written segment's address:
			// the merge of per-stripe diagnostics sorts by this key,
			// reproducing the serial address-order walk.
			s.diagKey = seg.Lo
			s.checkPersistRange(seg.Lo, seg.Hi, op, CodeIncompleteTx)
		}
		return true
	})
	s.diagKey = 0
	s.TxCheckActive = false
	s.Written.Clear()
}

// applyExclude / applyInclude adjust the testing scope (Table 2).
func (s *State) applyExclude(op trace.Op) {
	s.Excluded.Set(op.Addr, op.Addr+op.Size, struct{}{})
}

func (s *State) applyInclude(op trace.Op) {
	s.Excluded.Delete(op.Addr, op.Addr+op.Size)
}

// checkPersistRange validates that every persist interval in [lo, hi) has
// been closed by a fence — the isPersist rule of §4.4. code distinguishes
// a user-placed checker (CodeNotPersisted) from the injected transaction
// check (CodeIncompleteTx).
func (s *State) checkPersistRange(lo, hi uint64, op trace.Op, code Code) {
	s.Mem.Visit(lo, hi, func(seg interval.Seg[status]) bool {
		if seg.Val.HasPI && seg.Val.PI.Open() {
			s.report(SeverityFail, code, opSite(op), seg.Val.WriteSite,
				"[0x%x,0x%x) may not be persistent: persist interval %s never ends",
				seg.Lo, seg.Hi, seg.Val.PI)
			return false // one finding per checker
		}
		return true
	})
}

// applyIsPersist handles the isPersist checker.
func (s *State) applyIsPersist(op trace.Op) {
	s.checkPersistRange(op.Addr, op.Addr+op.Size, op, CodeNotPersisted)
}

// persistIntervals appends the persist intervals (and their write sites)
// overlapping [lo, hi) to dst, which callers recycle as scratch.
func (s *State) persistIntervals(dst []interval.Seg[status], lo, hi uint64) []interval.Seg[status] {
	s.Mem.Visit(lo, hi, func(seg interval.Seg[status]) bool {
		if seg.Val.HasPI {
			dst = append(dst, seg)
		}
		return true
	})
	return dst
}

// applyIsOrderedBefore handles the isOrderedBefore checker. Under a strict
// model (x86) interval *ends* must precede interval *starts*; under a
// relaxed, fence-ordered model (HOPS) interval starts are compared
// (§4.4 vs §5.2). byStart selects the latter.
func (s *State) applyIsOrderedBefore(op trace.Op, byStart bool) {
	s.segScratch = s.persistIntervals(s.segScratch[:0], op.Addr, op.Addr+op.Size)
	s.segScratch2 = s.persistIntervals(s.segScratch2[:0], op.Addr2, op.Addr2+op.Size2)
	s.orderedBeforeSegs(op, byStart, s.segScratch, s.segScratch2)
}

// orderedBeforeSegs is the comparison core of applyIsOrderedBefore,
// operating on pre-gathered persist intervals. The sharded coordinator
// calls it directly when the two operand ranges live on different
// stripes: the segments come from two stripes' shadow memories while the
// diagnostic lands on the coordinator's own state.
func (s *State) orderedBeforeSegs(op trace.Op, byStart bool, as, bs []interval.Seg[status]) {
	for _, a := range as {
		for _, b := range bs {
			if byStart {
				if a.Val.PI.Start >= b.Val.PI.Start {
					s.report(SeverityFail, CodeOrderViolation, opSite(op), a.Val.WriteSite,
						"[0x%x,0x%x) %s does not begin persisting before [0x%x,0x%x) %s",
						a.Lo, a.Hi, a.Val.PI, b.Lo, b.Hi, b.Val.PI)
					return
				}
				continue
			}
			if a.Val.PI.Overlaps(b.Val.PI) || a.Val.PI.Start >= b.Val.PI.End || a.Val.PI.Open() {
				s.report(SeverityFail, CodeOrderViolation, opSite(op), a.Val.WriteSite,
					"persist intervals overlap: [0x%x,0x%x) %s vs [0x%x,0x%x) %s — writes may reorder",
					a.Lo, a.Hi, a.Val.PI, b.Lo, b.Hi, b.Val.PI)
				return
			}
		}
	}
}
