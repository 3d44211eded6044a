package core

import (
	"pmtest/internal/trace"
)

// RuleSet defines the checking rules for one persistency model (§4.4,
// §5.2): how each traced operation updates the persistency status and how
// checkers are validated. New models plug in by implementing RuleSet.
type RuleSet interface {
	// Name identifies the model in diagnostics and reports.
	Name() string
	// Apply processes one trace operation against the state.
	Apply(s *State, op trace.Op)
}

// dispatchCommon handles the operations whose semantics are shared by all
// models (transactions, checkers other than isOrderedBefore, scope
// control). It returns false if the op was not one of those.
func dispatchCommon(s *State, op trace.Op) bool {
	switch op.Kind {
	case trace.KindTxBegin:
		s.applyTxBegin(op)
	case trace.KindTxEnd:
		s.applyTxEnd(op)
	case trace.KindTxAdd:
		s.applyTxAdd(op)
	case trace.KindTxCheckerStart:
		s.applyTxCheckerStart(op)
	case trace.KindTxCheckerEnd:
		s.applyTxCheckerEnd(op)
	case trace.KindExclude:
		s.applyExclude(op)
	case trace.KindInclude:
		s.applyInclude(op)
	case trace.KindIsPersist:
		s.applyIsPersist(op)
	default:
		return false
	}
	return true
}

// X86 implements the strict x86 persistency model of §4.4: clwb opens a
// flush interval, sfence increments the epoch and completes prior flushes
// (closing both the flush interval and the associated persist interval).
type X86 struct{}

// Name implements RuleSet.
func (X86) Name() string { return "x86" }

// Apply implements RuleSet.
func (X86) Apply(s *State, op trace.Op) {
	if dispatchCommon(s, op) {
		return
	}
	switch op.Kind {
	case trace.KindWrite:
		s.applyWrite(op, false)
	case trace.KindWriteNT:
		// Non-temporal stores bypass the cache: the write behaves as if a
		// writeback were already pending, needing only a fence.
		s.applyWrite(op, true)
	case trace.KindFlush:
		x86Flush(s, op)
	case trace.KindFence, trace.KindDFence:
		// A dfence in an x86 trace degrades to the stronger sfence.
		x86Fence(s)
	case trace.KindOFence:
		// x86 has no ordering-only fence; sfence semantics apply.
		x86Fence(s)
	case trace.KindIsOrderedBefore:
		s.applyIsOrderedBefore(op, false)
	}
}

// x86Flush opens a flush interval for the range and raises the two
// performance warnings of §5.1.2: flushing unmodified data and flushing
// the same data twice. It edits the shadow memory in place: Update hands
// it each stored piece of the range and each never-written gap, in
// address order, and keeps what it sets there.
func x86Flush(s *State, op trace.Op) {
	lo, hi := op.Addr, op.Addr+op.Size
	quiet := s.excluded(lo, hi)
	warned := false
	s.Mem.Update(lo, hi, func(lo, hi uint64, st *status) {
		if !warned && !quiet && !s.excluded(lo, hi) {
			switch {
			case st.HasFI:
				// A writeback is already pending or completed since the
				// last write: this clwb is redundant.
				s.report(SeverityWarn, CodeDuplicateWriteback, opSite(op), st.WriteSite,
					"range [0x%x,0x%x) already written back (flush interval %s)",
					lo, hi, st.FI)
				warned = true
			case !st.HasPI:
				// Stored segments carry a persist or a flush interval, so
				// this is a gap: a range never written (and never
				// flushed), whose writeback is unnecessary.
				s.report(SeverityWarn, CodeUnnecessaryWriteback, opSite(op), "",
					"writeback of never-written range [0x%x,0x%x)", lo, hi)
				warned = true
			}
		}
		// Gaps record the flush too, so a second flush of the same
		// unwritten range reports "duplicate" rather than repeating
		// "unnecessary".
		st.FI = EpochInterval{Start: s.T, End: Inf}
		st.HasFI = true
	})
}

// x86Fence implements sfence: increment the global timestamp, then close
// every open flush interval at the new epoch — and with it, the persist
// interval of each flushed range (§4.4).
func x86Fence(s *State) {
	s.fence(func(st *status) {
		if st.HasFI && st.FI.Open() {
			st.FI.End = s.T
			if st.HasPI && st.PI.Open() {
				st.PI.End = s.T
			}
		}
	})
}

// HOPS implements the relaxed model of §5.2 (hands-off persistence
// system): ofence orders persists without writing back; dfence both orders
// and drains. There are no flush intervals.
type HOPS struct{}

// Name implements RuleSet.
func (HOPS) Name() string { return "hops" }

// Apply implements RuleSet.
func (HOPS) Apply(s *State, op trace.Op) {
	if dispatchCommon(s, op) {
		return
	}
	switch op.Kind {
	case trace.KindWrite, trace.KindWriteNT:
		s.applyWrite(op, false)
	case trace.KindFlush:
		// HOPS needs no explicit writebacks; a clwb in the trace is
		// redundant by definition.
		if !s.excluded(op.Addr, op.Addr+op.Size) {
			s.report(SeverityWarn, CodeUnnecessaryWriteback, opSite(op), "",
				"explicit writeback is unnecessary under the HOPS model")
		}
	case trace.KindOFence:
		// Ordering only: a new epoch begins but nothing is guaranteed
		// durable.
		s.T++
	case trace.KindDFence, trace.KindFence:
		// Durability fence: new epoch, and all prior writes are persisted.
		// A plain sfence in a HOPS trace is treated as the stronger fence.
		hopsDrain(s)
	case trace.KindIsOrderedBefore:
		// Fences already order persists; compare interval starts (§5.2).
		s.applyIsOrderedBefore(op, true)
	}
}

// hopsDrain implements a durability fence: a new epoch, by which every
// earlier write has persisted.
func hopsDrain(s *State) {
	s.fence(func(st *status) {
		if st.HasPI && st.PI.Open() {
			st.PI.End = s.T
		}
	})
}

// Epoch implements a third, illustrative model in the spirit of epoch
// persistency (BPFS-style): a persist barrier ends the epoch, orders all
// earlier writes before all later ones, and guarantees earlier epochs
// drain before the next barrier completes. It demonstrates that RuleSet
// extension requires only new fence semantics (§5.2's claim).
type Epoch struct{}

// Name implements RuleSet.
func (Epoch) Name() string { return "epoch" }

// Apply implements RuleSet.
func (Epoch) Apply(s *State, op trace.Op) {
	if dispatchCommon(s, op) {
		return
	}
	switch op.Kind {
	case trace.KindWrite, trace.KindWriteNT:
		s.applyWrite(op, false)
	case trace.KindFlush:
		// Epoch hardware tracks dirty lines itself; explicit writebacks
		// are legal but pointless.
	case trace.KindFence, trace.KindOFence, trace.KindDFence:
		// A barrier closes the epoch: every write of the previous epoch is
		// ordered before (and drained by) the barrier.
		hopsDrain(s)
	case trace.KindIsOrderedBefore:
		s.applyIsOrderedBefore(op, true)
	}
}

// Models returns the built-in rule sets by name; used by the CLI tools.
func Models() map[string]RuleSet {
	return map[string]RuleSet{
		"x86":   X86{},
		"arm":   ARM{},
		"hops":  HOPS{},
		"epoch": Epoch{},
	}
}

// ShadowEntry is a read-only view of one shadow-memory segment, used by
// cmd/pmtrace to visualize persist intervals like the paper's Fig. 7.
type ShadowEntry struct {
	Lo, Hi    uint64
	PI        EpochInterval
	HasPI     bool
	FI        EpochInterval
	HasFI     bool
	WriteSite string
}

// Shadow returns the current shadow-memory contents in address order.
func (s *State) Shadow() []ShadowEntry {
	var out []ShadowEntry
	for _, seg := range s.Mem.All() {
		out = append(out, ShadowEntry{
			Lo: seg.Lo, Hi: seg.Hi,
			PI: seg.Val.PI, HasPI: seg.Val.HasPI,
			FI: seg.Val.FI, HasFI: seg.Val.HasFI,
			WriteSite: seg.Val.WriteSite,
		})
	}
	return out
}

// ARM implements the ARMv8.2 persistency primitives the paper cites
// (§2.1): DC CVAP cleans a cache line to the point of persistence
// (the role clwb plays on x86) and DSB orders and completes those cleans
// (the role of sfence). The interval semantics coincide with the x86
// rules; the separate rule set exists so traces and diagnostics carry the
// right model name and so ISA-specific divergence has a home if it ever
// appears.
type ARM struct{ X86 }

// Name implements RuleSet.
func (ARM) Name() string { return "arm" }
