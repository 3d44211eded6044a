// Package trace defines the persistent-memory operation trace that flows
// from an instrumented crash-consistent program to the PMTest checking
// engine (paper §4.3).
//
// A trace is an ordered sequence of operations. Each operation carries the
// metadata the paper requires: kind, address, size, and the source location
// of the call site, so FAIL/WARN diagnostics can point at the offending
// line. Checkers are recorded inline in the trace in program order,
// exactly like PM operations.
package trace

import (
	"fmt"
	"runtime"
	"strings"
)

// Kind identifies a traced PM operation or checker.
type Kind uint8

// Operation kinds. The first group are hardware-level PM operations; the
// second are library-level transaction events; the third are the checkers
// of paper Table 2.
const (
	KindInvalid Kind = iota

	// Hardware-level operations.
	KindWrite   // store to PM
	KindWriteNT // non-temporal store (bypasses cache; still needs a fence)
	KindFlush   // clwb-style writeback of an address range
	KindFence   // sfence: orders and completes prior flushes (x86)
	KindOFence  // HOPS ofence: orders persists without forcing writeback
	KindDFence  // HOPS dfence: orders and drains all pending persists

	// Library-level transaction events.
	KindTxBegin // transaction begin (e.g. PMDK TX_BEGIN)
	KindTxEnd   // transaction end (e.g. PMDK TX_END)
	KindTxAdd   // undo-log backup of a range (e.g. PMDK TX_ADD)

	// Checkers (paper Table 2).
	KindIsPersist       // isPersist(addr, size)
	KindIsOrderedBefore // isOrderedBefore(addrA, sizeA, addrB, sizeB)
	KindTxCheckerStart  // TX_CHECKER_START
	KindTxCheckerEnd    // TX_CHECKER_END
	KindExclude         // PMTest_EXCLUDE: remove object from testing scope
	KindInclude         // PMTest_INCLUDE: add object back to testing scope

	kindMax
)

var kindNames = [...]string{
	KindInvalid:         "invalid",
	KindWrite:           "write",
	KindWriteNT:         "writeNT",
	KindFlush:           "clwb",
	KindFence:           "sfence",
	KindOFence:          "ofence",
	KindDFence:          "dfence",
	KindTxBegin:         "txBegin",
	KindTxEnd:           "txEnd",
	KindTxAdd:           "txAdd",
	KindIsPersist:       "isPersist",
	KindIsOrderedBefore: "isOrderedBefore",
	KindTxCheckerStart:  "txCheckerStart",
	KindTxCheckerEnd:    "txCheckerEnd",
	KindExclude:         "exclude",
	KindInclude:         "include",
}

// String returns the mnemonic used in trace dumps and diagnostics.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsChecker reports whether the kind is a checker rather than a PM or
// transaction operation.
func (k Kind) IsChecker() bool {
	switch k {
	case KindIsPersist, KindIsOrderedBefore, KindTxCheckerStart,
		KindTxCheckerEnd, KindExclude, KindInclude:
		return true
	}
	return false
}

// Op is a single trace entry. Addresses are offsets into the simulated
// persistent memory device. Addr2/Size2 are used only by
// isOrderedBefore, which relates two ranges.
type Op struct {
	Kind  Kind
	Addr  uint64
	Size  uint64
	Addr2 uint64
	Size2 uint64

	// File and Line locate the call site of the operation in the program
	// under test; diagnostics are reported "@file:line" (paper §4.1).
	File string
	Line int
}

// Site formats the source location, or "?" when it was not captured.
func (o Op) Site() string {
	if o.File == "" {
		return "?"
	}
	return fmt.Sprintf("%s:%d", o.File, o.Line)
}

// String renders the op like the paper's trace listings, e.g.
// "write(0x10,64) @foo.go:12".
func (o Op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", o.Kind)
	switch o.Kind {
	case KindFence, KindOFence, KindDFence, KindTxBegin, KindTxEnd,
		KindTxCheckerStart, KindTxCheckerEnd:
	case KindIsOrderedBefore:
		fmt.Fprintf(&b, "(0x%x,%d,0x%x,%d)", o.Addr, o.Size, o.Addr2, o.Size2)
	default:
		fmt.Fprintf(&b, "(0x%x,%d)", o.Addr, o.Size)
	}
	if o.File != "" {
		fmt.Fprintf(&b, " @%s", o.Site())
	}
	return b.String()
}

// SpanRange ties a flight-recorder span to the op range it covers: the
// transaction spans a section carries use it so checker findings (which
// are anchored at op indices) can be parented under the transaction that
// contains them. Begin and End are inclusive op indices.
type SpanRange struct {
	Begin  int    `json:"begin"`
	End    int    `json:"end"`
	SpanID uint64 `json:"span_id"`
}

// Contains reports whether op index i falls inside the range.
func (r SpanRange) Contains(i int) bool { return i >= r.Begin && i <= r.End }

// Trace is one unit of checking work: the operations recorded between two
// PMTest_SEND_TRACE calls on one thread. Traces are independent — each
// gets its own shadow memory in the engine (paper §4.4).
type Trace struct {
	// ID is a monotonically increasing per-session identifier, assigned
	// when the trace is sent to the engine.
	ID int
	// Thread is the program thread that produced the trace.
	Thread int
	Ops    []Op

	// SpanID and TxSpans are the section's flight-recorder identity —
	// the span covering the whole section and the transaction spans with
	// the op ranges they cover. They ride along to the engine in memory
	// only (the wire codec does not serialize them) and are zero/nil
	// when no recorder is attached.
	SpanID  uint64
	TxSpans []SpanRange

	// RemoteSession and RemoteSpan are the originating client's
	// correlation identity, set node-side by the distributed checking
	// tier from the section request's session parameter and span header
	// before the trace is submitted to the hosted engine. Like SpanID
	// they are in-memory only — the wire codec never serializes them —
	// and zero for traces recorded in-process.
	RemoteSession string
	RemoteSpan    uint64
}

// String renders a compact multi-line dump of the trace.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d (thread %d, %d ops)\n", t.ID, t.Thread, len(t.Ops))
	for i, op := range t.Ops {
		fmt.Fprintf(&b, "  %4d: %s\n", i, op.String())
	}
	return b.String()
}

// Sink receives traced operations. The PMTest per-thread tracker is a
// Sink; so are the baseline checkers (pmemcheck processes ops inline).
// Instrumented substrates (the PM device, pmdk, mnemosyne, pmfs) emit
// their operations into whatever Sink is attached.
type Sink interface {
	// Record adds one operation. callerSkip counts stack frames between
	// Record's caller and the application call site to attribute
	// (0 = the immediate caller is the site).
	Record(op Op, callerSkip int)
}

// Discard is a Sink that drops everything: the "no testing tool" baseline
// configuration of the paper's benchmarks.
var Discard Sink = discard{}

type discard struct{}

func (discard) Record(Op, int) {}

// Recorder is a Sink that keeps every operation in memory, in order.
type Recorder struct{ Ops []Op }

// Record implements Sink.
func (r *Recorder) Record(op Op, _ int) { r.Ops = append(r.Ops, op) }

// MultiSink fans one operation stream out to several sinks.
type MultiSink []Sink

// Record implements Sink.
func (m MultiSink) Record(op Op, callerSkip int) {
	for _, s := range m {
		s.Record(op, callerSkip+1)
	}
}

// Builder accumulates operations for one thread. It is not safe for
// concurrent use; each program thread owns one Builder
// (PMTest_THREAD_INIT in the paper).
type Builder struct {
	thread  int
	ops     []Op
	skip    int  // extra runtime.Caller frames to skip for location capture
	capture bool // whether to capture file:line (costs a runtime.Caller)
	// sizeHint is the largest section shipped so far; each new section's
	// op slice is preallocated to it, so a steady stream of same-shaped
	// sections (one per transaction, §4.2) costs one batch allocation per
	// section instead of the append grow ramp.
	sizeHint int
}

// NewBuilder returns a Builder for the given program thread id.
// If captureSite is true, each recorded op captures the caller's
// file:line; turning it off removes the runtime.Caller cost and is used by
// the framework-overhead benchmarks (Fig. 10b separates this cost).
func NewBuilder(thread int, captureSite bool) *Builder {
	return &Builder{thread: thread, capture: captureSite}
}

// SetCallerSkip adjusts how many additional stack frames Record skips when
// capturing the call site. Library wrappers (e.g. the pmdk shim) bump this
// so diagnostics point at application code rather than the wrapper.
func (b *Builder) SetCallerSkip(n int) { b.skip = n }

// Len returns the number of buffered operations.
func (b *Builder) Len() int { return len(b.ops) }

// Thread returns the owning thread id.
func (b *Builder) Thread() int { return b.thread }

// Record appends op, capturing the call site if enabled and not already
// set. It follows the Sink convention: callerSkip = 0 attributes Record's
// immediate caller; each wrapper frame in between adds one.
func (b *Builder) Record(op Op, callerSkip int) {
	if b.capture && op.File == "" {
		if _, file, line, ok := runtime.Caller(1 + callerSkip + b.skip); ok {
			op.File = trimPath(file)
			op.Line = line
		}
	}
	if b.ops == nil && b.sizeHint > 0 {
		b.ops = make([]Op, 0, b.sizeHint)
	}
	b.ops = append(b.ops, op)
}

// Take returns the buffered operations as a Trace and resets the builder
// for the next section (PMTest_SEND_TRACE starts a new trace).
func (b *Builder) Take() *Trace {
	t := &Trace{Thread: b.thread, Ops: b.ops}
	if n := len(b.ops); n > b.sizeHint {
		b.sizeHint = n
	}
	// Hand off the backing array and start fresh — the engine owns the
	// trace once sent; the next section preallocates from sizeHint.
	b.ops = nil
	return t
}

// trimPath shortens an absolute source path to its last two components,
// which keeps diagnostics readable ("pmdk/tx.go:57").
func trimPath(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return p
	}
	j := strings.LastIndexByte(p[:i], '/')
	if j < 0 {
		return p
	}
	return p[j+1:]
}
