package core

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// Range is an address range excluded from checking for a whole session.
type Range struct {
	Addr, Size uint64
}

// CheckTrace runs the checking rules over one trace and returns its
// report. It is a pure function of (rules, trace): the report every
// Checker without epoch GC gives for t, however many stripes it has.
func CheckTrace(rules RuleSet, t *trace.Trace) Report {
	return CheckTraceExcluding(rules, t, nil)
}

// maxDiagsPerTrace caps diagnostics per trace so a pathological trace (a
// bug repeated in a hot loop) cannot balloon the report; the cap is noted
// in the final diagnostic.
const maxDiagsPerTrace = 1000

// statePool recycles checking states across traces. A trace still gets a
// logically fresh shadow memory (§4.4) — Reset restores the pristine
// condition — but the State allocation, its four interval maps (their
// segment slices, and the treaps and node freelists of any that grew past
// the flat limit) and the scratch buffers are all reused, which removes
// the dominant per-trace allocation cost on the checking hot path.
var statePool = sync.Pool{New: func() any { statePoolMisses.Add(1); return NewState() }}

// Pool and shadow-memory accounting for the observability plane. The
// counters are process-global like the pool itself: a few atomic adds
// per checked trace, nothing on the per-op path.
var (
	statePoolGets   atomic.Uint64
	statePoolMisses atomic.Uint64
	// shadowIntervalsLast/Max track the PeakIntervals of the most
	// recently checked trace and its high-water mark — the "is shadow
	// memory growing without bound?" gauge a long-lived session needs.
	shadowIntervalsLast atomic.Uint64
	shadowIntervalsMax  atomic.Uint64
	// gcRetiredTotal counts the shadow segments epoch GC retired.
	gcRetiredTotal atomic.Uint64
)

// ResourceStats reports checking-tier resource accounting for the
// observability snapshot: state-pool hit/miss traffic and live
// shadow-memory interval counts. Sessions wire it into their metrics
// registry via obs.(*Metrics).SetResourceFn.
func ResourceStats() obs.Resources {
	gets, misses := statePoolGets.Load(), statePoolMisses.Load()
	r := obs.Resources{
		StatePoolGets:       gets,
		StatePoolMisses:     misses,
		ShadowIntervalsLive: shadowIntervalsLast.Load(),
		ShadowIntervalsMax:  shadowIntervalsMax.Load(),
		GCRetiredIntervals:  gcRetiredTotal.Load(),
	}
	if gets > 0 {
		r.StatePoolHitRate = float64(gets-misses) / float64(gets)
	}
	return r
}

// publishStats records one check's shadow-memory peak and GC
// retirements in the gauges ResourceStats reads. Every check publishes
// exactly once, from the path that produced its report.
func publishStats(stats CheckStats) {
	n := uint64(stats.PeakIntervals)
	shadowIntervalsLast.Store(n)
	for {
		old := shadowIntervalsMax.Load()
		if n <= old || shadowIntervalsMax.CompareAndSwap(old, n) {
			break
		}
	}
	if stats.RetiredIntervals > 0 {
		gcRetiredTotal.Add(stats.RetiredIntervals)
	}
}

// CheckTraceExcluding is CheckTrace with session-wide static exclusions
// seeded into the fresh state of every trace (library metadata regions —
// undo logs, allocator headers — are excluded for the whole run rather
// than re-announced in each trace section). It is a Checker's
// one-stripe check under the zero Config.
//
// The checking state is drawn from an internal pool; CheckTraceInto is
// the same computation against a caller-managed State.
func CheckTraceExcluding(rules RuleSet, t *trace.Trace, excludes []Range) Report {
	rep, _ := checkOne(rules, Config{}, t, excludes)
	return rep
}

// CheckTraceInto runs the checking rules over t using s, which must be
// freshly constructed or Reset. The returned Report owns the accumulated
// diagnostics slice; s may be Reset and reused afterwards.
//
// A panic inside the checking rules — a hostile trace, a malformed op, a
// buggy custom RuleSet — is recovered into a CodeCheckerPanic diagnostic
// and the report produced so far is returned, so one poisoned trace
// cannot kill the engine's worker (or the whole process).
func CheckTraceInto(s *State, rules RuleSet, t *trace.Trace, excludes []Range) (rep Report) {
	tracked := 0
	defer func() {
		if r := recover(); r != nil {
			op := trace.Op{}
			if s.opIndex < len(t.Ops) {
				op = t.Ops[s.opIndex]
			}
			s.diags = append(s.diags, Diagnostic{
				Severity: SeverityFail,
				Code:     CodeCheckerPanic,
				Message: fmt.Sprintf("checking rules panicked at op %d (%s): %v; %d of %d ops checked",
					s.opIndex, op, r, s.opIndex, len(t.Ops)),
				Site:    opSite(op),
				OpIndex: s.opIndex,
			})
			rep = Report{TraceID: t.ID, Thread: t.Thread, Ops: len(t.Ops),
				TrackedOps: tracked, Diags: s.diags}
		}
	}()
	for _, r := range excludes {
		s.Excluded.Set(r.Addr, r.Addr+r.Size, struct{}{})
	}
	for i, op := range t.Ops {
		if !op.Kind.IsChecker() {
			tracked++
		}
		s.opIndex = i
		rules.Apply(s, op)
		if len(s.diags) >= maxDiagsPerTrace {
			s.diags = append(s.diags, Diagnostic{
				Severity: SeverityInfo,
				Code:     CodeTruncated,
				Message: fmt.Sprintf("diagnostics capped at %d; %d of %d ops checked",
					maxDiagsPerTrace, i+1, len(t.Ops)),
				Site:    "?",
				OpIndex: i,
			})
			break
		}
	}
	if s.TxCheckActive {
		s.report(SeverityWarn, CodeUnbalancedTx, "?", "",
			"trace ended with an open TX_CHECKER scope")
	}
	return Report{TraceID: t.ID, Thread: t.Thread, Ops: len(t.Ops), TrackedOps: tracked, Diags: s.diags}
}

// trackOnly walks the trace without applying rules. It models the
// "PMTest Framework" bar of Fig. 10b: the cost of tracking and shipping
// operations without validating any checkers. The non-checker op count is
// carried in the report so track-only runs still measure real work.
func trackOnly(t *trace.Trace) Report {
	n := 0
	for _, op := range t.Ops {
		if !op.Kind.IsChecker() {
			n++
		}
	}
	return Report{TraceID: t.ID, Thread: t.Thread, Ops: len(t.Ops), TrackedOps: n}
}

// Options configures an Engine.
type Options struct {
	// Rules selects the persistency model; defaults to X86.
	Rules RuleSet
	// Workers is the number of checking worker threads (paper §4.4,
	// Fig. 8); defaults to 1 as in the paper's evaluation (§6.1).
	Workers int
	// TrackOnly disables checker validation, leaving only operation
	// tracking. Used to separate framework overhead from checking
	// overhead (Fig. 10b).
	TrackOnly bool
	// StaticExcludes are ranges excluded from checking in every trace.
	StaticExcludes []Range
	// Check configures each worker's Checker: its address stripes and
	// epoch GC. The zero value checks every trace on one stripe on the
	// worker's goroutine; Shards > 1 gives each worker that many stripe
	// goroutines, with byte-identical reports.
	Check Config
	// Observer, when non-nil, receives per-trace lifecycle events
	// (submit, dequeue, checked) plus backpressure stalls. When nil the
	// engine takes no timestamps and the hot path is identical to the
	// uninstrumented one.
	Observer obs.Observer
	// Logger, when non-nil, receives structured engine log records:
	// flagged traces at Warn, per-trace completions at Debug (gated by
	// the handler's level, so a quiet logger costs one Enabled check per
	// trace). Records carry trace_id/span_id/worker, correlating log
	// lines with flight spans.
	Logger *slog.Logger

	// queueDepth bounds each worker's task queue (default 64; tests set
	// it smaller). Submit blocks when the queue is full, applying
	// back-pressure like the paper's kernel FIFO.
	queueDepth int
}

func (o Options) withDefaults() Options {
	if o.Rules == nil {
		o.Rules = X86{}
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.queueDepth <= 0 {
		o.queueDepth = 64
	}
	o.Check = o.Check.withDefaults()
	return o
}

// task is one queued unit of checking work. id is the trace ID Submit
// assigned, which is also the report's slot. enq carries the submit
// timestamp for queue-wait measurement; it is zero when no observer is
// installed.
type task struct {
	tr  *trace.Trace
	id  int
	enq time.Time
}

// Worker is one engine worker's per-trace work without its goroutine:
// the track-only walk or its Checker (which recovers a panicking rule
// set into a CodeCheckerPanic report), then the observer's dequeue and
// checked events and the log record. Each engine worker goroutine runs
// one. A caller that checks one trace at a time and waits for each
// report, as a pmtestd node session does, calls one directly and needs
// no queue. A Worker is not safe for concurrent use.
type Worker struct {
	opts    Options
	id      int
	checker *Checker // nil when TrackOnly
}

// NewWorker returns a Worker that checks like one worker of an engine
// built from opts. Workers does not apply. Close it when done.
func NewWorker(opts Options) *Worker { return newWorker(opts.withDefaults(), 0) }

func newWorker(opts Options, id int) *Worker {
	w := &Worker{opts: opts, id: id}
	if !opts.TrackOnly {
		w.checker = NewChecker(opts.Rules, opts.Check)
		w.checker.Timed = opts.Observer != nil
	}
	return w
}

// Check checks t on the calling goroutine and returns its report. The
// observer sees what an engine shows for a trace that is submitted and
// dequeued at once: submitted, dequeued after no queue wait, checked.
func (w *Worker) Check(t *trace.Trace) Report {
	var enq time.Time
	if ob := w.opts.Observer; ob != nil {
		ob.TraceSubmitted(t.ID, t.Thread, len(t.Ops))
		enq = time.Now()
	}
	return w.check(t, enq)
}

// check is the per-trace work of Check and of an engine worker
// goroutine. enq is when t was submitted; it is zero when no observer
// is installed.
func (w *Worker) check(t *trace.Trace, enq time.Time) Report {
	ob := w.opts.Observer
	var start time.Time
	if ob != nil {
		start = time.Now()
		ob.TraceDequeued(t.ID, w.id, start.Sub(enq))
	}
	var r Report
	var stats CheckStats
	if w.checker == nil {
		r = trackOnly(t)
	} else {
		r, stats = w.checker.Check(t, w.opts.StaticExcludes)
	}
	if ob != nil {
		ev := reportEvent(t, r, w.id, start.Sub(enq), time.Since(start))
		if stats.Sharded {
			// The checker is Timed when there is an observer. Copy: it
			// reuses the slice on its next trace, and the event
			// outlives this call in the recent ring.
			ev.StripeDurs = append([]time.Duration(nil), w.checker.stripeDurs...)
		}
		ob.TraceChecked(ev)
	}
	if lg := w.opts.Logger; lg != nil {
		logTrace(lg, t, r, w.id)
	}
	return r
}

// Close stops the stripe goroutines of the worker's checker, if it has
// any. The worker must not be used afterwards.
func (w *Worker) Close() {
	if w.checker != nil {
		w.checker.Close()
	}
}

// Engine is the PMTest checking engine: a master that dispatches incoming
// traces round-robin to a pool of worker goroutines, each of which checks
// its traces independently and posts results back (paper Fig. 8). The
// program under test runs concurrently with checking; GetResult-style
// synchronization is provided by Wait.
type Engine struct {
	opts    Options
	queues  []chan task
	done    sync.WaitGroup
	workers []*Worker

	mu        sync.Mutex
	idle      sync.Cond // signaled when completed catches up to submitted
	next      int
	submitted int
	completed int
	// reports holds each trace's report at index TraceID: Submit assigns
	// IDs densely from 0 and reserves the slot, so the slice is always in
	// trace order and len(reports) == submitted.
	reports []Report
	closed  bool
}

// NewEngine starts the worker pool and returns the engine.
func NewEngine(opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{opts: opts}
	e.idle.L = &e.mu
	e.queues = make([]chan task, opts.Workers)
	e.workers = make([]*Worker, opts.Workers)
	for i := range e.queues {
		q := make(chan task, opts.queueDepth)
		e.queues[i] = q
		e.workers[i] = newWorker(opts, i)
		e.done.Add(1)
		go e.run(e.workers[i], q)
	}
	return e
}

// run is one worker goroutine: it checks its queue's traces in order
// and stores each report in the trace's slot.
func (e *Engine) run(w *Worker, q <-chan task) {
	defer e.done.Done()
	for tk := range q {
		r := w.check(tk.tr, tk.enq)
		e.mu.Lock()
		e.reports[tk.id] = r
		e.completed++
		if e.completed == e.submitted {
			e.idle.Broadcast()
		}
		e.mu.Unlock()
	}
}

// logTrace emits the structured record for one checked trace: flagged
// traces at Warn (with the first finding inline), clean ones at Debug.
// span_id ties the record to the section's flight span, so a log line
// found by grep leads straight to the timeline.
func logTrace(lg *slog.Logger, t *trace.Trace, r Report, worker int) {
	fails, warns := r.Fails(), r.Warns()
	level := slog.LevelDebug
	msg := "trace checked"
	if fails > 0 {
		level, msg = slog.LevelWarn, "trace flagged"
	}
	if !lg.Enabled(context.Background(), level) {
		return
	}
	attrs := []any{
		"trace_id", t.ID, "thread", t.Thread, "worker", worker,
		"ops", len(t.Ops), "fails", fails, "warns", warns,
	}
	if t.SpanID != 0 {
		attrs = append(attrs, "span_id", t.SpanID)
	}
	if t.RemoteSession != "" {
		// Node-side check of a remotely recorded section: carry the
		// client's identity so one grep joins client and node logs.
		attrs = append(attrs, "remote_session_id", t.RemoteSession, "remote_span_id", t.RemoteSpan)
	}
	if fails > 0 {
		for _, d := range r.Diags {
			if d.Severity == SeverityFail {
				attrs = append(attrs, "code", string(d.Code), "finding", d.Message, "site", d.Site)
				break
			}
		}
	}
	lg.Log(context.Background(), level, msg, attrs...)
}

// reportEvent builds the observer event for a checked trace: counters,
// the section's span identity, and — only when the trace is not clean —
// the detailed diagnostics, so the clean path allocates nothing. A
// Worker emits one per trace it checks, inside an engine or called
// directly.
func reportEvent(t *trace.Trace, r Report, worker int, queueWait, checkDur time.Duration) obs.TraceEvent {
	ev := obs.TraceEvent{
		TraceID:    t.ID,
		Thread:     t.Thread,
		Worker:     worker,
		Ops:        r.Ops,
		TrackedOps: r.TrackedOps,
		QueueWait:  queueWait,
		CheckDur:   checkDur,
		SpanID:     t.SpanID,
		TxSpans:    t.TxSpans,

		RemoteSession: t.RemoteSession,
		RemoteSpan:    t.RemoteSpan,
	}
	if len(r.Diags) == 0 {
		return ev
	}
	ev.Codes = make(map[string]int)
	ev.Diags = make([]obs.DiagInfo, len(r.Diags))
	for i, d := range r.Diags {
		switch d.Severity {
		case SeverityFail:
			ev.Fails++
		case SeverityWarn:
			ev.Warns++
		default:
			ev.Infos++
		}
		ev.Codes[string(d.Code)]++
		ev.Diags[i] = obs.DiagInfo{
			Severity: d.Severity.String(),
			Code:     string(d.Code),
			OpIndex:  d.OpIndex,
			Message:  d.Message,
			Site:     d.Site,
		}
	}
	return ev
}

// Submit hands a trace to the engine (PMTest_SEND_TRACE). The master
// thread dispatches traces to workers round-robin (§4.4). Submit may block
// briefly when the chosen worker's queue is full.
func (e *Engine) Submit(t *trace.Trace) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		panic("core: Submit after Close")
	}
	id := e.submitted
	t.ID = id
	e.reports = append(e.reports, Report{})
	w := e.next
	e.next = (e.next + 1) % len(e.queues)
	e.submitted++
	e.mu.Unlock()

	ob := e.opts.Observer
	if ob == nil {
		e.queues[w] <- task{tr: t, id: id}
		return
	}
	ob.TraceSubmitted(id, t.Thread, len(t.Ops))
	tk := task{tr: t, id: id, enq: time.Now()}
	select {
	case e.queues[w] <- tk:
	default:
		// The queue is full: measure the backpressure stall.
		stallStart := time.Now()
		e.queues[w] <- tk
		if so, ok := ob.(obs.StallObserver); ok {
			so.SubmitStalled(w, time.Since(stallStart))
		}
	}
}

// QueueDepths returns the number of traces currently queued per worker —
// the live dispatch-imbalance gauge exported by the observability
// endpoint.
func (e *Engine) QueueDepths() []int {
	depths := make([]int, len(e.queues))
	for i, q := range e.queues {
		depths[i] = len(q)
	}
	return depths
}

// StripeDepths returns the live number of ops assigned to each address
// stripe, summed across the engine's workers — the striped counterpart
// of QueueDepths. Nil when the engine checks on one stripe.
func (e *Engine) StripeDepths() []int64 {
	c := e.workers[0].checker
	if c == nil || c.states == nil {
		return nil
	}
	out := make([]int64, len(c.states))
	for _, w := range e.workers {
		w.checker.AddStripeDepths(out)
	}
	return out
}

// Wait blocks until every submitted trace has been checked
// (PMTest_GET_RESULT) and returns all reports so far in trace order.
// It is safe to call concurrently with Submit; it waits for the traces
// submitted before it observed the engine idle.
func (e *Engine) Wait() []Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.completed < e.submitted {
		e.idle.Wait()
	}
	return append([]Report(nil), e.reports...)
}

// Close drains outstanding work and stops the workers (PMTest_EXIT). The
// engine must not be used afterwards. Close returns the final reports.
func (e *Engine) Close() []Report {
	reports := e.Wait()
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		for _, q := range e.queues {
			close(q)
		}
	}
	e.mu.Unlock()
	e.done.Wait()
	for _, w := range e.workers {
		w.Close()
	}
	return reports
}

// Summarize renders a compact multi-line summary of all reports.
func Summarize(reports []Report) string {
	fails, warns, traces := 0, 0, len(reports)
	for _, r := range reports {
		fails += r.Fails()
		warns += r.Warns()
	}
	s := fmt.Sprintf("%d traces checked: %d FAIL, %d WARN\n", traces, fails, warns)
	for _, r := range reports {
		if !r.Clean() {
			s += r.Summary()
		}
	}
	return s
}
