// Package pmtest is a fast and flexible testing framework for persistent
// memory (PM) programs, reproducing "PMTest: A Fast and Flexible Testing
// Framework for Persistent Memory Programs" (ASPLOS 2019).
//
// Programs (or the instrumented PM libraries they use) record their PM
// operations — writes, cache writebacks, fences — into a per-thread
// tracker, and annotate their code with assertion-like checkers:
//
//   - IsPersist asserts a persistent object has been persisted since its
//     last update.
//   - IsOrderedBefore asserts one persist is strictly ordered before
//     another.
//   - TxCheckerStart / TxCheckerEnd wrap a transaction and automatically
//     verify that every modified object was logged before modification and
//     persisted by commit.
//
// A decoupled checking engine consumes completed trace sections on worker
// goroutines, deducing for every write the epoch interval in which it may
// persist; checkers are validated against those intervals instead of
// enumerating all legal reorderings, which is what makes PMTest fast.
//
// The package mirrors the paper's C interface (Table 2):
//
//	PMTest_INIT            → Init
//	PMTest_EXIT            → (*Session).Exit
//	PMTest_THREAD_INIT     → (*Session).ThreadInit
//	PMTest_START / END     → (*Thread).Start / End
//	PMTest_EXCLUDE/INCLUDE → (*Thread).Exclude / Include
//	PMTest_REG_VAR et al.  → (*Session).RegVar / UnregVar / GetVar
//	PMTest_SEND_TRACE      → (*Thread).SendTrace
//	PMTest_GET_RESULT      → (*Session).GetResult
//	isPersist              → (*Thread).IsPersist
//	isOrderedBefore        → (*Thread).IsOrderedBefore
//	TX_CHECKER_START / END → (*Thread).TxCheckerStart / TxCheckerEnd
package pmtest

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/dist"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// Re-exported result types, so users never import internal packages.
type (
	// Report is the checking result for one trace section.
	Report = core.Report
	// Diagnostic is a single FAIL/WARN/INFO finding.
	Diagnostic = core.Diagnostic
	// Severity distinguishes FAIL (crash-consistency bug) from WARN
	// (performance bug).
	Severity = core.Severity
	// Code names the class of a finding.
	Code = core.Code
	// RuleSet is a pluggable persistency model.
	RuleSet = core.RuleSet
)

// Severity and code constants re-exported from the engine.
const (
	SeverityInfo = core.SeverityInfo
	SeverityWarn = core.SeverityWarn
	SeverityFail = core.SeverityFail

	CodeNotPersisted         = core.CodeNotPersisted
	CodeOrderViolation       = core.CodeOrderViolation
	CodeMissingBackup        = core.CodeMissingBackup
	CodeIncompleteTx         = core.CodeIncompleteTx
	CodeDuplicateWriteback   = core.CodeDuplicateWriteback
	CodeUnnecessaryWriteback = core.CodeUnnecessaryWriteback
	CodeDuplicateLog         = core.CodeDuplicateLog
	CodeUnbalancedTx         = core.CodeUnbalancedTx
)

// Built-in persistency models.
var (
	// X86 is the strict x86 model: clwb + sfence (paper §4.4).
	X86 RuleSet = core.X86{}
	// ARM is the ARMv8.2 model (DC CVAP + DSB, paper §2.1); interval
	// semantics coincide with X86.
	ARM RuleSet = core.ARM{}
	// HOPS is the relaxed ofence/dfence model (paper §5.2).
	HOPS RuleSet = core.HOPS{}
	// Epoch is an illustrative epoch-persistency model (extension).
	Epoch RuleSet = core.Epoch{}
)

// Config configures a testing session.
type Config struct {
	// Model selects the persistency model; defaults to X86.
	Model RuleSet
	// Workers sets the number of checking worker goroutines of a local
	// engine; defaults to 1, the paper's default (§6.1). It does not
	// apply to a remote session, whose sections are checked one at a
	// time in send order.
	Workers int
	// Shards is the number of address stripes each worker's checker
	// splits shadow memory into, each checked on its own goroutine, with
	// fences broadcast as epoch barriers. Reports are byte-identical to
	// one stripe's. <= 1 (the default) checks each trace on one stripe,
	// on the worker's goroutine. A remote session's nodes and its local
	// check use it too. A node refuses more than 64, and such a session
	// checks every section in-process, with the refusal on Err.
	Shards int
	// EpochGC retires shadow-memory segments whose intervals closed more
	// than a lag of epochs ago, bounding checker memory over long
	// streaming runs. Composes with Shards, and works on one stripe too.
	// Reports can differ from a run without it: a checker or flush over
	// a retired range sees it as never written, so GC can drop a FAIL
	// (an order-violation, say) or change a warning. A remote session's
	// nodes and its local check use it too, so every path reports alike.
	EpochGC bool
	// TrackOnly records and ships traces but skips checker validation;
	// used to measure framework overhead in isolation (Fig. 10b).
	TrackOnly bool
	// CaptureSites records file:line for each op so diagnostics can point
	// at source. Costs one runtime.Caller per op; on for tests and
	// debugging, off for the tightest benchmark loops.
	CaptureSites bool
	// StaticExcludes are address ranges excluded from checking in every
	// trace section — typically library metadata such as undo-log areas
	// (PMTest_EXCLUDE applied session-wide).
	StaticExcludes []Var
	// RecordTo, when non-nil, additionally serializes every submitted
	// trace section to the writer (binary format of CheckRecorded), so a
	// run can be re-checked offline — possibly under a different
	// persistency model — without re-executing the program.
	RecordTo io.Writer
	// DetectSharing enables the inter-thread sharing analyzer (the
	// paper's §7.4 future work): PM ranges written by more than one
	// thread — where per-thread checking is incomplete — are reported by
	// (*Session).SharedRanges.
	DetectSharing bool
	// Metrics, when non-nil, receives full observability instrumentation:
	// engine lifecycle counters and latency histograms, session tracking
	// counters (sections shipped, ops recorded, bytes encoded) and a ring
	// of recent trace events. Snapshot it with (*Session).Stats, or mount
	// obs.Handler(cfg.Metrics) to scrape it over HTTP. When nil (the
	// default), no timestamps are taken and the hot path is unchanged.
	// On a remote session it also receives the dist_* counters, and its
	// traces_* and diags_* count only the sections checked in-process;
	// each node's own snapshot counts the sections it checked.
	Metrics *obs.Metrics
	// Observer, when non-nil, additionally receives raw per-trace
	// lifecycle events (TraceSubmitted / TraceDequeued / TraceChecked) —
	// the pluggable hook for custom collectors. It may be combined with
	// Metrics; both then see every event.
	Observer obs.Observer
	// Flight, when non-nil, records a span timeline of the run: one span
	// per trace section, per library transaction (TxBegin/TxEnd pairs),
	// per engine check, and one checker child span per diagnostic,
	// parented under the transaction whose op range contains it. Browse
	// live via flight.Handler, or export with flight.WriteChrome. When
	// nil the tracking hot path gains only a nil check per op.
	Flight *flight.Recorder
	// Logger, when non-nil, receives structured leveled log records from
	// the session, its engine and, on a remote session, its dist client
	// and local check. Every record carries one "session" attribute: the
	// session's SID. Engine records add trace_id/span_id, correlating log
	// lines with flight spans. When nil nothing is logged and nothing is
	// paid.
	Logger *slog.Logger
	// Remote, when non-nil, streams trace sections to pmtestd checker
	// nodes instead of a local engine. Decoupled checking makes the two
	// paths equivalent: a section is a self-contained unit of work, and
	// every node and the local fallback check it under this Config's
	// Model, TrackOnly, StaticExcludes, Shards and EpochGC, so the
	// reports are byte-identical to a local run under the same Config —
	// including across node failures, which the client absorbs with
	// retries, failover and a local fallback check. Degradation is
	// visible in Stats as the dist_* counters.
	Remote *RemoteConfig
}

// RemoteConfig selects and tunes the distributed checking tier. The
// session homes on one node by its SID's hash and keeps one circuit
// breaker per node, fed by its own traffic alone; there is no background
// health prober. Each open carries the session's check spec, and a node
// checks the session's sections under it alone. The session buffers up
// to 16 MiB of unacknowledged sections, and at that cap SendTrace
// blocks. Every section gets exactly one report, in send order: from a
// node, or from the in-process check, built from the same spec and
// observed like a local engine, that takes a section no node accepts,
// one that does not encode, and one larger than the whole buffer.
type RemoteConfig struct {
	// Nodes are the pmtestd node addresses (host:port). Sessions shard
	// across them by session-id hash and fail over around the ring.
	Nodes []string
	// RPCTimeout is the deadline of each RPC, each section write and
	// each wait for a section's ack (default 5s).
	RPCTimeout time.Duration
	// Attempts bounds tries of one RPC, or of getting one section
	// acknowledged, against one node before failing over (default 3).
	Attempts int
}

// Stats is the observability snapshot returned by (*Session).Stats.
type Stats = obs.Snapshot

// SharedRange is a PM range written by two or more threads; re-exported
// from the engine.
type SharedRange = core.SharedRange

// backend is the checking surface a session drives: the local
// core.Engine or a dist.Session streaming to pmtestd nodes. Both assign
// trace IDs in submit order and return reports indexed by them, which is
// what keeps the two paths report-identical.
type backend interface {
	Submit(*trace.Trace)
	Wait() []core.Report
	Close() []core.Report
	QueueDepths() []int
}

// Session owns a checking engine and the variable-name registry. Create
// one per program under test with Init; release it with Exit.
type Session struct {
	cfg     Config
	sid     string // the session's one name (see SID)
	engine  backend
	sharing *core.SharingAnalyzer
	metrics *obs.Metrics // nil when observability is off
	logger  *slog.Logger // nil when logging is off; carries the SID
	// recording mirrors cfg.RecordTo != nil so the SendTrace fast path
	// can skip the session lock entirely; it flips off permanently after
	// an encode failure.
	recording atomic.Bool

	mu         sync.Mutex
	vars       map[string]Var
	nextThread int
	err        error // first deferred error (e.g. RecordTo encode failure)
}

// Var is a named persistent object registered with PMTest_REG_VAR so its
// persistency can be checked outside its lexical scope (paper §4.2).
type Var struct {
	Addr uint64
	Size uint64
}

// processID is drawn once per process from crypto/rand, so SIDs of
// sessions in different processes differ even where their counters
// agree: two programs sharing a fleet never share a node session.
var processID = func() string {
	var b [8]byte
	rand.Read(b[:]) // returns no error: it ends the program if the OS has no randomness
	return hex.EncodeToString(b[:])
}()

// sessionIDs numbers the sessions of this process.
var sessionIDs atomic.Uint64

// Init creates a session and starts its checking engine (PMTest_INIT).
// It decides the session's name and check spec once: the local engine,
// or a remote session's nodes and its local check, all use both.
func Init(cfg Config) *Session {
	if cfg.Model == nil {
		cfg.Model = X86
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	sid := fmt.Sprintf("pmtest-%s-%d", processID, sessionIDs.Add(1))
	var logger *slog.Logger
	if cfg.Logger != nil {
		logger = cfg.Logger.With("session", sid)
	}
	excludes := make([]core.Range, len(cfg.StaticExcludes))
	for i, v := range cfg.StaticExcludes {
		excludes[i] = core.Range{Addr: v.Addr, Size: v.Size}
	}
	if cfg.Metrics != nil && cfg.RecordTo != nil {
		cfg.RecordTo = &countingWriter{w: cfg.RecordTo, n: &cfg.Metrics.BytesEncoded}
	}
	s := &Session{
		cfg:     cfg,
		sid:     sid,
		metrics: cfg.Metrics,
		logger:  logger,
		vars:    make(map[string]Var),
	}
	// Fan lifecycle events out to the metrics registry, any custom
	// observer and the flight recorder; Multi returns nil when none is
	// set, preserving the engine's uninstrumented fast path.
	check := core.Options{
		Rules:          cfg.Model,
		Workers:        cfg.Workers,
		Check:          core.Config{Shards: cfg.Shards, EpochGC: cfg.EpochGC},
		TrackOnly:      cfg.TrackOnly,
		StaticExcludes: excludes,
		Observer:       obs.Multi(cfg.Metrics, cfg.Observer, flight.EngineObserver(cfg.Flight)),
		Logger:         logger,
	}
	if r := cfg.Remote; r != nil {
		remote, err := dist.Open(sid, check, dist.Options{
			Nodes:      r.Nodes,
			RPCTimeout: r.RPCTimeout,
			Attempts:   r.Attempts,
			Metrics:    cfg.Metrics,
			Flight:     cfg.Flight,
			// The client stamps its records with the SID itself.
			Logger: cfg.Logger,
		})
		if err != nil {
			// A misconfigured remote tier must not kill the program under
			// test: fall back to a local engine and surface the problem as
			// a deferred error (Err/Stats).
			s.err = fmt.Errorf("pmtest: remote checking unavailable: %w", err)
			if logger != nil {
				logger.Error("remote checking unavailable; using local engine", "err", err)
			}
		} else {
			s.engine = remote
		}
	}
	if s.engine == nil {
		eng := core.NewEngine(check)
		s.engine = eng
		if cfg.Metrics != nil {
			cfg.Metrics.SetStripeDepthFn(eng.StripeDepths)
		}
	}
	s.recording.Store(cfg.RecordTo != nil)
	if cfg.Metrics != nil {
		cfg.Metrics.SetQueueDepthFn(s.engine.QueueDepths)
		cfg.Metrics.SetResourceFn(core.ResourceStats)
	}
	if logger != nil {
		logger.Info("pmtest session started",
			"model", fmt.Sprintf("%T", cfg.Model), "workers", cfg.Workers,
			"shards", cfg.Shards, "epoch_gc", cfg.EpochGC,
			"track_only", cfg.TrackOnly, "recording", cfg.RecordTo != nil)
	}
	if cfg.DetectSharing {
		s.sharing = core.NewSharingAnalyzer(excludes)
		s.sharing.SetMetrics(cfg.Metrics)
	}
	return s
}

// countingWriter counts bytes written through it into an obs.Counter.
type countingWriter struct {
	w io.Writer
	n *obs.Counter
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

// SID returns the session's one name, "pmtest-<process>-<n>": 16 hex
// digits drawn once per process from crypto/rand, then the session's
// number in the process, so no two processes share a name. It is the
// session ID a remote checking session registers on pmtestd nodes, the
// "session" attribute of every log record the session emits and of its
// flight spans. A fleet-wide span search for this name (attr
// session=<sid> on the client, attr remote_session_id=<sid> on nodes)
// finds everything the session caused; `pmtrace -remote -session <sid>`
// stitches it into one timeline.
func (s *Session) SID() string { return s.sid }

// Exit drains outstanding traces, stops the engine and returns all
// reports (PMTest_EXIT). Deferred session errors — such as a RecordTo
// encode failure — do not abort the run; retrieve them afterwards with
// Err or from the Stats snapshot.
func (s *Session) Exit() []Report {
	reports := s.engine.Close()
	if s.logger != nil {
		fails, warns := 0, 0
		for _, r := range reports {
			fails += r.Fails()
			warns += r.Warns()
		}
		s.logger.Info("pmtest session exited",
			"traces", len(reports), "fails", fails, "warns", warns)
	}
	return reports
}

// GetResult blocks until every trace sent so far has been checked and
// returns the reports accumulated so far (PMTest_GET_RESULT).
func (s *Session) GetResult() []Report { return s.engine.Wait() }

// Err returns the first deferred session error — a failure serializing
// a trace to Config.RecordTo, or a remote section that a node refused or
// that did not encode — or nil. Such errors disable or degrade the
// failing feature but never crash the program under test.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		if de, ok := s.engine.(interface{ Err() error }); ok {
			s.err = de.Err()
		}
	}
	return s.err
}

// RemoteNode returns the address of the pmtestd node currently holding
// this session's checking engine. It is "" for local sessions, before
// the first remote section lands, and after a full degradation to
// local fallback.
func (s *Session) RemoteNode() string {
	if d, ok := s.engine.(*dist.Session); ok {
		return d.Node()
	}
	return ""
}

// Stats returns a point-in-time observability snapshot: trace/op
// counters, check-latency and queue-wait histograms, per-worker load,
// diagnostic tallies and recent trace events. Counters are non-zero only
// when Config.Metrics was installed; the engine's live queue depths and
// any deferred session error are included regardless.
func (s *Session) Stats() Stats {
	snap := s.metrics.Snapshot() // nil-safe: zero snapshot when off
	if snap.QueueDepths == nil {
		snap.QueueDepths = s.engine.QueueDepths()
	}
	if err := s.Err(); err != nil {
		snap.Err = err.Error()
	}
	return snap
}

// SharedRanges returns the PM ranges written by more than one thread —
// the spots where per-thread crash-consistency checking is incomplete
// (§7.4). It returns nil unless Config.DetectSharing was set.
func (s *Session) SharedRanges() []SharedRange {
	if s.sharing == nil {
		return nil
	}
	return s.sharing.Shared()
}

// ThreadInit creates the per-thread tracker (PMTest_THREAD_INIT). Each
// goroutine of the program under test owns one Thread; Thread is not safe
// for concurrent use.
func (s *Session) ThreadInit() *Thread {
	s.mu.Lock()
	id := s.nextThread
	s.nextThread++
	s.mu.Unlock()
	return &Thread{
		sess:    s,
		builder: trace.NewBuilder(id, s.cfg.CaptureSites),
		fl:      s.cfg.Flight,
	}
}

// RegVar registers a named persistent object (PMTest_REG_VAR).
func (s *Session) RegVar(name string, addr, size uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vars[name] = Var{Addr: addr, Size: size}
}

// UnregVar removes a registered name (PMTest_UNREG_VAR).
func (s *Session) UnregVar(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.vars, name)
}

// GetVar looks up a registered name (PMTest_GET_VAR).
func (s *Session) GetVar(name string) (Var, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vars[name]
	return v, ok
}

// Thread is the per-thread tracker: it records PM operations and checkers
// in program order and ships completed sections to the engine. It
// implements the trace.Sink interface used by the instrumented substrates
// (PM device, pmdk, mnemosyne, pmfs).
type Thread struct {
	sess    *Session
	builder *trace.Builder
	enabled bool

	// Flight-recorder state (nil/empty when no recorder is attached).
	// secSpan covers the section being built; openTx tracks live
	// transactions; txRanges accumulates the op ranges of transactions
	// closed in this section, attached to the trace at SendTrace.
	fl       *flight.Recorder
	secSpan  *flight.Span
	openTx   []openTx
	txRanges []trace.SpanRange
}

// openTx is a transaction span still awaiting its TxEnd, with the op
// index of its TxBegin in the current section.
type openTx struct {
	span  *flight.Span
	begin int
}

// Start enables tracking (PMTest_START). Operations recorded while
// tracking is disabled are dropped.
func (t *Thread) Start() { t.enabled = true }

// End disables tracking (PMTest_END).
func (t *Thread) End() { t.enabled = false }

// Enabled reports whether tracking is active.
func (t *Thread) Enabled() bool { return t.enabled }

// Record implements trace.Sink; instrumented libraries call it for every
// PM operation they execute.
func (t *Thread) Record(op trace.Op, callerSkip int) {
	if !t.enabled {
		return
	}
	// +1 accounts for this method's own frame, preserving the Sink
	// contract that callerSkip=0 attributes our immediate caller.
	t.builder.Record(op, callerSkip+1)
	if t.fl != nil {
		t.flightOp(op.Kind)
	}
}

// record is the internal entry point for the methods below: two wrapper
// frames (record itself and the public method) separate the user call
// site from builder.Record.
func (t *Thread) record(op trace.Op) {
	if !t.enabled {
		return
	}
	t.builder.Record(op, 2)
	if t.fl != nil {
		t.flightOp(op.Kind)
	}
}

// flightOp maintains the section and transaction spans as operations are
// recorded: the section span opens lazily at the first op, TxBegin opens
// a child transaction span, TxEnd closes it and remembers the op range
// it covered so checker findings can later be parented under it.
func (t *Thread) flightOp(k trace.Kind) {
	if t.secSpan == nil {
		// The session attribute is the precomputed correlation name, so
		// a fleet span search can find a session's client-side spans by
		// the same key nodes index under remote_session_id.
		t.secSpan = t.fl.Start(flight.CatSession, "section", 0).
			SetTID(t.builder.Thread()).
			SetStr("session", t.sess.sid)
	}
	switch k {
	case trace.KindTxBegin:
		sp := t.fl.Start(flight.CatTx, "tx", t.secSpan.ID).
			SetTID(t.builder.Thread()).
			SetStr("session", t.sess.sid)
		t.openTx = append(t.openTx, openTx{span: sp, begin: t.builder.Len() - 1})
	case trace.KindTxEnd:
		if n := len(t.openTx); n > 0 {
			ot := t.openTx[n-1]
			t.openTx = t.openTx[:n-1]
			end := t.builder.Len() - 1
			t.txRanges = append(t.txRanges,
				trace.SpanRange{Begin: ot.begin, End: end, SpanID: ot.span.ID})
			ot.span.SetInt("begin_op", int64(ot.begin)).
				SetInt("end_op", int64(end)).
				Finish()
		}
	}
}

// Pending returns the number of operations buffered in the current
// section.
func (t *Thread) Pending() int { return t.builder.Len() }

// SendTrace ships the current section to the checking engine and starts a
// new one (PMTest_SEND_TRACE). Sections are checked independently and
// concurrently with continued execution (§4.4).
func (t *Thread) SendTrace() {
	if t.builder.Len() == 0 {
		return
	}
	tr := t.builder.Take()
	if t.secSpan != nil {
		// A transaction still open at the section cut covers the tail of
		// this section and (if it ever ends) the head of the next one:
		// record the partial range and restart it at op 0.
		for i := range t.openTx {
			t.txRanges = append(t.txRanges, trace.SpanRange{
				Begin: t.openTx[i].begin, End: len(tr.Ops) - 1,
				SpanID: t.openTx[i].span.ID,
			})
			t.openTx[i].begin = 0
		}
		tr.SpanID = t.secSpan.ID
		if len(t.txRanges) > 0 {
			// The engine owns the trace once sent; hand it a fresh copy
			// and keep the scratch slice for the next section.
			tr.TxSpans = append([]trace.SpanRange(nil), t.txRanges...)
			t.txRanges = t.txRanges[:0]
		}
		t.secSpan.SetInt("ops", int64(len(tr.Ops))).Finish()
		t.secSpan = nil
	}
	if m := t.sess.metrics; m != nil {
		m.SectionsShipped.Add(1)
		m.OpsRecorded.Add(uint64(len(tr.Ops)))
	}
	if t.sess.sharing != nil {
		t.sess.sharing.Feed(tr)
	}
	if t.sess.recording.Load() {
		t.sess.mu.Lock()
		if w := t.sess.cfg.RecordTo; w != nil {
			if err := trace.Encode(w, tr); err != nil {
				// A recording failure must not crash the program under
				// test: store it as a deferred session error (see
				// Err/Stats), stop recording, and keep checking — the
				// engine still gets every trace.
				if t.sess.err == nil {
					t.sess.err = fmt.Errorf("pmtest: trace recording failed: %w", err)
				}
				t.sess.cfg.RecordTo = nil
				t.sess.recording.Store(false)
				if m := t.sess.metrics; m != nil {
					m.EncodeErrors.Add(1)
				}
				if lg := t.sess.logger; lg != nil {
					lg.Error("trace recording failed; recording disabled",
						"thread", t.builder.Thread(), "span_id", tr.SpanID, "err", err)
				}
			}
		}
		t.sess.mu.Unlock()
	}
	t.sess.engine.Submit(tr)
}

// --- Low-level PM operations (emitted by instrumented code) ---------------

// Write records a store to PM at [addr, addr+size).
func (t *Thread) Write(addr, size uint64) {
	t.record(trace.Op{Kind: trace.KindWrite, Addr: addr, Size: size})
}

// WriteNT records a non-temporal store (cache-bypassing; persists at the
// next fence without an explicit writeback).
func (t *Thread) WriteNT(addr, size uint64) {
	t.record(trace.Op{Kind: trace.KindWriteNT, Addr: addr, Size: size})
}

// Flush records a clwb-style cache writeback of [addr, addr+size).
func (t *Thread) Flush(addr, size uint64) {
	t.record(trace.Op{Kind: trace.KindFlush, Addr: addr, Size: size})
}

// Fence records an sfence: completes prior writebacks and opens a new
// epoch.
func (t *Thread) Fence() { t.record(trace.Op{Kind: trace.KindFence}) }

// OFence records a HOPS ordering fence.
func (t *Thread) OFence() { t.record(trace.Op{Kind: trace.KindOFence}) }

// DFence records a HOPS durability fence.
func (t *Thread) DFence() { t.record(trace.Op{Kind: trace.KindDFence}) }

// --- Transaction events ----------------------------------------------------

// TxBegin records a transaction begin (e.g. PMDK TX_BEGIN).
func (t *Thread) TxBegin() { t.record(trace.Op{Kind: trace.KindTxBegin}) }

// TxEnd records a transaction end (e.g. PMDK TX_END).
func (t *Thread) TxEnd() { t.record(trace.Op{Kind: trace.KindTxEnd}) }

// TxAdd records an undo-log backup of [addr, addr+size) (PMDK TX_ADD).
func (t *Thread) TxAdd(addr, size uint64) {
	t.record(trace.Op{Kind: trace.KindTxAdd, Addr: addr, Size: size})
}

// --- Checkers (paper Table 2) ----------------------------------------------

// IsPersist asserts that [addr, addr+size) has been persisted since its
// last update.
func (t *Thread) IsPersist(addr, size uint64) {
	t.record(trace.Op{Kind: trace.KindIsPersist, Addr: addr, Size: size})
}

// IsPersistVar asserts persistence of a variable registered with RegVar.
// It returns an error if the name is unknown.
func (t *Thread) IsPersistVar(name string) error {
	v, ok := t.sess.GetVar(name)
	if !ok {
		return fmt.Errorf("pmtest: no registered variable %q", name)
	}
	t.record(trace.Op{Kind: trace.KindIsPersist, Addr: v.Addr, Size: v.Size})
	return nil
}

// IsOrderedBefore asserts every persist of [a, a+sa) is strictly ordered
// before any persist of [b, b+sb).
func (t *Thread) IsOrderedBefore(a, sa, b, sb uint64) {
	t.record(trace.Op{Kind: trace.KindIsOrderedBefore, Addr: a, Size: sa, Addr2: b, Size2: sb})
}

// TxCheckerStart opens a transaction-checker scope: subsequent writes must
// be preceded by TxAdd backups (TX_CHECKER_START, §5.1.1).
func (t *Thread) TxCheckerStart() {
	t.record(trace.Op{Kind: trace.KindTxCheckerStart})
}

// TxCheckerEnd closes the scope and verifies every object modified inside
// it has persisted (TX_CHECKER_END, §5.1.1).
func (t *Thread) TxCheckerEnd() {
	t.record(trace.Op{Kind: trace.KindTxCheckerEnd})
}

// Exclude removes [addr, addr+size) from the testing scope
// (PMTest_EXCLUDE): automatic transaction checks and performance warnings
// skip it.
func (t *Thread) Exclude(addr, size uint64) {
	t.record(trace.Op{Kind: trace.KindExclude, Addr: addr, Size: size})
}

// Include restores an excluded range to the testing scope
// (PMTest_INCLUDE).
func (t *Thread) Include(addr, size uint64) {
	t.record(trace.Op{Kind: trace.KindInclude, Addr: addr, Size: size})
}

// CheckRecorded replays serialized trace sections (written via
// Config.RecordTo) through a fresh checking engine under the given model
// and returns the reports. Offline checking is a natural consequence of
// the paper's decoupled design: a trace is a self-contained unit of
// checking work, so it can be validated after the fact — even under a
// different persistency model than the one it ran on.
func CheckRecorded(r io.Reader, model RuleSet, workers int) ([]Report, error) {
	traces, err := trace.DecodeAll(r)
	if err != nil {
		return nil, err
	}
	if model == nil {
		model = X86
	}
	e := core.NewEngine(core.Options{Rules: model, Workers: workers})
	for _, t := range traces {
		t.ID = 0 // reassigned by Submit
		e.Submit(t)
	}
	return e.Close(), nil
}

// Summarize renders reports as the engine's textual output.
func Summarize(reports []Report) string { return core.Summarize(reports) }

// CountCode tallies findings with the given code across reports.
func CountCode(reports []Report, c Code) int { return core.CountCode(reports, c) }
