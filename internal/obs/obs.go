// Package obs is the observability layer of the PMTest reproduction:
// lock-cheap counters and latency histograms for the checking engine,
// a pluggable Observer interface for per-trace lifecycle events, and a
// bounded ring of recent trace events for live introspection.
//
// The paper's headline claim is speed (Fig. 8/10): checking-engine
// throughput, worker scaling and tracking overhead. This package makes
// those quantities visible on a live run — every hook is nil-safe and
// costs nothing when no observer is installed, so the instrumented hot
// path stays as fast as the uninstrumented one.
//
// The package depends only on the trace data types (for the span ranges
// a section carries), never on the engine; the engine reports events in
// plain ints, strings and durations.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmtest/internal/trace"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic signed level — a quantity that rises and falls,
// like the bytes currently buffered by a distributed checking session.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is higher — a high-water mark.
func (g *Gauge) SetMax(v int64) {
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// --- Latency histogram -----------------------------------------------------

// histBuckets is the number of fixed exponential buckets. Bucket i
// counts observations with d < histBound(i); the last bucket is
// unbounded. Bounds run 256ns, 512ns, ... ~8.6s — wide enough for a
// single-op check through a multi-second stall.
const histBuckets = 26

// histBound returns the exclusive upper bound of bucket i in
// nanoseconds (the last bucket has no bound).
func histBound(i int) time.Duration { return time.Duration(256 << uint(i)) }

// Histogram is a fixed-bucket latency histogram with atomic buckets:
// Observe is one atomic add per bucket plus two for count/sum, no
// locks, no allocation.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // total nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < histBuckets-1 && d >= histBound(i) {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistSnapshot is a point-in-time view of a Histogram.
type HistSnapshot struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	// Buckets holds the cumulative count of observations below each
	// bound, Prometheus-style ("le").
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one cumulative histogram bucket.
type HistBucket struct {
	Le    time.Duration `json:"le_ns"` // upper bound; 0 means +Inf
	Count uint64        `json:"count"` // observations <= Le
}

// Snapshot captures the histogram, computing quantiles by linear
// interpolation inside the owning bucket.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	return histFromCounts(&counts, time.Duration(h.sum.Load()))
}

// histFromCounts builds the snapshot representation from raw per-bucket
// counts — shared by live Histogram capture and by MergeHist, so a
// merged histogram is indistinguishable from one observed on a single
// node.
func histFromCounts(counts *[histBuckets]uint64, sum time.Duration) HistSnapshot {
	var total uint64
	for _, c := range counts {
		total += c
	}
	s := HistSnapshot{Count: total, Sum: sum}
	if total == 0 {
		return s
	}
	s.Mean = s.Sum / time.Duration(total)
	s.P50 = quantile(counts, total, 0.50)
	s.P90 = quantile(counts, total, 0.90)
	s.P99 = quantile(counts, total, 0.99)
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if c == 0 && i != histBuckets-1 {
			continue // keep the snapshot compact; cumulative count is preserved
		}
		le := histBound(i)
		if i == histBuckets-1 {
			le = 0 // +Inf
		}
		s.Buckets = append(s.Buckets, HistBucket{Le: le, Count: cum})
	}
	return s
}

// quantile interpolates the q-th quantile from bucket counts.
func quantile(counts *[histBuckets]uint64, total uint64, q float64) time.Duration {
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = histBound(i - 1)
		}
		hi := histBound(i)
		if i == histBuckets-1 {
			hi = 2 * lo // open-ended: assume one more doubling
		}
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += float64(c)
	}
	return histBound(histBuckets - 1)
}

// --- Observer --------------------------------------------------------------

// TraceEvent describes the full checked lifecycle of one trace section.
// The engine emits one per trace via Observer.TraceChecked; Metrics
// keeps the most recent ones in a ring for live introspection.
type TraceEvent struct {
	TraceID int `json:"trace_id"`
	Thread  int `json:"thread"`
	Worker  int `json:"worker"`
	// Ops is the number of operations in the trace; TrackedOps excludes
	// checker annotations.
	Ops        int `json:"ops"`
	TrackedOps int `json:"tracked_ops"`
	// Diagnostic counts by severity and by code.
	Fails int            `json:"fails"`
	Warns int            `json:"warns"`
	Infos int            `json:"infos"`
	Codes map[string]int `json:"codes,omitempty"`
	// QueueWait is the time between Submit and a worker dequeuing the
	// trace; CheckDur is the time spent checking it.
	QueueWait time.Duration `json:"queue_wait_ns"`
	CheckDur  time.Duration `json:"check_dur_ns"`
	// SpanID and TxSpans carry the section's flight-recorder identity
	// through the engine (zero/nil when no recorder is attached): SpanID
	// is the section span, TxSpans the transaction spans with the op
	// ranges they cover, so a span-building observer can parent checker
	// findings under the transaction that contains the guilty op.
	SpanID  uint64            `json:"span_id,omitempty"`
	TxSpans []trace.SpanRange `json:"tx_spans,omitempty"`
	// RemoteSession/RemoteSpan carry the originating client's correlation
	// identity when this trace arrived over the distributed checking
	// tier: the client's session ID and the client-side section span ID
	// propagated in the section request headers. Zero when the trace was
	// recorded in-process. Span-building observers tag node-side spans
	// with them, which is what lets a coordinator stitch client and node
	// timelines together.
	RemoteSession string `json:"remote_session,omitempty"`
	RemoteSpan    uint64 `json:"remote_span,omitempty"`
	// Diags details each diagnostic of a non-clean trace (nil for clean
	// traces, keeping the common path allocation-free).
	Diags []DiagInfo `json:"diags,omitempty"`
	// StripeDurs is the per-stripe checking time when the trace went
	// through the sharded checker with timing enabled (nil otherwise).
	StripeDurs []time.Duration `json:"stripe_durs_ns,omitempty"`
}

// DiagInfo is the observer-facing view of one engine diagnostic: enough
// to annotate a span or a log line without importing the engine package.
type DiagInfo struct {
	Severity string `json:"severity"`
	Code     string `json:"code"`
	// OpIndex is the index of the op the finding is anchored at.
	OpIndex int    `json:"op_index"`
	Message string `json:"message"`
	Site    string `json:"site,omitempty"`
}

// Observer receives per-trace lifecycle events from the checking
// engine. Implementations must be safe for concurrent use: Submitted
// fires on the program thread, Dequeued/Checked on worker goroutines.
type Observer interface {
	// TraceSubmitted fires when the program hands a trace to the engine.
	TraceSubmitted(traceID, thread, ops int)
	// TraceDequeued fires when a worker picks the trace off its queue.
	TraceDequeued(traceID, worker int, queueWait time.Duration)
	// TraceChecked fires when checking of the trace completes.
	TraceChecked(ev TraceEvent)
}

// StallObserver is an optional extension of Observer for engine
// backpressure: SubmitStalled fires when Submit blocked on a full
// worker queue for the given duration.
type StallObserver interface {
	SubmitStalled(worker int, d time.Duration)
}

// Multi fans events out to several observers. Nil entries are skipped;
// Multi returns nil when none remain, so the engine's "no observer"
// fast path still applies.
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) TraceSubmitted(id, thread, ops int) {
	for _, o := range m {
		o.TraceSubmitted(id, thread, ops)
	}
}

func (m multi) TraceDequeued(id, worker int, wait time.Duration) {
	for _, o := range m {
		o.TraceDequeued(id, worker, wait)
	}
}

func (m multi) TraceChecked(ev TraceEvent) {
	for _, o := range m {
		o.TraceChecked(ev)
	}
}

func (m multi) SubmitStalled(worker int, d time.Duration) {
	for _, o := range m {
		if so, ok := o.(StallObserver); ok {
			so.SubmitStalled(worker, d)
		}
	}
}

// --- Metrics registry ------------------------------------------------------

// Metrics is the standard Observer: an atomic-counter registry with
// latency histograms and a ring of recent trace events. One Metrics
// instance serves one session (or one engine) and can be shared with
// an HTTP Handler for live scraping.
type Metrics struct {
	start time.Time

	// Engine lifecycle.
	TracesSubmitted Counter
	TracesDequeued  Counter
	TracesChecked   Counter
	OpsSubmitted    Counter // ops contained in submitted traces
	OpsChecked      Counter // ops walked by the checker (or tracker)

	// Diagnostics by severity.
	DiagsFail Counter
	DiagsWarn Counter
	DiagsInfo Counter

	// Engine latencies and backpressure.
	QueueWait              Histogram
	CheckDur               Histogram
	BackpressureStalls     Counter
	BackpressureStallNanos Counter

	// Session-side tracking (filled by pmtest.Session).
	SectionsShipped Counter // SendTrace calls that shipped a section
	OpsRecorded     Counter // ops recorded into shipped sections
	BytesEncoded    Counter // bytes serialized via Config.RecordTo
	EncodeErrors    Counter // RecordTo encode failures

	// Sharing-analyzer activity.
	SharingTracesFed     Counter
	SharingWritesTracked Counter

	// Fault-injection campaign activity (filled by internal/faultinject).
	// CrashStatesExplored counts the crash states actually materialized
	// and validated; CrashStatesPossible counts the states each probe's
	// dirty set could have produced (clamped per probe so a huge 2^d does
	// not saturate the counter) — together they give the campaign's
	// explicit "explored N of M states" accounting.
	CampaignSchedules    Counter
	FaultsInjected       Counter
	CrashStatesExplored  Counter
	CrashStatesPossible  Counter
	RecoveryFailures     Counter
	CampaignDeadlineHits Counter

	// Distributed checking tier (filled by internal/dist). Every
	// degradation the client tier performs is counted here so "the tier
	// silently dropped work" is impossible by construction: retries,
	// failovers, breaker trips, overflow drops and local-engine
	// fallbacks each have their own counter, and the live buffer level
	// is a gauge with a high-water mark.
	DistSectionsSent    Counter // sections acknowledged (report received)
	DistRetries         Counter // RPC attempts beyond the first
	DistFailovers       Counter // sessions re-established on another node
	DistBreakerOpens    Counter // circuit-breaker closed→open transitions
	DistSectionsDropped Counter // sections dropped on buffer overflow
	DistFallbacks       Counter // sessions degraded to a local engine
	DistRPCErrors       Counter // failed RPC attempts (any cause)
	DistBufferedBytes   Gauge   // encoded bytes currently buffered unacked
	DistBufferedPeak    Gauge   // high-water mark of DistBufferedBytes
	// DistRTT observes one delivery per acknowledged section: from
	// writing the section's request to reading its report-carrying ack.
	// That includes waiting behind the earlier sections in the session's
	// window, which the node answers first.
	DistRTT Histogram

	mu            sync.Mutex
	codes         map[string]uint64
	perWorker     []uint64
	recent        *Ring[TraceEvent]
	queueDepthFn  func() []int
	resourceFn    func() Resources
	stripeDepthFn func() []int64
}

// Resources is per-process resource accounting for the checking tier:
// how well the core.State pool is recycling shadow memory, and how many
// live shadow-memory intervals the checker is carrying. The session
// wires the callback to the engine's gauges via SetResourceFn.
type Resources struct {
	// StatePoolGets / StatePoolMisses count checking-state pool
	// traffic; a miss allocates a fresh State (four interval trees).
	StatePoolGets   uint64 `json:"state_pool_gets"`
	StatePoolMisses uint64 `json:"state_pool_misses"`
	// StatePoolHitRate is gets-that-hit / gets (0 when no traffic).
	StatePoolHitRate float64 `json:"state_pool_hit_rate"`
	// ShadowIntervalsLive is the interval count of the most recently
	// checked trace's shadow memory; ShadowIntervalsMax is the high
	// water mark — the "is this session's shadow memory growing?" gauge.
	ShadowIntervalsLive uint64 `json:"shadow_intervals_live"`
	ShadowIntervalsMax  uint64 `json:"shadow_intervals_max"`
	// GCRetiredIntervals counts shadow-memory segments retired by the
	// sharded checker's epoch GC (0 unless Config.EpochGC is on).
	GCRetiredIntervals uint64 `json:"gc_retired_intervals"`
}

// NewMetrics returns an empty registry keeping the last recentN trace
// events (default 64 if recentN <= 0).
func NewMetrics(recentN int) *Metrics {
	if recentN <= 0 {
		recentN = 64
	}
	return &Metrics{
		start:  time.Now(),
		codes:  make(map[string]uint64),
		recent: NewRing[TraceEvent](recentN),
	}
}

// SetQueueDepthFn installs a callback reporting the engine's live
// per-worker queue depths; the session wires it to the engine.
func (m *Metrics) SetQueueDepthFn(fn func() []int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.queueDepthFn = fn
	m.mu.Unlock()
}

// SetStripeDepthFn installs a callback reporting the engine's live
// per-address-stripe op depths (sharded checking only).
func (m *Metrics) SetStripeDepthFn(fn func() []int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.stripeDepthFn = fn
	m.mu.Unlock()
}

// SetResourceFn installs a callback reporting checking-tier resource
// accounting (state-pool hit rates, live shadow-memory intervals); the
// session wires it to the engine.
func (m *Metrics) SetResourceFn(fn func() Resources) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.resourceFn = fn
	m.mu.Unlock()
}

// TraceSubmitted implements Observer.
func (m *Metrics) TraceSubmitted(id, thread, ops int) {
	m.TracesSubmitted.Add(1)
	m.OpsSubmitted.Add(uint64(ops))
}

// TraceDequeued implements Observer.
func (m *Metrics) TraceDequeued(id, worker int, wait time.Duration) {
	m.TracesDequeued.Add(1)
	m.QueueWait.Observe(wait)
}

// TraceChecked implements Observer.
func (m *Metrics) TraceChecked(ev TraceEvent) {
	m.TracesChecked.Add(1)
	m.OpsChecked.Add(uint64(ev.Ops))
	m.DiagsFail.Add(uint64(ev.Fails))
	m.DiagsWarn.Add(uint64(ev.Warns))
	m.DiagsInfo.Add(uint64(ev.Infos))
	m.CheckDur.Observe(ev.CheckDur)
	m.mu.Lock()
	for code, n := range ev.Codes {
		m.codes[code] += uint64(n)
	}
	for len(m.perWorker) <= ev.Worker {
		m.perWorker = append(m.perWorker, 0)
	}
	m.perWorker[ev.Worker]++
	m.mu.Unlock()
	m.recent.Add(ev)
}

// SubmitStalled implements StallObserver.
func (m *Metrics) SubmitStalled(worker int, d time.Duration) {
	m.BackpressureStalls.Add(1)
	m.BackpressureStallNanos.Add(uint64(d))
}

// --- Snapshot --------------------------------------------------------------

// Snapshot is a point-in-time view of every metric, the type returned
// by (*pmtest.Session).Stats and serialized by the HTTP handler.
type Snapshot struct {
	Uptime time.Duration `json:"uptime_ns"`

	TracesSubmitted uint64 `json:"traces_submitted"`
	TracesDequeued  uint64 `json:"traces_dequeued"`
	TracesChecked   uint64 `json:"traces_checked"`
	OpsSubmitted    uint64 `json:"ops_submitted"`
	OpsChecked      uint64 `json:"ops_checked"`
	// OpsPerSec is checked-operation throughput since the registry was
	// created — the y-axis of the paper's Fig. 8-style plots.
	OpsPerSec float64 `json:"ops_per_sec"`

	DiagsBySeverity map[string]uint64 `json:"diags_by_severity,omitempty"`
	DiagsByCode     map[string]uint64 `json:"diags_by_code,omitempty"`

	QueueWait          HistSnapshot  `json:"queue_wait"`
	CheckDur           HistSnapshot  `json:"check_dur"`
	BackpressureStalls uint64        `json:"backpressure_stalls"`
	BackpressureStall  time.Duration `json:"backpressure_stall_ns"`

	SectionsShipped uint64 `json:"sections_shipped"`
	OpsRecorded     uint64 `json:"ops_recorded"`
	BytesEncoded    uint64 `json:"bytes_encoded"`
	EncodeErrors    uint64 `json:"encode_errors"`

	SharingTracesFed     uint64 `json:"sharing_traces_fed"`
	SharingWritesTracked uint64 `json:"sharing_writes_tracked"`

	CampaignSchedules    uint64 `json:"campaign_schedules,omitempty"`
	FaultsInjected       uint64 `json:"faults_injected,omitempty"`
	CrashStatesExplored  uint64 `json:"crash_states_explored,omitempty"`
	CrashStatesPossible  uint64 `json:"crash_states_possible,omitempty"`
	RecoveryFailures     uint64 `json:"recovery_failures,omitempty"`
	CampaignDeadlineHits uint64 `json:"campaign_deadline_hits,omitempty"`

	DistSectionsSent    uint64       `json:"dist_sections_sent,omitempty"`
	DistRetries         uint64       `json:"dist_retries,omitempty"`
	DistFailovers       uint64       `json:"dist_failovers,omitempty"`
	DistBreakerOpens    uint64       `json:"dist_breaker_opens,omitempty"`
	DistSectionsDropped uint64       `json:"dist_sections_dropped,omitempty"`
	DistFallbacks       uint64       `json:"dist_fallbacks,omitempty"`
	DistRPCErrors       uint64       `json:"dist_rpc_errors,omitempty"`
	DistBufferedBytes   int64        `json:"dist_buffered_bytes,omitempty"`
	DistBufferedPeak    int64        `json:"dist_buffered_peak,omitempty"`
	DistRTT             HistSnapshot `json:"dist_rtt"`

	PerWorkerChecked []uint64 `json:"per_worker_checked,omitempty"`
	QueueDepths      []int    `json:"queue_depths,omitempty"`
	// StripeDepths is the live per-address-stripe op assignment of the
	// sharded checker (empty when checking serially).
	StripeDepths []int64 `json:"stripe_depths,omitempty"`

	// Resources carries state-pool and shadow-memory accounting (zero
	// unless SetResourceFn was wired, as (*pmtest.Session).Stats does).
	Resources Resources `json:"resources"`

	RecentTraces []TraceEvent `json:"recent_traces,omitempty"`

	// Err is the session's stored deferred error, if any (e.g. a
	// RecordTo encode failure).
	Err string `json:"err,omitempty"`
}

// Snapshot captures all metrics. Safe to call concurrently with
// observation; counters are read individually, so the view is only
// approximately consistent — fine for monitoring.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Uptime:               time.Since(m.start),
		TracesSubmitted:      m.TracesSubmitted.Load(),
		TracesDequeued:       m.TracesDequeued.Load(),
		TracesChecked:        m.TracesChecked.Load(),
		OpsSubmitted:         m.OpsSubmitted.Load(),
		OpsChecked:           m.OpsChecked.Load(),
		QueueWait:            m.QueueWait.Snapshot(),
		CheckDur:             m.CheckDur.Snapshot(),
		BackpressureStalls:   m.BackpressureStalls.Load(),
		BackpressureStall:    time.Duration(m.BackpressureStallNanos.Load()),
		SectionsShipped:      m.SectionsShipped.Load(),
		OpsRecorded:          m.OpsRecorded.Load(),
		BytesEncoded:         m.BytesEncoded.Load(),
		EncodeErrors:         m.EncodeErrors.Load(),
		SharingTracesFed:     m.SharingTracesFed.Load(),
		SharingWritesTracked: m.SharingWritesTracked.Load(),
		CampaignSchedules:    m.CampaignSchedules.Load(),
		FaultsInjected:       m.FaultsInjected.Load(),
		CrashStatesExplored:  m.CrashStatesExplored.Load(),
		CrashStatesPossible:  m.CrashStatesPossible.Load(),
		RecoveryFailures:     m.RecoveryFailures.Load(),
		CampaignDeadlineHits: m.CampaignDeadlineHits.Load(),
		DistSectionsSent:     m.DistSectionsSent.Load(),
		DistRetries:          m.DistRetries.Load(),
		DistFailovers:        m.DistFailovers.Load(),
		DistBreakerOpens:     m.DistBreakerOpens.Load(),
		DistSectionsDropped:  m.DistSectionsDropped.Load(),
		DistFallbacks:        m.DistFallbacks.Load(),
		DistRPCErrors:        m.DistRPCErrors.Load(),
		DistBufferedBytes:    m.DistBufferedBytes.Load(),
		DistBufferedPeak:     m.DistBufferedPeak.Load(),
		DistRTT:              m.DistRTT.Snapshot(),
	}
	if secs := s.Uptime.Seconds(); secs > 0 {
		s.OpsPerSec = float64(s.OpsChecked) / secs
	}
	s.DiagsBySeverity = map[string]uint64{}
	if v := m.DiagsFail.Load(); v > 0 {
		s.DiagsBySeverity["FAIL"] = v
	}
	if v := m.DiagsWarn.Load(); v > 0 {
		s.DiagsBySeverity["WARN"] = v
	}
	if v := m.DiagsInfo.Load(); v > 0 {
		s.DiagsBySeverity["INFO"] = v
	}
	m.mu.Lock()
	if len(m.codes) > 0 {
		s.DiagsByCode = make(map[string]uint64, len(m.codes))
		for k, v := range m.codes {
			s.DiagsByCode[k] = v
		}
	}
	s.PerWorkerChecked = append([]uint64(nil), m.perWorker...)
	fn := m.queueDepthFn
	rfn := m.resourceFn
	sfn := m.stripeDepthFn
	m.mu.Unlock()
	if fn != nil {
		s.QueueDepths = fn()
	}
	if sfn != nil {
		s.StripeDepths = sfn()
	}
	if rfn != nil {
		s.Resources = rfn()
	}
	s.RecentTraces = m.recent.Snapshot()
	return s
}

// Format renders the snapshot as the human-readable report printed by
// the -stats flag of cmd/repro and cmd/pmtrace: throughput, latency
// quantiles and the diagnostic histogram.
func (s Snapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== observability snapshot (uptime %v) ==\n", s.Uptime.Round(time.Millisecond))
	fmt.Fprintf(&b, "traces   submitted %d, checked %d", s.TracesSubmitted, s.TracesChecked)
	if s.SectionsShipped > 0 {
		fmt.Fprintf(&b, " (sections shipped %d)", s.SectionsShipped)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "ops      checked %d (%.0f ops/s)", s.OpsChecked, s.OpsPerSec)
	if s.OpsRecorded > 0 {
		fmt.Fprintf(&b, ", recorded %d", s.OpsRecorded)
	}
	if s.BytesEncoded > 0 {
		fmt.Fprintf(&b, ", encoded %dB", s.BytesEncoded)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "latency  check p50 %v / p99 %v (mean %v), queue wait p50 %v / p99 %v\n",
		s.CheckDur.P50, s.CheckDur.P99, s.CheckDur.Mean, s.QueueWait.P50, s.QueueWait.P99)
	if s.BackpressureStalls > 0 {
		fmt.Fprintf(&b, "backpressure %d stalls, %v total\n", s.BackpressureStalls, s.BackpressureStall)
	}
	if len(s.PerWorkerChecked) > 0 {
		fmt.Fprintf(&b, "workers  ")
		for i, n := range s.PerWorkerChecked {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "w%d=%d", i, n)
			if i < len(s.QueueDepths) {
				fmt.Fprintf(&b, " (queued %d)", s.QueueDepths[i])
			}
		}
		b.WriteByte('\n')
	}
	total := uint64(0)
	for _, v := range s.DiagsBySeverity {
		total += v
	}
	if total == 0 {
		fmt.Fprintf(&b, "diags    none\n")
	} else {
		fmt.Fprintf(&b, "diags    FAIL %d, WARN %d, INFO %d\n",
			s.DiagsBySeverity["FAIL"], s.DiagsBySeverity["WARN"], s.DiagsBySeverity["INFO"])
		codes := make([]string, 0, len(s.DiagsByCode))
		for c := range s.DiagsByCode {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "  %-24s %d\n", c, s.DiagsByCode[c])
		}
	}
	if s.SharingTracesFed > 0 {
		fmt.Fprintf(&b, "sharing  %d traces fed, %d writes tracked\n",
			s.SharingTracesFed, s.SharingWritesTracked)
	}
	if s.CampaignSchedules > 0 {
		fmt.Fprintf(&b, "campaign %d schedules, %d faults injected, crash states explored %d of %d possible, %d recovery failures",
			s.CampaignSchedules, s.FaultsInjected,
			s.CrashStatesExplored, s.CrashStatesPossible, s.RecoveryFailures)
		if s.CampaignDeadlineHits > 0 {
			fmt.Fprintf(&b, ", %d deadline expiries", s.CampaignDeadlineHits)
		}
		b.WriteByte('\n')
	}
	if s.DistSectionsSent > 0 || s.DistRetries > 0 || s.DistFailovers > 0 || s.DistFallbacks > 0 {
		fmt.Fprintf(&b, "dist     sent %d (retries %d, failovers %d, breaker opens %d), buffered %dB (peak %dB)",
			s.DistSectionsSent, s.DistRetries, s.DistFailovers, s.DistBreakerOpens,
			s.DistBufferedBytes, s.DistBufferedPeak)
		if s.DistSectionsDropped > 0 || s.DistFallbacks > 0 {
			fmt.Fprintf(&b, ", dropped %d, local fallbacks %d", s.DistSectionsDropped, s.DistFallbacks)
		}
		fmt.Fprintf(&b, "\n         rtt p50 %v / p99 %v over %d sections\n",
			s.DistRTT.P50, s.DistRTT.P99, s.DistRTT.Count)
	}
	if s.EncodeErrors > 0 || s.Err != "" {
		fmt.Fprintf(&b, "errors   encode failures %d: %s\n", s.EncodeErrors, s.Err)
	}
	return b.String()
}
