package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// SnapshotSchemaVersion identifies the /obs/v1/snapshot document layout.
// It is the durable contract between nodes and collectors: Merge and the
// collect package refuse documents carrying a different version rather
// than silently mis-summing renamed fields. Bump it on any change to the
// meaning or bucketing of an existing field; adding new optional fields
// is compatible and does not bump it.
const SnapshotSchemaVersion = 1

// NodeSnapshot is the self-describing observability document one node
// serves at /obs/v1/snapshot: schema stamp, node identity, full metrics
// snapshot (with complete histogram buckets, so merging is exact), the
// process's runtime health, and a flight-recorder span summary.
type NodeSnapshot struct {
	SchemaVersion int       `json:"schema_version"`
	Source        string    `json:"source"`
	Role          string    `json:"role,omitempty"`
	CapturedAt    time.Time `json:"captured_at"`
	GoVersion     string    `json:"go_version,omitempty"`

	Metrics Snapshot        `json:"metrics"`
	Runtime RuntimeSnapshot `json:"runtime"`
	Flight  *FlightSummary  `json:"flight,omitempty"`
}

// FlightSummary condenses a flight.Recorder's rings into mergeable
// per-category tallies; it lives here (not in internal/flight) so the
// snapshot schema has no dependency on the recorder implementation.
type FlightSummary struct {
	Categories []FlightCategorySummary `json:"categories,omitempty"`
}

// FlightCategorySummary tallies one span category's ring.
type FlightCategorySummary struct {
	Category string `json:"category"`
	// Spans is the number of spans resident in the ring (bounded by the
	// ring capacity, so it is a recency window, not a lifetime total).
	Spans int `json:"spans"`
	// Errs counts resident spans marked failed.
	Errs int `json:"errs"`
	// MaxDur is the longest resident span.
	MaxDur time.Duration `json:"max_dur_ns"`
	// Dur is the duration histogram over the resident spans (the fixed
	// Histogram buckets, merged bucket-exactly across nodes). An
	// all-zero value means the node predates the field — optional, so
	// it rides on schema version 1.
	Dur HistSnapshot `json:"dur,omitempty"`
}

// SourceStatus is the per-node provenance row of a merged snapshot: one
// entry per polled node, including the ones that failed, so a dashboard
// can always answer "which node is missing and why".
type SourceStatus struct {
	Source     string    `json:"source"`
	Role       string    `json:"role,omitempty"`
	Err        string    `json:"err,omitempty"`
	CapturedAt time.Time `json:"captured_at"`

	// Headline per-node figures, so the merged document alone can rank
	// nodes without refetching.
	Uptime        time.Duration `json:"uptime_ns,omitempty"`
	TracesChecked uint64        `json:"traces_checked,omitempty"`
	OpsPerSec     float64       `json:"ops_per_sec,omitempty"`
	Fails         uint64        `json:"fails,omitempty"`
	Goroutines    int           `json:"goroutines,omitempty"`
	HeapBytes     uint64        `json:"heap_bytes,omitempty"`
	QueuedTraces  int           `json:"queued_traces,omitempty"`
}

// MergedSnapshot is the fleet view: the same schema-stamped shape a
// single node serves, plus per-source provenance and a partial flag.
// Counters sum, histograms merge bucket-exactly, gauges aggregate as
// documented on Merge.
type MergedSnapshot struct {
	SchemaVersion int            `json:"schema_version"`
	Partial       bool           `json:"partial"`
	Sources       []SourceStatus `json:"sources"`

	Metrics Snapshot        `json:"metrics"`
	Runtime RuntimeSnapshot `json:"runtime"`
	Flight  *FlightSummary  `json:"flight,omitempty"`
}

// mergedRecentCap bounds the recent-trace ring of a merged snapshot.
const mergedRecentCap = 64

// --- Exact histogram merging ------------------------------------------------

// bucketIndex maps a serialized bucket bound back to its index in the
// fixed exponential layout. Le == 0 is the unbounded last bucket.
func bucketIndex(le time.Duration) (int, bool) {
	if le == 0 {
		return histBuckets - 1, true
	}
	for i := 0; i < histBuckets-1; i++ {
		if histBound(i) == le {
			return i, true
		}
	}
	return 0, false
}

// bucketCounts reconstructs the raw per-bucket counts from the snapshot's
// cumulative (and zero-compacted) bucket list. The compaction is
// lossless: skipped buckets held zero observations, and the cumulative
// counts pin every listed bucket exactly, so reconstruction is exact.
func (h HistSnapshot) bucketCounts() (*[histBuckets]uint64, error) {
	var counts [histBuckets]uint64
	var prevCum uint64
	prevIdx := -1
	for _, b := range h.Buckets {
		i, ok := bucketIndex(b.Le)
		if !ok {
			return nil, fmt.Errorf("obs: histogram bucket bound %v not in the fixed layout", b.Le)
		}
		if i <= prevIdx {
			return nil, fmt.Errorf("obs: histogram buckets out of order at bound %v", b.Le)
		}
		if b.Count < prevCum {
			return nil, fmt.Errorf("obs: histogram cumulative count decreases at bound %v", b.Le)
		}
		counts[i] = b.Count - prevCum
		prevCum = b.Count
		prevIdx = i
	}
	if prevCum != h.Count {
		return nil, fmt.Errorf("obs: histogram bucket sum %d != count %d", prevCum, h.Count)
	}
	return &counts, nil
}

// MergeHist merges histogram snapshots bucket-exactly: per-bucket counts
// add, sums add, and quantiles are recomputed from the merged buckets —
// the merge of N nodes is bit-identical to one histogram that observed
// every sample (commutative and associative, property-tested). It errors
// if any input's buckets do not fit the fixed layout (a node speaking a
// different schema).
func MergeHist(hs ...HistSnapshot) (HistSnapshot, error) {
	var counts [histBuckets]uint64
	var sum time.Duration
	for _, h := range hs {
		c, err := h.bucketCounts()
		if err != nil {
			return HistSnapshot{}, err
		}
		for i, v := range c {
			counts[i] += v
		}
		sum += h.Sum
	}
	return histFromCounts(&counts, sum), nil
}

// --- Snapshot merging -------------------------------------------------------

// mergeCodeMaps key-wise sums b into a (allocating a only when needed).
func mergeCodeMaps(a, b map[string]uint64) map[string]uint64 {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		a = make(map[string]uint64, len(b))
	}
	for k, v := range b {
		a[k] += v
	}
	return a
}

// mergeMetrics folds node metrics into the accumulator: counters and
// code maps sum, histograms merge exactly, uptime keeps the longest-
// running node, and throughput sums (fleet ops/sec). Per-worker and
// queue-depth detail stays per-node (see SourceStatus.QueuedTraces);
// recent traces interleave up to mergedRecentCap.
func mergeMetrics(acc *Snapshot, s Snapshot) error {
	qw, err := MergeHist(acc.QueueWait, s.QueueWait)
	if err != nil {
		return err
	}
	cd, err := MergeHist(acc.CheckDur, s.CheckDur)
	if err != nil {
		return err
	}
	rtt, err := MergeHist(acc.DistRTT, s.DistRTT)
	if err != nil {
		return err
	}
	acc.QueueWait, acc.CheckDur, acc.DistRTT = qw, cd, rtt

	if s.Uptime > acc.Uptime {
		acc.Uptime = s.Uptime
	}
	acc.TracesSubmitted += s.TracesSubmitted
	acc.TracesDequeued += s.TracesDequeued
	acc.TracesChecked += s.TracesChecked
	acc.OpsSubmitted += s.OpsSubmitted
	acc.OpsChecked += s.OpsChecked
	acc.OpsPerSec += s.OpsPerSec
	acc.BackpressureStalls += s.BackpressureStalls
	acc.BackpressureStall += s.BackpressureStall
	acc.SectionsShipped += s.SectionsShipped
	acc.OpsRecorded += s.OpsRecorded
	acc.BytesEncoded += s.BytesEncoded
	acc.EncodeErrors += s.EncodeErrors
	acc.SharingTracesFed += s.SharingTracesFed
	acc.SharingWritesTracked += s.SharingWritesTracked
	acc.CampaignSchedules += s.CampaignSchedules
	acc.FaultsInjected += s.FaultsInjected
	acc.CrashStatesExplored += s.CrashStatesExplored
	acc.CrashStatesPossible += s.CrashStatesPossible
	acc.RecoveryFailures += s.RecoveryFailures
	acc.CampaignDeadlineHits += s.CampaignDeadlineHits
	acc.DistSectionsSent += s.DistSectionsSent
	acc.DistRetries += s.DistRetries
	acc.DistFailovers += s.DistFailovers
	acc.DistBreakerOpens += s.DistBreakerOpens
	acc.DistFallbacks += s.DistFallbacks
	acc.DistRPCErrors += s.DistRPCErrors
	acc.DistBufferedBytes += s.DistBufferedBytes
	if s.DistBufferedPeak > acc.DistBufferedPeak {
		acc.DistBufferedPeak = s.DistBufferedPeak
	}
	acc.DiagsBySeverity = mergeCodeMaps(acc.DiagsBySeverity, s.DiagsBySeverity)
	acc.DiagsByCode = mergeCodeMaps(acc.DiagsByCode, s.DiagsByCode)

	acc.Resources.StatePoolGets += s.Resources.StatePoolGets
	acc.Resources.StatePoolMisses += s.Resources.StatePoolMisses
	acc.Resources.ShadowIntervalsLive += s.Resources.ShadowIntervalsLive
	if s.Resources.ShadowIntervalsMax > acc.Resources.ShadowIntervalsMax {
		acc.Resources.ShadowIntervalsMax = s.Resources.ShadowIntervalsMax
	}
	acc.Resources.GCRetiredIntervals += s.Resources.GCRetiredIntervals
	if g := acc.Resources.StatePoolGets; g > 0 {
		acc.Resources.StatePoolHitRate = float64(g-acc.Resources.StatePoolMisses) / float64(g)
	}

	if n := mergedRecentCap - len(acc.RecentTraces); n > 0 {
		if len(s.RecentTraces) < n {
			n = len(s.RecentTraces)
		}
		acc.RecentTraces = append(acc.RecentTraces, s.RecentTraces[:n]...)
	}
	return nil
}

// mergeFlight folds per-category span tallies by category name.
// Counts sum, MaxDur keeps the fleet maximum, and the duration
// histograms merge bucket-exactly — so the fleet's per-category span
// p99 is computed over the union of resident spans, not averaged per
// node. Errors only on a histogram outside the fixed bucket layout.
func mergeFlight(acc *FlightSummary, f *FlightSummary) (*FlightSummary, error) {
	if f == nil {
		return acc, nil
	}
	if acc == nil {
		acc = &FlightSummary{}
	}
	for _, c := range f.Categories {
		found := false
		for i := range acc.Categories {
			if acc.Categories[i].Category == c.Category {
				dur, err := MergeHist(acc.Categories[i].Dur, c.Dur)
				if err != nil {
					return acc, fmt.Errorf("flight category %q: %w", c.Category, err)
				}
				acc.Categories[i].Spans += c.Spans
				acc.Categories[i].Errs += c.Errs
				if c.MaxDur > acc.Categories[i].MaxDur {
					acc.Categories[i].MaxDur = c.MaxDur
				}
				acc.Categories[i].Dur = dur
				found = true
				break
			}
		}
		if !found {
			if _, err := c.Dur.bucketCounts(); err != nil {
				return acc, fmt.Errorf("flight category %q: %w", c.Category, err)
			}
			acc.Categories = append(acc.Categories, c)
		}
	}
	return acc, nil
}

// sourceStatus builds the provenance row for one successfully fetched
// node snapshot.
func sourceStatus(n NodeSnapshot) SourceStatus {
	st := SourceStatus{
		Source:        n.Source,
		Role:          n.Role,
		CapturedAt:    n.CapturedAt,
		Uptime:        n.Metrics.Uptime,
		TracesChecked: n.Metrics.TracesChecked,
		OpsPerSec:     n.Metrics.OpsPerSec,
		Fails:         n.Metrics.DiagsBySeverity["FAIL"],
		Goroutines:    n.Runtime.Goroutines,
		HeapBytes:     n.Runtime.HeapBytes,
	}
	for _, d := range n.Metrics.QueueDepths {
		st.QueuedTraces += d
	}
	return st
}

// Merge combines node snapshots into one fleet document with per-source
// provenance. Counters sum; histograms (check latency, queue wait, GC
// pauses) merge bucket-exactly, so fleet quantiles are computed over the
// union of samples, not averaged per node. It errors on a schema-version
// mismatch or a histogram that does not fit the fixed bucket layout —
// callers handling per-node degradation (the collect package) convert
// that into a per-source error instead of aborting the merge.
func Merge(snaps ...NodeSnapshot) (MergedSnapshot, error) {
	out := MergedSnapshot{SchemaVersion: SnapshotSchemaVersion}
	for i, n := range snaps {
		if n.SchemaVersion != SnapshotSchemaVersion {
			return MergedSnapshot{}, fmt.Errorf("obs: snapshot %q has schema_version %d, this merge speaks %d",
				n.Source, n.SchemaVersion, SnapshotSchemaVersion)
		}
		if err := mergeMetrics(&out.Metrics, n.Metrics); err != nil {
			return MergedSnapshot{}, fmt.Errorf("obs: snapshot %q: %w", n.Source, err)
		}
		if err := mergeRuntime(&out.Runtime, n.Runtime); err != nil {
			return MergedSnapshot{}, fmt.Errorf("obs: snapshot %q: %w", n.Source, err)
		}
		fl, err := mergeFlight(out.Flight, n.Flight)
		if err != nil {
			return MergedSnapshot{}, fmt.Errorf("obs: snapshot %q: %w", n.Source, err)
		}
		out.Flight = fl
		out.Sources = append(out.Sources, sourceStatus(snaps[i]))
	}
	return out, nil
}

// --- Node-side capture and serving -----------------------------------------

// SnapshotSource assembles the NodeSnapshot one node serves: its
// identity, its metrics registry, and optional providers for flight
// summaries. The zero value is usable (an all-zero snapshot).
type SnapshotSource struct {
	// Source is the node's self-reported identity (host:port or a
	// label); collectors fall back to the polled address when empty.
	Source string
	// Role labels what kind of process this node is ("pmtestd",
	// "workload", ...); fleet views use it to group nodes.
	Role    string
	Metrics *Metrics
	// StatsFn overrides Metrics.Snapshot when set — the session wires
	// (*pmtest.Session).Stats here so the document includes live queue
	// depths and deferred errors even when they bypass the registry.
	StatsFn func() Snapshot
	// FlightFn supplies the span summary (flight.Summarize(rec)).
	FlightFn func() *FlightSummary
}

// Capture assembles the node's current snapshot document.
func (s *SnapshotSource) Capture() NodeSnapshot {
	n := NodeSnapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Source:        s.Source,
		Role:          s.Role,
		CapturedAt:    time.Now().UTC(),
		GoVersion:     runtime.Version(),
		Runtime:       CaptureRuntime(),
	}
	switch {
	case s.StatsFn != nil:
		n.Metrics = s.StatsFn()
	case s.Metrics != nil:
		n.Metrics = s.Metrics.Snapshot()
	}
	if s.FlightFn != nil {
		n.Flight = s.FlightFn()
	}
	return n
}

// SnapshotHandler serves the versioned snapshot document as JSON — mount
// it at /obs/v1/snapshot beside the Prometheus Handler.
func SnapshotHandler(src *SnapshotSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(src.Capture())
	})
}
