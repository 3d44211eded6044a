package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Handler serves the registry over HTTP for live introspection. The
// default response is Prometheus text exposition (scrapeable by any
// Prometheus-compatible collector); `?format=json` or an
// `Accept: application/json` header returns the full Snapshot as JSON,
// including the recent-trace ring.
func Handler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wantsJSON(r) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(m.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, m.Snapshot())
	})
}

func wantsJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// writeProm renders the snapshot in Prometheus text format. Durations
// are exported in seconds, per Prometheus convention.
func writeProm(w http.ResponseWriter, s Snapshot) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter("pmtest_traces_submitted_total", "Trace sections handed to the checking engine.", s.TracesSubmitted)
	counter("pmtest_traces_dequeued_total", "Trace sections picked up by checking workers.", s.TracesDequeued)
	counter("pmtest_traces_checked_total", "Trace sections fully checked.", s.TracesChecked)
	counter("pmtest_ops_submitted_total", "PM operations contained in submitted traces.", s.OpsSubmitted)
	counter("pmtest_ops_checked_total", "PM operations walked by the checker.", s.OpsChecked)
	counter("pmtest_sections_shipped_total", "SendTrace calls that shipped a section.", s.SectionsShipped)
	counter("pmtest_ops_recorded_total", "Operations recorded into shipped sections.", s.OpsRecorded)
	counter("pmtest_bytes_encoded_total", "Bytes serialized via Config.RecordTo.", s.BytesEncoded)
	counter("pmtest_encode_errors_total", "RecordTo encode failures.", s.EncodeErrors)
	counter("pmtest_backpressure_stalls_total", "Submit calls that blocked on a full worker queue.", s.BackpressureStalls)
	fmt.Fprintf(w, "# HELP pmtest_backpressure_stall_seconds_total Total time Submit spent blocked on full queues.\n")
	fmt.Fprintf(w, "# TYPE pmtest_backpressure_stall_seconds_total counter\n")
	fmt.Fprintf(w, "pmtest_backpressure_stall_seconds_total %g\n", s.BackpressureStall.Seconds())
	counter("pmtest_sharing_traces_fed_total", "Traces fed to the sharing analyzer.", s.SharingTracesFed)
	counter("pmtest_sharing_writes_tracked_total", "PM writes tracked by the sharing analyzer.", s.SharingWritesTracked)
	counter("pmtest_campaign_schedules_total", "Fault-injection schedules executed.", s.CampaignSchedules)
	counter("pmtest_faults_injected_total", "Faults injected into workload runs.", s.FaultsInjected)
	counter("pmtest_crash_states_explored_total", "Crash states materialized and validated.", s.CrashStatesExplored)
	counter("pmtest_crash_states_possible_total", "Crash states the explored dirty sets could produce (clamped per probe).", s.CrashStatesPossible)
	counter("pmtest_recovery_failures_total", "Crash states whose recovery failed (demonstrated bugs).", s.RecoveryFailures)
	counter("pmtest_campaign_deadline_hits_total", "Campaigns cut short by their deadline.", s.CampaignDeadlineHits)
	counter("pmtest_dist_sections_sent_total", "Sections acknowledged by remote checker nodes.", s.DistSectionsSent)
	counter("pmtest_dist_retries_total", "Distributed-checking RPC attempts beyond the first.", s.DistRetries)
	counter("pmtest_dist_failovers_total", "Checking sessions re-established on another node.", s.DistFailovers)
	counter("pmtest_dist_breaker_opens_total", "Per-node circuit breaker closed-to-open transitions.", s.DistBreakerOpens)
	counter("pmtest_dist_fallbacks_total", "Sessions degraded to a local in-process engine.", s.DistFallbacks)
	counter("pmtest_dist_rpc_errors_total", "Failed distributed-checking RPC attempts.", s.DistRPCErrors)
	fmt.Fprintf(w, "# HELP pmtest_dist_buffered_bytes Encoded section bytes currently buffered unacknowledged.\n")
	fmt.Fprintf(w, "# TYPE pmtest_dist_buffered_bytes gauge\n")
	fmt.Fprintf(w, "pmtest_dist_buffered_bytes %d\n", s.DistBufferedBytes)

	if len(s.DiagsBySeverity) > 0 {
		fmt.Fprintf(w, "# HELP pmtest_diagnostics_total Diagnostics reported, by severity.\n# TYPE pmtest_diagnostics_total counter\n")
		for _, sev := range sortedKeys(s.DiagsBySeverity) {
			fmt.Fprintf(w, "pmtest_diagnostics_total{severity=%q} %d\n", sev, s.DiagsBySeverity[sev])
		}
	}
	if len(s.DiagsByCode) > 0 {
		fmt.Fprintf(w, "# HELP pmtest_diagnostics_code_total Diagnostics reported, by code.\n# TYPE pmtest_diagnostics_code_total counter\n")
		for _, code := range sortedKeys(s.DiagsByCode) {
			fmt.Fprintf(w, "pmtest_diagnostics_code_total{code=%q} %d\n", code, s.DiagsByCode[code])
		}
	}

	writePromHist(w, "pmtest_queue_wait_seconds", "Time from Submit to worker dequeue.", s.QueueWait)
	writePromHist(w, "pmtest_check_duration_seconds", "Time a worker spent checking one trace.", s.CheckDur)
	if s.DistRTT.Count > 0 {
		writePromHist(w, "pmtest_dist_rtt_seconds", "Remote section latency, from writing the section request into the stream's buffer to reading its report ack (includes waiting for its burst to be flushed and behind earlier sections in the window).", s.DistRTT)
	}

	if len(s.PerWorkerChecked) > 0 {
		fmt.Fprintf(w, "# HELP pmtest_worker_traces_checked_total Traces checked, by worker.\n# TYPE pmtest_worker_traces_checked_total counter\n")
		for i, n := range s.PerWorkerChecked {
			fmt.Fprintf(w, "pmtest_worker_traces_checked_total{worker=\"%d\"} %d\n", i, n)
		}
	}
	if len(s.QueueDepths) > 0 {
		fmt.Fprintf(w, "# HELP pmtest_worker_queue_depth Traces currently queued, by worker.\n# TYPE pmtest_worker_queue_depth gauge\n")
		for i, d := range s.QueueDepths {
			fmt.Fprintf(w, "pmtest_worker_queue_depth{worker=\"%d\"} %d\n", i, d)
		}
	}
	fmt.Fprintf(w, "# HELP pmtest_uptime_seconds Time since the metrics registry was created.\n# TYPE pmtest_uptime_seconds gauge\n")
	fmt.Fprintf(w, "pmtest_uptime_seconds %g\n", s.Uptime.Seconds())
}

func writePromHist(w http.ResponseWriter, name, help string, h HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, b := range h.Buckets {
		le := "+Inf"
		if b.Le != 0 {
			le = fmt.Sprintf("%g", b.Le.Seconds())
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, b.Count)
	}
	if n := len(h.Buckets); n == 0 || h.Buckets[n-1].Le != 0 {
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	}
	fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum.Seconds(), name, h.Count)
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
