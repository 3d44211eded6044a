// Package dist is the distributed checking tier: trace sections recorded
// by a program under test stream over HTTP to checker nodes (cmd/pmtestd)
// that host core-engine sessions, so checking capacity scales past one
// process. Decoupled checking makes this safe: a section is a
// self-contained unit of work, so any node — or a fresh node after a
// failover — produces the same report for the same bytes. Each session
// pipelines its sections on one HTTP/1.1 connection, keeping up to 32
// written and unacknowledged.
//
// The robustness layer is the point of the package: per-RPC deadlines,
// capped exponential backoff with jitter, per-node circuit breakers,
// failover that replays buffered unacknowledged sections on a healthy
// node, and (by default) graceful degradation to a local in-process
// check when every node is down. Every degradation step is observable
// through obs counters (dist_retries, dist_failovers, dist_fallbacks,
// dist_buffered_bytes, ...).
package dist

import (
	"fmt"
	"net/http"

	"pmtest/internal/core"
)

// ProtocolVersion stamps OpenRequest so a node refuses a client speaking
// a different section protocol instead of misinterpreting it.
const ProtocolVersion = 1

// HTTP routes a checker node serves.
const (
	PathOpen    = "/v1/open"
	PathSection = "/v1/section"
	PathClose   = "/v1/close"
	PathHealth  = "/healthz"
	// PathReports is the coordinator read path: GET ?session=<sid>
	// returns every report the node holds for that session (empty list
	// for sessions it never hosted), so a fan-out query across the fleet
	// reassembles a session's reports wherever failovers scattered them.
	PathReports = "/reports/v1/query"
)

// Section request headers. The section body is one trace.Encode'd
// section; the CRC is crc32.ChecksumIEEE over exactly those bytes.
// headerSpan carries the client's originating section span ID for
// cross-node timeline correlation; it is optional in both directions —
// old clients omit it, old nodes ignore it — so the protocol version
// does not bump.
const (
	headerSeq  = "X-Pmtest-Seq"
	headerCRC  = "X-Pmtest-Crc32"
	headerSpan = "X-Pmtest-Span"
)

// OpenRequest establishes (or idempotently re-establishes) a checking
// session on a node. StartSeq is the sequence number of the first
// section this node will receive — 0 for a fresh session, the head of
// the client's unacknowledged buffer after a failover.
type OpenRequest struct {
	Version   int          `json:"version"`
	Session   string       `json:"session"`
	Model     string       `json:"model"`
	TrackOnly bool         `json:"track_only,omitempty"`
	Excludes  []core.Range `json:"excludes,omitempty"`
	StartSeq  uint64       `json:"start_seq"`
}

// OpenResponse acknowledges a session. NextSeq is the sequence number
// the node expects next — equal to StartSeq on a fresh open, further
// along when the open was an idempotent replay.
type OpenResponse struct {
	Session string `json:"session"`
	NextSeq uint64 `json:"next_seq"`
}

// CloseResponse reports how many sections the node checked for the
// session being torn down.
type CloseResponse struct {
	Session  string `json:"session"`
	Sections uint64 `json:"sections"`
}

// ReportsResponse is the PathReports document: the reports a node holds
// for one session, in section order. StartSeq is the seq of the first
// report (the node's replay-window base), so a coordinator merging
// responses from several nodes can place each slice on the session's
// global sequence axis.
type ReportsResponse struct {
	Session  string        `json:"session"`
	StartSeq uint64        `json:"start_seq"`
	Reports  []core.Report `json:"reports"`
}

// RPCError is a non-2xx response from a node, preserving the status so
// the client can classify it (retryable, session-lost, refused).
type RPCError struct {
	Status int
	Msg    string
}

func (e *RPCError) Error() string {
	return fmt.Sprintf("dist: node returned %d: %s", e.Status, e.Msg)
}

// errClass buckets an RPC failure for the retry ladder.
type errClass int

const (
	// classRetryable: transient — network failure, timeout, 5xx, or a
	// CRC mismatch (422, the bytes can be resent intact).
	classRetryable errClass = iota
	// classSessionLost: the node does not know the session (404) or its
	// sequence accounting diverged (409) — re-open with StartSeq at the
	// head of the unacknowledged buffer, on this node or another.
	classSessionLost
	// classRefused: the node understood the request and rejected it
	// permanently (bad protocol version, unknown model, undecodable
	// section) — retrying the same bytes cannot succeed.
	classRefused
)

// classify maps an error from a Transport call to its retry class.
// Anything that is not a typed RPCError is a transport-level failure
// (dial, deadline, connection reset) and therefore retryable.
func classify(err error) errClass {
	re, ok := err.(*RPCError)
	if !ok {
		return classRetryable
	}
	switch {
	case re.Status == http.StatusNotFound, re.Status == http.StatusConflict:
		return classSessionLost
	case re.Status == http.StatusUnprocessableEntity, re.Status >= 500:
		return classRetryable
	default:
		return classRefused
	}
}

// rulesByName maps the wire model names (RuleSet.Name) back to rule
// sets, node-side.
func rulesByName(name string) (core.RuleSet, bool) {
	switch name {
	case "x86", "":
		return core.X86{}, true
	case "arm":
		return core.ARM{}, true
	case "hops":
		return core.HOPS{}, true
	case "epoch":
		return core.Epoch{}, true
	}
	return nil, false
}
