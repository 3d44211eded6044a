// Package dist is the distributed checking tier: trace sections recorded
// by a program under test stream over HTTP to checker nodes (cmd/pmtestd)
// that host core-engine sessions, so checking capacity scales past one
// process. Decoupled checking makes this safe: a section is a
// self-contained unit of work, so any node — or a fresh node after a
// failover — produces the same report for the same bytes. Each session
// pipelines its sections on one HTTP/1.1 connection, keeping up to 32
// written and unacknowledged, and flushes them in bursts: only once at
// most half the window is unanswered. A node acks each section with its
// report in a compact binary form under an explicit Content-Length,
// which the client reads without net/http's response machinery.
//
// One type is the client: Open returns a Session, which homes on a node
// by session-id hash and owns everything its delivery needs. The
// session's check spec, one core.Options, is decided by its caller: the
// session sends it in every open (protocol version 3), each node builds
// the session's worker from that request alone, and the local check is
// a core.Worker built from the same spec, observer and logger included,
// so a report does not depend on which of them checked the section. The
// robustness layer is the point of the package: per-RPC deadlines,
// capped exponential backoff with jitter, one circuit breaker per node
// in each session (fed by that session's traffic alone; there is no
// background health prober), failover that replays buffered
// unacknowledged sections on a healthy node, and graceful degradation
// to that local check when every node is down or one refuses a
// section. The buffer holds each section as its encoded payload alone,
// which the local check decodes as a node does. A section that does not
// encode, or that is larger than the session's 16 MiB buffer, keeps its
// trace and takes that local check without being sent. Every section gets
// exactly one report, in seq order, and every degradation step is
// observable through obs counters (dist_retries, dist_failovers,
// dist_fallbacks, dist_buffered_bytes, ...).
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"pmtest/internal/core"
)

// ProtocolVersion stamps OpenRequest so a node refuses a client speaking
// a different section protocol instead of misinterpreting it. Version 3
// carries the session's checker configuration in OpenRequest.Check, so
// an older node refuses the open rather than check without it; version
// 2 acks a section with a binary report (appendReport), and version 1
// acked it with JSON.
const ProtocolVersion = 3

// HTTP routes a checker node serves.
const (
	PathOpen    = "/v1/open"
	PathSection = "/v1/section"
	PathClose   = "/v1/close"
	PathHealth  = "/healthz"
	// PathReports is the fleet report read path: GET ?session=<sid>
	// returns every report the node holds for that session (empty list
	// for sessions it never hosted or no longer holds), so a fan-out
	// query across the fleet reassembles a session's reports wherever
	// failovers scattered them.
	PathReports = "/reports/v1/query"
)

// Section request headers. The section body is one trace.Encode'd
// section; the CRC is crc32.ChecksumIEEE over exactly those bytes. A
// 2xx response carries the section's report in appendReport's form
// under a Content-Length; any other status carries the node's message
// as plain text.
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
// session on a node. It carries the session's whole check spec: the
// model, TrackOnly, Excludes and the checker configuration (stripes,
// epoch GC, GC lag), from which the node builds the session's worker
// alone, so a node checks every section as the session's local check
// does. StartSeq is the sequence number of the first section this node
// will receive — 0 for a fresh session, the head of the client's
// unacknowledged buffer after a failover.
type OpenRequest struct {
	Version   int          `json:"version"`
	Session   string       `json:"session"`
	Model     string       `json:"model"`
	TrackOnly bool         `json:"track_only,omitempty"`
	Excludes  []core.Range `json:"excludes,omitempty"`
	Check     core.Config  `json:"check"`
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
// report (the node's replay-window base), so a reader merging
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

// sessionParam returns the session query parameter of a request from
// its raw query, without building the query map.
func sessionParam(rawQuery string) string {
	for rawQuery != "" {
		var kv string
		kv, rawQuery, _ = strings.Cut(rawQuery, "&")
		if v, ok := strings.CutPrefix(kv, "session="); ok {
			sid, _ := url.QueryUnescape(v) // a malformed escape names no session
			return sid
		}
	}
	return ""
}

// appendReport appends r's ack form to b: varint TraceID, Thread, Ops,
// TrackedOps and diagnostic count, then per diagnostic its severity
// byte, length-prefixed Code, Message, Site and Related, and varint
// OpIndex. Strings are carried byte for byte.
func appendReport(b []byte, r core.Report) []byte {
	for _, v := range [...]int{r.TraceID, r.Thread, r.Ops, r.TrackedOps, len(r.Diags)} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, d := range r.Diags {
		b = append(b, byte(d.Severity))
		for _, s := range [...]string{string(d.Code), d.Message, d.Site, d.Related} {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		b = binary.AppendVarint(b, int64(d.OpIndex))
	}
	return b
}

// minDiagWire is the fewest bytes a diagnostic takes in an ack: its
// severity, four empty strings and a one-byte OpIndex.
const minDiagWire = 6

var errBadAck = errors.New("dist: malformed report ack")

// ackDecoder reads appendReport's fields from the front of b; the first
// malformed field sets bad, and every read after it returns zero.
type ackDecoder struct {
	b   []byte
	bad bool
}

func (d *ackDecoder) varint() int {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *ackDecoder) str() string {
	n, k := binary.Uvarint(d.b)
	if k <= 0 || n > uint64(len(d.b)-k) {
		d.bad, d.b = true, nil
		return ""
	}
	s := string(d.b[k : k+int(n)])
	d.b = d.b[k+int(n):]
	return s
}

// parseReport decodes one appendReport ack, which must fill b exactly.
// It allocates no more diagnostics than b's remaining bytes can hold.
func parseReport(b []byte) (core.Report, error) {
	d := ackDecoder{b: b}
	r := core.Report{TraceID: d.varint(), Thread: d.varint(), Ops: d.varint(), TrackedOps: d.varint()}
	n := d.varint()
	if d.bad || n < 0 || n > len(d.b)/minDiagWire {
		return core.Report{}, errBadAck
	}
	if n > 0 {
		r.Diags = make([]core.Diagnostic, n)
	}
	for i := range r.Diags {
		if len(d.b) == 0 {
			return core.Report{}, errBadAck
		}
		sev := core.Severity(d.b[0])
		d.b = d.b[1:]
		r.Diags[i] = core.Diagnostic{Severity: sev, Code: core.Code(d.str()),
			Message: d.str(), Site: d.str(), Related: d.str(), OpIndex: d.varint()}
	}
	if d.bad || len(d.b) != 0 {
		return core.Report{}, errBadAck
	}
	return r, nil
}
