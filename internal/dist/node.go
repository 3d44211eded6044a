package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// NodeConfig configures a checker node.
type NodeConfig struct {
	// Metrics receives engine lifecycle events for every hosted session
	// (scraped via the node's -obs-listen endpoint). Optional.
	Metrics *obs.Metrics
	// Flight records engine check spans for hosted sessions. Optional.
	Flight *flight.Recorder
	// Logger receives session lifecycle records. Optional.
	Logger *slog.Logger
	// MaxSessions bounds concurrently hosted sessions (default 256);
	// opens beyond it are refused with 503 (retryable client-side).
	MaxSessions int
	// SessionTTL reaps sessions idle longer than this (default 5m), so
	// clients that failed over away do not pin sessions forever.
	SessionTTL time.Duration

	now func() time.Time // test hook
	// lookedUp, when set, runs after a section request has looked up its
	// session and before it takes the session lock (test hook).
	lookedUp func(*nodeSession)
}

// Node hosts checking sessions behind the HTTP section protocol. One
// Node serves many sessions; cmd/pmtestd runs one Node per process.
// Each session is checked under the spec its open request carries
// (model, TrackOnly, Excludes, stripes and epoch GC); the node adds
// only its observer and logger.
type Node struct {
	cfg NodeConfig

	mu        sync.Mutex
	sessions  map[string]*nodeSession
	lastSweep time.Time
	closed    bool
}

// maxShards bounds the stripes one open may ask for: each stripe is a
// goroutine for as long as the session is hosted, and a node hosts up
// to MaxSessions sessions.
const maxShards = 64

// nodeSession is one hosted checking session: the worker that checks
// its sections, its reports, and the sequence bookkeeping that makes
// section delivery idempotent. A section request holds mu from its
// check until its ack is written, so the session checks one section at
// a time, on the request's goroutine.
type nodeSession struct {
	mu     sync.Mutex
	worker *core.Worker
	// base is the seq of the first section this session checked; the
	// worker's trace IDs are seq-base.
	base uint64
	// reports holds each checked section's report at index seq-base, so
	// base+len(reports) is the next seq expected. A smaller seq replays
	// its report; a larger one is a gap (409).
	reports  []core.Report
	lastUsed time.Time
	// closed is set, under mu, when the session leaves the node. A
	// section handler that looked the session up before it left the
	// node's map then answers 404 instead of checking.
	closed bool
}

// next returns the next seq the session expects; callers hold s.mu.
func (s *nodeSession) next() uint64 { return s.base + uint64(len(s.reports)) }

// close marks the session closed, stops its worker and returns how
// many sections it checked. Whoever removes a session from the node's
// map calls it once.
func (s *nodeSession) close() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.worker.Close()
	return uint64(len(s.reports))
}

// NewNode returns a node ready to mount: its ServeHTTP handles the
// /v1/* section protocol and /healthz.
func NewNode(cfg NodeConfig) *Node {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 256
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 5 * time.Minute
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Node{cfg: cfg, sessions: make(map[string]*nodeSession), lastSweep: cfg.now()}
}

// Sessions returns the number of currently hosted sessions.
func (n *Node) Sessions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sessions)
}

// Close tears down every hosted session and stops accepting new ones.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	sessions := n.sessions
	n.sessions = make(map[string]*nodeSession)
	n.mu.Unlock()
	for _, s := range sessions {
		s.close()
	}
}

func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == PathHealth:
		io.WriteString(w, "ok\n")
	case r.URL.Path == PathOpen && r.Method == http.MethodPost:
		n.handleOpen(w, r)
	case r.URL.Path == PathSection && r.Method == http.MethodPost:
		n.handleSection(w, r)
	case r.URL.Path == PathClose && r.Method == http.MethodPost:
		n.handleClose(w, r)
	case r.URL.Path == PathReports && r.Method == http.MethodGet:
		n.handleReports(w, r)
	default:
		http.NotFound(w, r)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}

func (n *Node) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad open request: %v", err)
		return
	}
	if req.Version != ProtocolVersion {
		httpError(w, http.StatusBadRequest, "protocol version %d, node speaks %d", req.Version, ProtocolVersion)
		return
	}
	if req.Session == "" {
		httpError(w, http.StatusBadRequest, "empty session id")
		return
	}
	model := req.Model
	if model == "" {
		model = "x86"
	}
	rules, ok := core.Models()[model]
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown model %q", req.Model)
		return
	}
	if req.Check.Shards > maxShards {
		httpError(w, http.StatusBadRequest, "%d shards, node allows at most %d", req.Check.Shards, maxShards)
		return
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "node shutting down")
		return
	}
	n.sweepLocked()
	sess := n.sessions[req.Session]
	if sess != nil && sess.base != req.StartSeq {
		// A re-open at a different start point supersedes the old
		// incarnation (the client failed over away and came back with a
		// new replay window); the old session's reports are already held
		// client-side or will be re-checked.
		delete(n.sessions, req.Session)
		sess.close()
		sess = nil
	}
	if sess == nil {
		if len(n.sessions) >= n.cfg.MaxSessions {
			n.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "session limit %d reached", n.cfg.MaxSessions)
			return
		}
		excludes := append([]core.Range(nil), req.Excludes...)
		sess = &nodeSession{
			worker: core.NewWorker(core.Options{
				Rules:          rules,
				Check:          req.Check,
				TrackOnly:      req.TrackOnly,
				StaticExcludes: excludes,
				Observer:       obs.Multi(n.cfg.Metrics, flight.EngineObserver(n.cfg.Flight)),
				Logger:         n.cfg.Logger,
			}),
			base: req.StartSeq,
		}
		n.sessions[req.Session] = sess
		if lg := n.cfg.Logger; lg != nil {
			lg.Info("dist session opened", "session", req.Session, "model", req.Model,
				"shards", req.Check.Shards, "epoch_gc", req.Check.EpochGC, "start_seq", req.StartSeq)
		}
	}
	sess.mu.Lock()
	sess.lastUsed = n.cfg.now()
	next := sess.next()
	sess.mu.Unlock()
	n.mu.Unlock()

	writeJSON(w, OpenResponse{Session: req.Session, NextSeq: next})
}

func (n *Node) handleSection(w http.ResponseWriter, r *http.Request) {
	sid := sessionParam(r.URL.RawQuery)
	seq, err := strconv.ParseUint(r.Header.Get(headerSeq), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad %s: %v", headerSeq, err)
		return
	}
	// The originating client section span, for cross-node correlation.
	// The header is optional (old clients omit it) and advisory — a
	// malformed value degrades to "uncorrelated", never an error.
	remoteSpan, _ := strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
	var rpcSpan *flight.Span
	if fl := n.cfg.Flight; fl != nil {
		rpcSpan = fl.Start(flight.CatRPC, "handle-section", 0).
			SetStr("remote_session_id", sid).
			SetInt("seq", int64(seq))
		if remoteSpan != 0 {
			rpcSpan.SetInt("remote_span_id", int64(remoteSpan))
		}
		defer rpcSpan.Finish()
	}
	wantCRC, err := strconv.ParseUint(r.Header.Get(headerCRC), 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad %s: %v", headerCRC, err)
		return
	}
	// Every section decodes under trace.DefaultLimits: a corrupt or
	// hostile length prefix is refused, not allocated.
	lim := trace.DefaultLimits
	sb := sectionPool.Get().(*sectionBuf)
	defer sb.release()
	body, err := sb.read(r, lim.MaxBytes+1)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading section: %v", err)
		return
	}
	if int64(len(body)) > lim.MaxBytes {
		httpError(w, http.StatusBadRequest, "section exceeds %d-byte limit", lim.MaxBytes)
		return
	}
	if got := crc32.ChecksumIEEE(body); got != uint32(wantCRC) {
		// The frame was damaged in flight; the client still holds the
		// original bytes, so this is retryable (422), not refused.
		httpError(w, http.StatusUnprocessableEntity, "section crc %08x, frame claims %08x", got, wantCRC)
		return
	}

	n.mu.Lock()
	sess := n.sessions[sid]
	n.mu.Unlock()
	if sess == nil {
		rpcSpan.SetErr(true)
		httpError(w, http.StatusNotFound, "unknown session %q", sid)
		return
	}
	if n.cfg.lookedUp != nil {
		n.cfg.lookedUp(sess)
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		// A close, reap or superseding open ran since the lookup; to the
		// client that is a lost session, which it reopens and replays.
		rpcSpan.SetErr(true)
		httpError(w, http.StatusNotFound, "session %q closed", sid)
		return
	}
	sess.lastUsed = n.cfg.now()
	switch next := sess.next(); {
	case seq < sess.base:
		// Acknowledged before this session's replay window — the client
		// already holds that report and never legitimately re-asks.
		rpcSpan.SetErr(true)
		httpError(w, http.StatusConflict, "seq %d precedes session base %d", seq, sess.base)
		return
	case seq > next:
		rpcSpan.SetErr(true)
		httpError(w, http.StatusConflict, "seq %d leaves a gap (next expected %d)", seq, next)
		return
	case seq == next:
		tr := &sb.tr
		if err := trace.DecodeBytes(tr, body, lim); err != nil {
			rpcSpan.SetErr(true)
			httpError(w, http.StatusBadRequest, "undecodable section: %v", err)
			return
		}
		// Stamp the client's correlation identity on the trace before it
		// is checked: the observer seam copies it onto the node-side
		// engine/stripe/checker spans and log records. The node's own rpc
		// span becomes the section's local parent, so the node timeline
		// stays a well-formed tree (rpc → check → stripes) while
		// remote_span_id points back across the process boundary.
		tr.ID = int(seq - sess.base)
		tr.RemoteSession = sid
		tr.RemoteSpan = remoteSpan
		if rpcSpan != nil {
			tr.SpanID = rpcSpan.ID
		}
		if lg := n.cfg.Logger; lg != nil {
			lg.Debug("dist section received", "session", sid, "seq", seq,
				"remote_session_id", sid, "remote_span_id", remoteSpan, "bytes", len(body))
		}
		rep := sess.worker.Check(tr)
		rep.TraceID = int(seq)
		sess.reports = append(sess.reports, rep)
	default:
		// Duplicate delivery (seq < next) replays the stored report:
		// idempotent after a lost ack. Tagged so a span search can count
		// redeliveries per session.
		rpcSpan.SetInt("replay", 1)
	}
	sb.ack = appendReport(sb.ack[:0], sess.reports[seq-sess.base])
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(sb.ack)))
	w.Write(sb.ack)
}

// maxBodyPrealloc caps the buffer a section body reserves from its
// Content-Length before any byte arrives, so a lying header cannot make
// the node commit more than this up front. Pooled section buffers that
// grew past it are dropped, not kept.
const maxBodyPrealloc = 64 << 10

// sectionBuf is one section request's body, the trace decoded from it
// and its ack, pooled across requests and sessions: the body buffer, the
// trace's op slice, which DecodeBytes sizes from the body, and the ack
// buffer are reused.
type sectionBuf struct {
	body bytes.Buffer
	lim  io.LimitedReader
	tr   trace.Trace
	ack  []byte
}

var sectionPool = sync.Pool{New: func() any { return new(sectionBuf) }}

// read reads at most limit bytes of r's body into b. The buffer is
// presized from Content-Length, up to maxBodyPrealloc, plus the MinRead
// spare bytes that let the final read see EOF without growing it.
func (b *sectionBuf) read(r *http.Request, limit int64) ([]byte, error) {
	b.body.Reset()
	if r.ContentLength > 0 {
		b.body.Grow(int(min(r.ContentLength, maxBodyPrealloc)) + bytes.MinRead)
	}
	b.lim = io.LimitedReader{R: r.Body, N: limit}
	_, err := b.body.ReadFrom(&b.lim)
	b.lim.R = nil
	return b.body.Bytes(), err
}

// release returns b to the pool unless its body or ack buffer is larger
// than maxBodyPrealloc: a large section's buffers go to the collector.
// The trace is bounded with the body, since DecodeBytes holds no more
// ops than the body's bytes encode.
func (b *sectionBuf) release() {
	if b.body.Cap() <= maxBodyPrealloc && cap(b.ack) <= maxBodyPrealloc {
		sectionPool.Put(b)
	}
}

// handleReports serves the fleet report read path: every report this
// node holds for one session. A session this node never hosted (or
// already closed or reaped) answers an empty list, not an error — the
// fan-out querier treats "no data here" as a normal outcome, reserving
// error rows for nodes that are actually unreachable.
func (n *Node) handleReports(w http.ResponseWriter, r *http.Request) {
	sid := sessionParam(r.URL.RawQuery)
	if sid == "" {
		httpError(w, http.StatusBadRequest, "missing session parameter")
		return
	}
	n.mu.Lock()
	sess := n.sessions[sid]
	n.mu.Unlock()
	out := ReportsResponse{Session: sid, Reports: []core.Report{}}
	if sess != nil {
		sess.mu.Lock()
		out.StartSeq = sess.base
		out.Reports = append(out.Reports, sess.reports...)
		sess.mu.Unlock()
	}
	writeJSON(w, out)
}

func (n *Node) handleClose(w http.ResponseWriter, r *http.Request) {
	sid := sessionParam(r.URL.RawQuery)
	n.mu.Lock()
	sess := n.sessions[sid]
	delete(n.sessions, sid)
	n.mu.Unlock()
	if sess == nil {
		httpError(w, http.StatusNotFound, "unknown session %q", sid)
		return
	}
	count := sess.close()
	if lg := n.cfg.Logger; lg != nil {
		lg.Info("dist session closed", "session", sid, "sections", count)
	}
	writeJSON(w, CloseResponse{Session: sid, Sections: count})
}

// sweepLocked reaps idle sessions; callers hold n.mu. Sweeps run at
// most every SessionTTL/2 so the common path stays O(1).
func (n *Node) sweepLocked() {
	now := n.cfg.now()
	if now.Sub(n.lastSweep) < n.cfg.SessionTTL/2 {
		return
	}
	n.lastSweep = now
	for sid, s := range n.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		s.mu.Unlock()
		if idle > n.cfg.SessionTTL {
			delete(n.sessions, sid)
			s.close()
			if lg := n.cfg.Logger; lg != nil {
				lg.Warn("dist session reaped", "session", sid, "idle", idle)
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
