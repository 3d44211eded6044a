package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// Transport is the RPC surface between a client and one checker node,
// abstracted so unit tests inject failures without a network. The
// production implementation is HTTPTransport.
type Transport interface {
	Open(ctx context.Context, node string, req OpenRequest) (OpenResponse, error)
	// Stream connects a session's ordered section stream to node. Every
	// write and every wait for an ack on it gets a deadline of timeout.
	Stream(node, session string, timeout time.Duration) (SectionStream, error)
	CloseSession(ctx context.Context, node, session string) error
}

// SectionStream carries one session's sections to one node in order:
// requests go out back to back and their acks come back in the same
// order. An ack carries the section's report, so "acked" and "checked"
// are the same event. After any error the stream is unusable and the
// caller closes it.
type SectionStream interface {
	// Send writes one encoded section without waiting for its ack; it
	// may buffer until a later Recv. span is the client's originating
	// section span ID for cross-node correlation (0 when no flight
	// recorder is attached); streams propagate it as an optional header.
	Send(seq uint64, payload []byte, crc uint32, span uint64) error
	// Recv returns the report of the oldest section sent and not yet
	// acknowledged. Before it waits it flushes what Send buffered, if
	// the sections already flushed and unanswered are too few to keep
	// the node busy, and always if none are.
	Recv() (core.Report, error)
	Close() error
}

// HTTPTransport speaks the /v1/* section protocol to pmtestd nodes.
type HTTPTransport struct {
	// Client carries the session RPCs (open and close) and defaults to
	// http.DefaultClient; per-RPC deadlines come from the caller's
	// context, so no Timeout is set here. Section streams dial their own
	// connection.
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// do issues the request and decodes a JSON 2xx body into out (when
// non-nil); non-2xx becomes a typed *RPCError.
func (t *HTTPTransport) do(req *http.Request, out any) error {
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrMsg))
		return rpcError(resp.StatusCode, msg)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// maxErrMsg caps the bytes of a node's error message an RPCError keeps.
const maxErrMsg = 4096

// rpcError turns a non-2xx status and its body into a typed *RPCError.
func rpcError(status int, body []byte) error {
	return &RPCError{Status: status, Msg: string(bytes.TrimSpace(body[:min(len(body), maxErrMsg)]))}
}

func (t *HTTPTransport) Open(ctx context.Context, node string, req OpenRequest) (OpenResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return OpenResponse{}, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+node+PathOpen, bytes.NewReader(body))
	if err != nil {
		return OpenResponse{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	var out OpenResponse
	return out, t.do(hr, &out)
}

// Stream dials one TCP connection and pipelines HTTP/1.1 section
// requests on it. Go's HTTP/1.1 server, the node's, answers pipelined
// requests one at a time and in order.
func (t *HTTPTransport) Stream(node, session string, timeout time.Duration) (SectionStream, error) {
	conn, err := net.DialTimeout("tcp", node, timeout)
	if err != nil {
		return nil, err
	}
	return newHTTPStream(conn, node, session, timeout), nil
}

// newHTTPStream runs one session's section stream to node over conn.
func newHTTPStream(conn net.Conn, node, session string, timeout time.Duration) *httpStream {
	return &httpStream{
		conn:    conn,
		timeout: timeout,
		bw:      bufio.NewWriterSize(conn, 32<<10),
		br:      bufio.NewReader(conn),
		prefix: "POST " + PathSection + "?session=" + url.QueryEscape(session) + " HTTP/1.1\r\n" +
			"Host: " + node + "\r\n",
	}
}

// flushAt is the most flushed and unanswered requests at which Recv
// flushes what Send buffered: half the window. With more than that on
// the wire the node has work queued, so new requests wait for the next
// burst, and a full window costs one write per burst instead of one per
// section.
const flushAt = window / 2

// maxAck caps the Content-Length of a response the stream reads. The
// largest report a node sends, 1 001 diagnostics that each name two
// sites of 64 KiB file names, is under 140 MB; a longer response is a
// retryable error.
const maxAck = 256 << 20

// httpStream is HTTPTransport's SectionStream: one connection, requests
// written through a buffer that Recv flushes in bursts, responses read
// in order by a minimal HTTP/1.1 reader that accepts only a
// Content-Length body.
type httpStream struct {
	conn    net.Conn
	timeout time.Duration
	bw      *bufio.Writer
	br      *bufio.Reader
	prefix  string // request line and the headers every section shares
	hdr     []byte // scratch for one request's header block
	body    []byte // one response's body, reused
	// buffered counts the requests Send wrote since the last flush, and
	// unanswered the flushed requests whose responses are not read yet.
	buffered, unanswered int
}

func (s *httpStream) Send(seq uint64, payload []byte, crc uint32, span uint64) error {
	h := append(s.hdr[:0], s.prefix...)
	h = append(h, "Content-Length: "...)
	h = strconv.AppendInt(h, int64(len(payload)), 10)
	h = append(h, "\r\n"+headerSeq+": "...)
	h = strconv.AppendUint(h, seq, 10)
	h = append(h, "\r\n"+headerCRC+": "...)
	h = strconv.AppendUint(h, uint64(crc), 10)
	if span != 0 {
		h = append(h, "\r\n"+headerSpan+": "...)
		h = strconv.AppendUint(h, span, 10)
	}
	h = append(h, "\r\n\r\n"...)
	s.hdr = h
	// Only a request that overflows the buffer reaches the connection.
	if len(h)+len(payload) > s.bw.Available() {
		if err := s.conn.SetWriteDeadline(time.Now().Add(s.timeout)); err != nil {
			return err
		}
	}
	if _, err := s.bw.Write(h); err != nil {
		return err
	}
	if _, err := s.bw.Write(payload); err != nil {
		return err
	}
	s.buffered++
	return nil
}

func (s *httpStream) Recv() (core.Report, error) {
	if err := s.conn.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return core.Report{}, err
	}
	if s.buffered > 0 && s.unanswered <= flushAt {
		if err := s.bw.Flush(); err != nil {
			return core.Report{}, err
		}
		s.unanswered += s.buffered
		s.buffered = 0
	}
	status, body, err := s.readResponse()
	if err != nil {
		return core.Report{}, err
	}
	s.unanswered--
	if status/100 != 2 {
		return core.Report{}, rpcError(status, body)
	}
	return parseReport(body)
}

// readResponse reads one response: the status line, the headers and a
// body of exactly Content-Length bytes. A response framed any other way
// is an error, which classify treats as retryable.
func (s *httpStream) readResponse() (status int, body []byte, err error) {
	line, err := s.line()
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.x NNN reason": three digits, then a space or the end.
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' ||
		(len(line) > 12 && line[12] != ' ') {
		return 0, nil, fmt.Errorf("dist: malformed status line %q", line)
	}
	code, err := strconv.ParseUint(string(line[9:12]), 10, 16)
	if err != nil {
		return 0, nil, fmt.Errorf("dist: malformed status line %q", line)
	}
	length := -1
	for {
		if line, err = s.line(); err != nil {
			return 0, nil, err
		}
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, err := strconv.ParseUint(string(bytes.TrimSpace(value)), 10, 63)
			if err != nil || n > maxAck || length >= 0 {
				return 0, nil, fmt.Errorf("dist: bad Content-Length %q (at most %d)", value, maxAck)
			}
			length = int(n)
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			return 0, nil, fmt.Errorf("dist: response framed by Transfer-Encoding %q", value)
		}
	}
	if length < 0 {
		return 0, nil, errors.New("dist: response without Content-Length")
	}
	body, err = s.readBody(length)
	return int(code), body, err
}

// line returns the next header line without its CRLF; it is valid until
// the next read.
func (s *httpStream) line() ([]byte, error) {
	l, err := s.br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF && len(l) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	l = l[:len(l)-1]
	if n := len(l); n > 0 && l[n-1] == '\r' {
		l = l[:n-1]
	}
	return l, nil
}

// readBody reads an n-byte body into the reused buffer, growing it only
// as bytes arrive, so a Content-Length the node does not back with bytes
// costs no memory.
func (s *httpStream) readBody(n int) ([]byte, error) {
	b := s.body[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), 512)))
		}
		k, err := s.br.Read(b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil && len(b) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	s.body = b
	return b, nil
}

func (s *httpStream) Close() error { return s.conn.Close() }

func (t *HTTPTransport) CloseSession(ctx context.Context, node, session string) error {
	u := "http://" + node + PathClose + "?session=" + url.QueryEscape(session)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	return t.do(hr, nil)
}

// Options configures a remote checking session (see Open).
type Options struct {
	// Nodes are the checker node addresses (host:port). Sessions shard
	// across them by session-id hash; failover walks the ring.
	Nodes []string
	// Transport defaults to an HTTPTransport.
	Transport Transport
	// RPCTimeout is the deadline of each RPC, each section write and
	// each wait for a section's ack (default 5s).
	RPCTimeout time.Duration
	// Attempts bounds tries of one RPC, or of getting one section
	// acknowledged, against one node before failing over (default 3);
	// retries wait Backoff delays.
	Attempts int
	// Backoff shapes the retry delays (zero value = defaults).
	Backoff Backoff

	// Metrics receives the dist_* robustness counters. Optional.
	Metrics *obs.Metrics
	// Flight records rpc/failover spans (flight.CatRPC). Optional.
	Flight *flight.Recorder
	// Logger receives retry/failover/fallback records, each carrying the
	// session ID as its "session" attribute. Optional.
	Logger *slog.Logger

	// Test hooks: injected clock and sleep (nil means real time), and
	// the buffer cap (0 means bufferCap).
	now       func() time.Time
	sleep     func(time.Duration)
	bufferCap int64
}

// bufferCap caps the payload bytes of a session's unacknowledged
// sections. At the cap Submit blocks (backpressure); a section larger
// than the whole buffer is checked in-process instead.
const bufferCap = 16 << 20

// A node's circuit breaker opens after breakerThreshold consecutive
// failures and refuses the node for breakerCooldown before admitting one
// half-open probe.
const (
	breakerThreshold = 3
	breakerCooldown  = 2 * time.Second
)

// homeNode shards a session onto a ring of n nodes by stable hash.
func homeNode(sid string, n int) int {
	h := fnv.New32a()
	io.WriteString(h, sid)
	return int(h.Sum32()) % n
}

// window is the most sections a session keeps written on its stream
// and not yet acknowledged.
const window = 32

// windowBytes caps the payload bytes a session keeps written and not
// yet acknowledged; a larger head is written alone. An ack can be large
// (a report carries up to a thousand diagnostics), so the section count
// alone does not rule out both sides blocking on full socket buffers:
// the node writing an ack the client is not yet reading, the client
// writing sections the node is not yet reading. Under this cap, what
// the client writes past the node's read position fits the node's
// receive buffer.
const windowBytes = 64 << 10

// pendingSection is one buffered, unacknowledged section: the wire
// payload, which serves both delivery and the local check, and the
// client section span ID (captured at Submit, since the trace may be
// mutated concurrently) propagated for cross-node correlation. txSpans
// (nil unless a flight recorder is attached) are the section's
// transaction spans, which the payload does not carry: the local check
// restores them and spanID, so its spans parent as a local session's.
// Only a section without a payload, one that did not encode or is
// larger than the whole buffer, keeps its trace: it enters only an
// empty buffer, so it is the head for as long as it is pending, and it
// is never written. The pump alone touches span and written.
type pendingSection struct {
	seq     uint64
	payload []byte
	crc     uint32
	spanID  uint64
	txSpans []trace.SpanRange
	tr      *trace.Trace
	// span is the section's one client rpc span, started at its first
	// write (or when it reaches the head unwritten).
	span *flight.Span
	// written is when the section's request was last written.
	written time.Time
}

// Session is a remote checking session: Submit buffers and streams
// sections to the session's current node, Wait/Close return reports
// byte-identical to a local engine's. It satisfies the same
// Submit/Wait/Close/QueueDepths surface as core.Engine.
type Session struct {
	opts Options
	// breakers holds one circuit breaker per node, index-aligned with
	// opts.Nodes; only this session's traffic feeds them.
	breakers []*breaker
	// local checks a section in-process, exactly as an engine worker
	// built from the session's spec does: the ladder's last rung. Only
	// the pump calls it, so it is never used concurrently.
	local *core.Worker
	sid   string
	// spec is the open request that carries the same spec to a node;
	// open stamps its StartSeq.
	spec OpenRequest
	rng  *rand.Rand

	mu   sync.Mutex
	cond *sync.Cond
	// pending holds every unacknowledged section in seq order; its
	// first sent entries are written on the stream. After an error the
	// stream is discarded and the slice is written again from its head,
	// on this node or another.
	pending      []*pendingSection
	pendingBytes int64
	nextSeq      uint64
	// reports holds the report of every resolved section in seq order:
	// the pump appends each as it pops the head.
	reports []core.Report
	nodeIdx int
	opened  bool
	closed  bool
	err     error
	done    chan struct{}

	// The pump alone touches these. nodeNext is the seq the session
	// open on nodeIdx expects next: a head past it, because the section
	// before was checked in-process, reopens the session at its own seq.
	// The stream exists only while the session is open on nodeIdx;
	// sentBytes is the payload of the first sent pending sections.
	nodeNext  uint64
	stream    SectionStream
	sent      int
	sentBytes int
}

// Open validates the options and starts a checking session named sid,
// homed on a node by session-id hash. check is the session's spec: its
// model, TrackOnly, StaticExcludes and Check configuration travel in
// every open, and the local check is core.NewWorker(check), observer
// and logger included (Workers does not apply). The remote side is
// established lazily by the first section, so a dead home node costs a
// failover, not an open error. Close the session to stop its sender
// goroutine.
func Open(sid string, check core.Options, opts Options) (*Session, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("dist: no checker nodes configured")
	}
	if opts.Transport == nil {
		opts.Transport = &HTTPTransport{}
	}
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 5 * time.Second
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	if opts.bufferCap <= 0 {
		opts.bufferCap = bufferCap
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if opts.sleep == nil {
		opts.sleep = time.Sleep
	}
	if check.Rules == nil {
		check.Rules = core.X86{}
	}
	h := fnv.New64a()
	io.WriteString(h, sid)
	s := &Session{
		opts:  opts,
		local: core.NewWorker(check),
		sid:   sid,
		spec: OpenRequest{Version: ProtocolVersion, Session: sid, Model: check.Rules.Name(),
			TrackOnly: check.TrackOnly, Excludes: check.StaticExcludes, Check: check.Check},
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
		nodeIdx: homeNode(sid, len(opts.Nodes)),
		done:    make(chan struct{}),
	}
	onOpen := func() {
		if m := opts.Metrics; m != nil {
			m.DistBreakerOpens.Add(1)
		}
	}
	for range opts.Nodes {
		s.breakers = append(s.breakers, newBreaker(breakerThreshold, breakerCooldown, opts.now, onOpen))
	}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s, nil
}

// Node returns the address of the node currently holding the session's
// remote engine, or "" before the first section lands (or after a full
// degradation to local checking).
func (s *Session) Node() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.opened {
		return ""
	}
	return s.opts.Nodes[s.nodeIdx]
}

// Submit buffers one section for remote checking, blocking while the
// unacknowledged buffer is full (backpressure). The section takes its
// seq when it enters the buffer, and t.ID becomes that seq, which is its
// report's TraceID. A section that does not encode, or that is larger
// than the whole buffer, enters only an empty buffer and is checked
// in-process once the pump reaches it. Like core.Engine, Submit after
// Close panics.
func (s *Session) Submit(t *trace.Trace) {
	// Encode outside the lock: a node numbers a section by its
	// X-Pmtest-Seq header, never by the ID inside the payload.
	payload, encErr := trace.AppendEncode(nil, t)
	p := &pendingSection{spanID: t.SpanID, txSpans: t.TxSpans}
	if encErr == nil && int64(len(payload)) <= s.opts.bufferCap {
		p.payload = payload
		p.crc = crc32.ChecksumIEEE(payload)
	} else {
		p.tr = t
	}
	sz := int64(len(p.payload))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("dist: Submit after Close")
	}
	for len(s.pending) > 0 && (p.payload == nil || s.pendingBytes+sz > s.opts.bufferCap) {
		s.cond.Wait()
	}
	p.seq = s.nextSeq
	s.nextSeq++
	t.ID = int(p.seq)
	if encErr != nil && s.err == nil {
		s.err = fmt.Errorf("dist: encoding section %d: %w", p.seq, encErr)
	}
	s.pending = append(s.pending, p)
	s.pendingBytes += sz
	buffered := s.pendingBytes
	s.cond.Broadcast()
	s.mu.Unlock()
	if m := s.opts.Metrics; m != nil {
		m.DistBufferedBytes.Add(sz)
		m.DistBufferedPeak.SetMax(buffered)
	}
}

// Wait blocks until every submitted section has a report and returns
// them in section order — byte-identical to what a local engine would
// report for the same sections.
func (s *Session) Wait() []core.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) > 0 {
		s.cond.Wait()
	}
	return append([]core.Report(nil), s.reports...)
}

// Err returns the session's first deferred error (a session or a
// section a node refused, or a section that did not encode), or nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// QueueDepths reports the unacknowledged section backlog as a
// single-queue depth, mirroring core.Engine's shape.
func (s *Session) QueueDepths() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []int{len(s.pending)}
}

// Close drains the session, tears down the remote side (best effort)
// and returns the final reports.
func (s *Session) Close() []core.Report {
	reports := s.Wait()
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	opened, idx := s.opened, s.nodeIdx
	s.cond.Broadcast()
	s.mu.Unlock()
	if alreadyClosed {
		return reports
	}
	<-s.done
	s.local.Close()
	if opened {
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.RPCTimeout)
		s.opts.Transport.CloseSession(ctx, s.opts.Nodes[idx], s.sid)
		cancel()
	}
	return reports
}

// pump is the session's single sender goroutine: it resolves the head
// of the pending buffer through the degradation ladder, records its
// report, and pops it. While it waits for the head's ack, the sections
// behind it are already written on the stream, up to the window, so the
// node never waits a round trip for its next section.
func (s *Session) pump() {
	defer close(s.done)
	defer s.dropStream()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		p := s.pending[0]
		s.mu.Unlock()

		rep := s.deliver(p)

		s.mu.Lock()
		s.reports = append(s.reports, rep)
		// Clear the slot first: the backing array outlives the reslice
		// and would keep the section's payload and trace reachable.
		s.pending[0] = nil
		s.pending = s.pending[1:]
		s.pendingBytes -= int64(len(p.payload))
		s.cond.Broadcast()
		s.mu.Unlock()
		if m := s.opts.Metrics; m != nil {
			m.DistBufferedBytes.Add(-int64(len(p.payload)))
		}
	}
}

// deliver pushes the head section down the degradation ladder: the
// current node with retries, then failover around the ring, then the
// local check. A section without a payload goes straight to the local
// check.
func (s *Session) deliver(p *pendingSection) core.Report {
	span := s.rpcSpan(p)
	finish := func(route string, err error) {
		if span != nil {
			span.SetStr("route", route)
			if err != nil {
				span.SetErr(true).SetStr("err", err.Error())
			}
			span.Finish()
		}
	}

	// The step budget allows one same-node reopen after a lost session
	// plus a full failover lap around the ring before degrading.
	var lastErr error
ring:
	for step := 0; p.payload != nil && step < 2*len(s.opts.Nodes)+1; step++ {
		s.mu.Lock()
		idx := s.nodeIdx
		opened := s.opened && s.nodeNext == p.seq
		s.mu.Unlock()
		node := s.opts.Nodes[idx]
		br := s.breakers[idx]
		if !br.Allow() {
			s.failover(idx, nil)
			continue
		}
		if !opened {
			if err := s.open(idx, p.seq); err != nil {
				br.Failure()
				lastErr = err
				if classify(err) == classRefused {
					// The node rejected the session itself (model,
					// protocol); no other node will differ.
					if s.setErr(fmt.Errorf("dist: session refused by %s: %w", node, err)) && s.opts.Logger != nil {
						s.opts.Logger.Error("dist session refused", "session", s.sid, "node", node, "err", err)
					}
					break ring
				}
				s.failover(idx, err)
				continue
			}
			br.Success()
		}
		rep, err := s.sendSection(idx, p, br)
		if err == nil {
			s.nodeNext = p.seq + 1
			if m := s.opts.Metrics; m != nil {
				m.DistSectionsSent.Add(1)
			}
			finish("node:"+node, nil)
			return rep
		}
		lastErr = err
		switch classify(err) {
		case classSessionLost:
			// The node forgot us (restart, TTL reap): re-open on the
			// same node with the replay window starting here.
			s.mu.Lock()
			s.opened = false
			s.mu.Unlock()
			if s.opts.Logger != nil {
				s.opts.Logger.Warn("dist session lost; reopening", "session", s.sid,
					"node", node, "seq", p.seq, "err", err)
			}
		case classRefused:
			// This section can never be accepted (undecodable on the
			// node). Local fallback still checks it.
			if s.setErr(fmt.Errorf("dist: section %d refused by %s: %w", p.seq, node, err)) && s.opts.Logger != nil {
				s.opts.Logger.Error("dist section refused", "session", s.sid,
					"node", node, "seq", p.seq, "err", err)
			}
			break ring
		default:
			s.failover(idx, err)
		}
	}

	if m := s.opts.Metrics; m != nil {
		m.DistFallbacks.Add(1)
	}
	if s.opts.Logger != nil {
		s.opts.Logger.Warn("dist degraded to local check", "session", s.sid,
			"seq", p.seq, "err", lastErr)
	}
	finish("local-fallback", lastErr)
	tr := p.tr
	if tr == nil {
		// Decode the payload as a node does; the section's ID is its seq.
		// AppendEncode refuses what DecodeBytes refuses, and the payload
		// fits the buffer, far below the default limits, so it decodes.
		tr = new(trace.Trace)
		if err := trace.DecodeBytes(tr, p.payload, trace.DefaultLimits); err != nil {
			panic(fmt.Sprintf("dist: section %d does not decode from its own payload: %v", p.seq, err))
		}
		tr.ID, tr.SpanID, tr.TxSpans = int(p.seq), p.spanID, p.txSpans
	}
	return s.local.Check(tr)
}

// open (re-)establishes the remote session on node idx with the replay
// window starting at startSeq.
func (s *Session) open(idx int, startSeq uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.RPCTimeout)
	defer cancel()
	req := s.spec
	req.StartSeq = startSeq
	_, err := s.opts.Transport.Open(ctx, s.opts.Nodes[idx], req)
	if err != nil {
		if m := s.opts.Metrics; m != nil {
			m.DistRPCErrors.Add(1)
		}
		return err
	}
	s.mu.Lock()
	s.opened = true
	s.mu.Unlock()
	s.nodeNext = startSeq
	return nil
}

// sendSection resolves the head p against one node, up to Attempts
// times with backoff, feeding the node's breaker. Each attempt writes
// the window on the stream and reads p's ack; any error discards the
// stream, so the next attempt dials again and writes the window again
// from p. Non-retryable errors return immediately for the caller to
// classify.
func (s *Session) sendSection(idx int, p *pendingSection, br *breaker) (core.Report, error) {
	node := s.opts.Nodes[idx]
	m := s.opts.Metrics
	var lastErr error
	for attempt := 0; attempt < s.opts.Attempts; attempt++ {
		if attempt > 0 {
			if m != nil {
				m.DistRetries.Add(1)
			}
			s.opts.sleep(s.opts.Backoff.Delay(attempt-1, s.rng.Float64))
		}
		rep, err := s.ack(node, p)
		if err == nil {
			br.Success()
			if m != nil {
				m.DistRTT.Observe(s.opts.now().Sub(p.written))
			}
			return rep, nil
		}
		s.dropStream()
		if m != nil {
			m.DistRPCErrors.Add(1)
		}
		br.Failure()
		lastErr = err
		if classify(err) != classRetryable {
			return core.Report{}, err
		}
	}
	return core.Report{}, lastErr
}

// ack writes the pending sections that fit the window and are not on
// the stream yet, dialing node first when there is no stream, then
// reads the ack of the head p.
func (s *Session) ack(node string, p *pendingSection) (core.Report, error) {
	if s.stream == nil {
		st, err := s.opts.Transport.Stream(node, s.sid, s.opts.RPCTimeout)
		if err != nil {
			return core.Report{}, err
		}
		s.stream = st
	}
	s.mu.Lock()
	next := s.pending[s.sent:min(len(s.pending), window)]
	s.mu.Unlock()
	for _, q := range next {
		if s.sent > 0 && s.sentBytes+len(q.payload) > windowBytes {
			break
		}
		s.rpcSpan(q)
		if err := s.stream.Send(q.seq, q.payload, q.crc, q.spanID); err != nil {
			return core.Report{}, err
		}
		q.written = s.opts.now()
		s.sent++
		s.sentBytes += len(q.payload)
	}
	rep, err := s.stream.Recv()
	if err != nil {
		return core.Report{}, err
	}
	if rep.TraceID != int(p.seq) {
		return core.Report{}, fmt.Errorf("dist: ack for section %d arrived in place of section %d", rep.TraceID, p.seq)
	}
	s.sent--
	s.sentBytes -= len(p.payload)
	return rep, nil
}

// dropStream discards the stream and every write on it not yet
// acknowledged.
func (s *Session) dropStream() {
	if s.stream != nil {
		s.stream.Close()
		s.stream = nil
	}
	s.sent, s.sentBytes = 0, 0
}

// rpcSpan starts p's client rpc span unless it has one: a section gets
// exactly one, however often it is written, and its route attribute
// records where the section finally landed.
func (s *Session) rpcSpan(p *pendingSection) *flight.Span {
	if fl := s.opts.Flight; fl != nil && p.span == nil {
		// Parent under the client's section span and carry its ID as an
		// attribute, so a timeline stitcher can join this delivery to
		// the section it shipped.
		p.span = fl.Start(flight.CatRPC, "section", p.spanID).
			SetInt("seq", int64(p.seq)).SetStr("session", s.sid)
		if p.spanID != 0 {
			p.span.SetInt("span", int64(p.spanID))
		}
	}
	return p.span
}

// failover abandons the current node: the session re-opens on the next
// ring slot when deliver loops. Only counted (and span-recorded) when
// a live session was actually lost, not when sharding merely skips an
// open breaker.
func (s *Session) failover(fromIdx int, cause error) {
	s.dropStream()
	s.mu.Lock()
	hadSession := s.opened
	s.opened = false
	s.nodeIdx = (fromIdx + 1) % len(s.opts.Nodes)
	to := s.opts.Nodes[s.nodeIdx]
	s.mu.Unlock()
	if !hadSession {
		return
	}
	if m := s.opts.Metrics; m != nil {
		m.DistFailovers.Add(1)
	}
	if fl := s.opts.Flight; fl != nil {
		sp := fl.Start(flight.CatRPC, "failover", 0).
			SetStr("session", s.sid).SetStr("from", s.opts.Nodes[fromIdx]).SetStr("to", to)
		if cause != nil {
			sp.SetErr(true).SetStr("err", cause.Error())
		}
		sp.Finish()
	}
	if s.opts.Logger != nil {
		s.opts.Logger.Warn("dist failover", "session", s.sid,
			"from", s.opts.Nodes[fromIdx], "to", to, "err", cause)
	}
}

// setErr records the first deferred error; reports whether this call
// stored it.
func (s *Session) setErr(err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false
	}
	s.err = err
	return true
}
