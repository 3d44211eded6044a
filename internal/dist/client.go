package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/url"
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
	Health(ctx context.Context, node string) error
}

// SectionStream carries one session's sections to one node in order:
// requests go out back to back and their acks come back in the same
// order. An ack carries the section's report, so "acked" and "checked"
// are the same event. After any error the stream is unusable and the
// caller closes it.
type SectionStream interface {
	// Send writes one encoded section without waiting for its ack; it
	// may buffer until the next Recv. span is the client's originating
	// section span ID for cross-node correlation (0 when no flight
	// recorder is attached); streams propagate it as an optional header.
	Send(seq uint64, payload []byte, crc uint32, span uint64) error
	// Recv returns the report of the oldest section sent and not yet
	// acknowledged. It flushes what Send buffered before it waits.
	Recv() (core.Report, error)
	Close() error
}

// HTTPTransport speaks the /v1/* section protocol to pmtestd nodes.
type HTTPTransport struct {
	// Client carries the session RPCs (open, close, health) and defaults
	// to http.DefaultClient; per-RPC deadlines come from the caller's
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
		return statusError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError turns a non-2xx response into a typed *RPCError.
func statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &RPCError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
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
	return &httpStream{
		conn:    conn,
		timeout: timeout,
		bw:      bufio.NewWriterSize(conn, 32<<10),
		br:      bufio.NewReader(conn),
		prefix: "POST " + PathSection + "?session=" + url.QueryEscape(session) + " HTTP/1.1\r\n" +
			"Host: " + node + "\r\nContent-Type: application/octet-stream\r\n",
	}, nil
}

// httpStream is HTTPTransport's SectionStream: one connection, requests
// written through a buffer that Recv flushes, responses read in order.
type httpStream struct {
	conn    net.Conn
	timeout time.Duration
	bw      *bufio.Writer
	br      *bufio.Reader
	prefix  string       // request line and the headers every section shares
	hdr     []byte       // scratch for one request's header block
	body    bytes.Buffer // scratch for one response's body
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
	if err := s.conn.SetWriteDeadline(time.Now().Add(s.timeout)); err != nil {
		return err
	}
	if _, err := s.bw.Write(h); err != nil {
		return err
	}
	_, err := s.bw.Write(payload)
	return err
}

func (s *httpStream) Recv() (core.Report, error) {
	if err := s.conn.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return core.Report{}, err
	}
	if err := s.bw.Flush(); err != nil {
		return core.Report{}, err
	}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return core.Report{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return core.Report{}, statusError(resp)
	}
	s.body.Reset()
	if _, err := s.body.ReadFrom(resp.Body); err != nil {
		return core.Report{}, err
	}
	var rep core.Report
	return rep, json.Unmarshal(s.body.Bytes(), &rep)
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

func (t *HTTPTransport) Health(ctx context.Context, node string) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+node+PathHealth, nil)
	if err != nil {
		return err
	}
	return t.do(hr, nil)
}

// Options configures a Coordinator.
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
	// BufferLimit caps the unacknowledged section bytes a session
	// buffers (default 16MB). At the cap Submit blocks (backpressure)
	// unless DropOnOverflow is set.
	BufferLimit int64
	// DropOnOverflow drops new sections (counted in
	// dist_sections_dropped) instead of blocking when the buffer is
	// full — for callers that must never stall the program under test.
	DropOnOverflow bool
	// BreakerThreshold is the consecutive-failure count that opens a
	// node's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses a node before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// HealthInterval enables background node health probes (0 = none);
	// probes feed the breakers, re-closing them when a node recovers.
	HealthInterval time.Duration
	// DisableFallback turns off the last rung of the degradation
	// ladder: with it set, a section that no node accepts is dropped
	// (and the session carries a deferred error) instead of being
	// checked by a local in-process engine.
	DisableFallback bool
	// TrackOnly and Excludes mirror the engine options of the sessions
	// opened through this coordinator.
	TrackOnly bool
	Excludes  []core.Range

	// Metrics receives the dist_* robustness counters. Optional.
	Metrics *obs.Metrics
	// Flight records rpc/failover spans (flight.CatRPC). Optional.
	Flight *flight.Recorder
	// Logger receives retry/failover/fallback records. Optional.
	Logger *slog.Logger

	// Test hooks: injected clock and sleep. Nil means real time.
	now   func() time.Time
	sleep func(time.Duration)
}

// Coordinator owns the node ring, the per-node circuit breakers, and
// the optional health prober; sessions are opened through it.
type Coordinator struct {
	opts     Options
	tr       Transport
	breakers []*breaker
	stop     chan struct{}
	stopOnce sync.Once
}

// NewCoordinator validates the options and starts the health prober
// (when configured).
func NewCoordinator(opts Options) (*Coordinator, error) {
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
	if opts.BufferLimit <= 0 {
		opts.BufferLimit = 16 << 20
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if opts.sleep == nil {
		opts.sleep = time.Sleep
	}
	c := &Coordinator{opts: opts, tr: opts.Transport, stop: make(chan struct{})}
	onOpen := func() {
		if m := opts.Metrics; m != nil {
			m.DistBreakerOpens.Add(1)
		}
	}
	for range opts.Nodes {
		c.breakers = append(c.breakers, newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.now, onOpen))
	}
	if opts.HealthInterval > 0 {
		go c.probe()
	}
	return c, nil
}

// Close stops the health prober. Open sessions keep working; close
// them individually.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// probe feeds the breakers from periodic health checks, so a recovered
// node rejoins the ring without waiting for live traffic to find it.
func (c *Coordinator) probe() {
	tick := time.NewTicker(c.opts.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		for i, node := range c.opts.Nodes {
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.RPCTimeout)
			err := c.tr.Health(ctx, node)
			cancel()
			if err != nil {
				c.breakers[i].Failure()
			} else {
				c.breakers[i].Success()
			}
		}
	}
}

// BreakerStates reports each node's breaker state, index-aligned with
// Options.Nodes.
func (c *Coordinator) BreakerStates() []string {
	out := make([]string, len(c.breakers))
	for i, b := range c.breakers {
		out[i] = b.State()
	}
	return out
}

// homeNode shards a session onto the ring by stable hash.
func (c *Coordinator) homeNode(sid string) int {
	h := fnv.New32a()
	io.WriteString(h, sid)
	return int(h.Sum32()) % len(c.opts.Nodes)
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
// payload for delivery, the decoded trace for local fallback, and the
// client section span ID (captured at Submit, since the trace may be
// mutated concurrently) propagated for cross-node correlation. The
// pump alone touches span and written.
type pendingSection struct {
	seq     uint64
	payload []byte
	crc     uint32
	spanID  uint64
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
	c     *Coordinator
	sid   string
	rules core.RuleSet
	rng   *rand.Rand

	mu   sync.Mutex
	cond *sync.Cond
	// pending holds every unacknowledged section in seq order; its
	// first sent entries are written on the stream. After an error the
	// stream is discarded and the slice is written again from its head,
	// on this node or another.
	pending      []*pendingSection
	pendingBytes int64
	nextSeq      uint64
	// reports holds each section's report at index seq. A seq without
	// one (dropped, or not yet acknowledged) has TraceID -1.
	reports []core.Report
	nodeIdx int
	opened  bool
	closed  bool
	err     error
	done    chan struct{}

	// The pump alone touches these. The stream exists only while the
	// session is open on nodeIdx; sentBytes is the payload of the first
	// sent pending sections.
	stream    SectionStream
	sent      int
	sentBytes int
}

// OpenSession starts a checking session under the given model. The
// remote side is established lazily by the first section, so a dead
// home node costs a failover, not an open error.
func (c *Coordinator) OpenSession(sid string, rules core.RuleSet) *Session {
	if rules == nil {
		rules = core.X86{}
	}
	h := fnv.New64a()
	io.WriteString(h, sid)
	s := &Session{
		c:       c,
		sid:     sid,
		rules:   rules,
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
		nodeIdx: c.homeNode(sid),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
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
	return s.c.opts.Nodes[s.nodeIdx]
}

// Submit buffers one section for remote checking. It blocks when the
// unacknowledged buffer is at Options.BufferLimit (backpressure) unless
// the coordinator drops on overflow. Like core.Engine, Submit after
// Close panics.
func (s *Session) Submit(t *trace.Trace) {
	var buf bytes.Buffer
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("dist: Submit after Close")
	}
	t.ID = int(s.nextSeq)
	if err := trace.Encode(&buf, t); err != nil {
		// Encoding only fails on a hostile in-memory trace; keep the
		// session alive and surface it as a deferred error.
		if s.err == nil {
			s.err = fmt.Errorf("dist: encoding section %d: %w", s.nextSeq, err)
		}
		s.nextSeq++
		s.mu.Unlock()
		return
	}
	payload := buf.Bytes()
	sz := int64(len(payload))
	m := s.c.opts.Metrics
	if sz > s.c.opts.BufferLimit {
		// A section bigger than the whole buffer can never be enqueued
		// within the cap. Preserve report order by draining the backlog,
		// then either drop it or check it in-process.
		seq := s.nextSeq
		s.nextSeq++
		if s.c.opts.DropOnOverflow {
			s.mu.Unlock()
			if m != nil {
				m.DistSectionsDropped.Add(1)
			}
			return
		}
		for len(s.pending) > 0 {
			s.cond.Wait()
		}
		s.setReport(seq, s.checkLocal(&pendingSection{seq: seq, tr: t}))
		s.mu.Unlock()
		if m != nil {
			m.DistFallbacks.Add(1)
		}
		return
	}
	for s.pendingBytes+sz > s.c.opts.BufferLimit && len(s.pending) > 0 {
		if s.c.opts.DropOnOverflow {
			s.nextSeq++ // the seq is consumed so reports stay index-aligned
			s.mu.Unlock()
			if m != nil {
				m.DistSectionsDropped.Add(1)
			}
			return
		}
		s.cond.Wait()
	}
	p := &pendingSection{seq: s.nextSeq, payload: payload, crc: crc32.ChecksumIEEE(payload), spanID: t.SpanID, tr: t}
	s.nextSeq++
	s.pending = append(s.pending, p)
	s.pendingBytes += sz
	buffered := s.pendingBytes
	s.cond.Broadcast()
	s.mu.Unlock()
	if m != nil {
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
	out := make([]core.Report, 0, len(s.reports))
	for _, r := range s.reports {
		if r.TraceID >= 0 {
			out = append(out, r)
		}
	}
	return out
}

// setReport stores seq's report; callers hold s.mu.
func (s *Session) setReport(seq uint64, rep core.Report) {
	for uint64(len(s.reports)) <= seq {
		s.reports = append(s.reports, core.Report{TraceID: -1})
	}
	s.reports[seq] = rep
}

// Err returns the session's first deferred error (a refused section, a
// dropped-with-fallback-disabled section, an encode failure), or nil.
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
	if opened {
		ctx, cancel := context.WithTimeout(context.Background(), s.c.opts.RPCTimeout)
		s.c.tr.CloseSession(ctx, s.c.opts.Nodes[idx], s.sid)
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

		rep, ok := s.deliver(p)

		s.mu.Lock()
		if ok {
			s.setReport(p.seq, rep)
		}
		s.pending = s.pending[1:]
		s.pendingBytes -= int64(len(p.payload))
		s.cond.Broadcast()
		s.mu.Unlock()
		if m := s.c.opts.Metrics; m != nil {
			m.DistBufferedBytes.Add(-int64(len(p.payload)))
		}
	}
}

// deliver pushes the head section down the degradation ladder: the
// current node with retries, then failover around the ring, then the
// local fallback engine. It returns ok=false only when fallback is
// disabled and no node accepted the section.
func (s *Session) deliver(p *pendingSection) (core.Report, bool) {
	c := s.c
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
	for step := 0; step < 2*len(c.opts.Nodes)+1; step++ {
		s.mu.Lock()
		idx := s.nodeIdx
		opened := s.opened
		s.mu.Unlock()
		node := c.opts.Nodes[idx]
		br := c.breakers[idx]
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
					break ring
				}
				s.failover(idx, err)
				continue
			}
			br.Success()
		}
		rep, err := s.sendSection(idx, p, br)
		if err == nil {
			if m := c.opts.Metrics; m != nil {
				m.DistSectionsSent.Add(1)
			}
			finish("node:"+node, nil)
			return rep, true
		}
		lastErr = err
		switch classify(err) {
		case classSessionLost:
			// The node forgot us (restart, TTL reap): re-open on the
			// same node with the replay window starting here.
			s.mu.Lock()
			s.opened = false
			s.mu.Unlock()
			if c.opts.Logger != nil {
				c.opts.Logger.Warn("dist session lost; reopening", "session", s.sid,
					"node", node, "seq", p.seq, "err", err)
			}
		case classRefused:
			// This section can never be accepted (undecodable on the
			// node). Local fallback still checks it.
			if s.setErr(fmt.Errorf("dist: section %d refused by %s: %w", p.seq, node, err)) && c.opts.Logger != nil {
				c.opts.Logger.Error("dist section refused", "session", s.sid,
					"node", node, "seq", p.seq, "err", err)
			}
			break ring
		default:
			s.failover(idx, err)
		}
	}

	if !c.opts.DisableFallback {
		if m := c.opts.Metrics; m != nil {
			m.DistFallbacks.Add(1)
		}
		if c.opts.Logger != nil {
			c.opts.Logger.Warn("dist degraded to local check", "session", s.sid,
				"seq", p.seq, "err", lastErr)
		}
		finish("local-fallback", lastErr)
		return s.checkLocal(p), true
	}
	s.setErr(fmt.Errorf("dist: section %d undeliverable, fallback disabled: %w", p.seq, lastErr))
	if m := c.opts.Metrics; m != nil {
		m.DistSectionsDropped.Add(1)
	}
	finish("dropped", lastErr)
	return core.Report{}, false
}

// open (re-)establishes the remote session on node idx with the replay
// window starting at startSeq.
func (s *Session) open(idx int, startSeq uint64) error {
	c := s.c
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.RPCTimeout)
	defer cancel()
	_, err := c.tr.Open(ctx, c.opts.Nodes[idx], OpenRequest{
		Version:   ProtocolVersion,
		Session:   s.sid,
		Model:     s.rules.Name(),
		TrackOnly: c.opts.TrackOnly,
		Excludes:  c.opts.Excludes,
		StartSeq:  startSeq,
	})
	if err != nil {
		if m := c.opts.Metrics; m != nil {
			m.DistRPCErrors.Add(1)
		}
		return err
	}
	s.mu.Lock()
	s.opened = true
	s.mu.Unlock()
	return nil
}

// sendSection resolves the head p against one node, up to Attempts
// times with backoff, feeding the node's breaker. Each attempt writes
// the window on the stream and reads p's ack; any error discards the
// stream, so the next attempt dials again and writes the window again
// from p. Non-retryable errors return immediately for the caller to
// classify.
func (s *Session) sendSection(idx int, p *pendingSection, br *breaker) (core.Report, error) {
	c := s.c
	node := c.opts.Nodes[idx]
	m := c.opts.Metrics
	var lastErr error
	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if attempt > 0 {
			if m != nil {
				m.DistRetries.Add(1)
			}
			c.opts.sleep(c.opts.Backoff.Delay(attempt-1, s.rng.Float64))
		}
		rep, err := s.ack(node, p)
		if err == nil {
			br.Success()
			if m != nil {
				m.DistRTT.Observe(c.opts.now().Sub(p.written))
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
	c := s.c
	if s.stream == nil {
		st, err := c.tr.Stream(node, s.sid, c.opts.RPCTimeout)
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
		q.written = c.opts.now()
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
	if fl := s.c.opts.Flight; fl != nil && p.span == nil {
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
	c := s.c
	s.dropStream()
	s.mu.Lock()
	hadSession := s.opened
	s.opened = false
	s.nodeIdx = (fromIdx + 1) % len(c.opts.Nodes)
	to := c.opts.Nodes[s.nodeIdx]
	s.mu.Unlock()
	if !hadSession {
		return
	}
	if m := c.opts.Metrics; m != nil {
		m.DistFailovers.Add(1)
	}
	if fl := c.opts.Flight; fl != nil {
		sp := fl.Start(flight.CatRPC, "failover", 0).
			SetStr("session", s.sid).SetStr("from", c.opts.Nodes[fromIdx]).SetStr("to", to)
		if cause != nil {
			sp.SetErr(true).SetStr("err", cause.Error())
		}
		sp.Finish()
	}
	if c.opts.Logger != nil {
		c.opts.Logger.Warn("dist failover", "session", s.sid,
			"from", c.opts.Nodes[fromIdx], "to", to, "err", cause)
	}
}

// checkLocal is the ladder's last rung: check the section in-process,
// exactly as a one-shot engine would, so Wait never hangs on a dead
// fleet and the reports stay complete and identical.
func (s *Session) checkLocal(p *pendingSection) core.Report {
	if s.c.opts.TrackOnly {
		n := 0
		for _, op := range p.tr.Ops {
			if !op.Kind.IsChecker() {
				n++
			}
		}
		return core.Report{TraceID: int(p.seq), Thread: p.tr.Thread, Ops: len(p.tr.Ops), TrackedOps: n}
	}
	rep := core.CheckTraceExcluding(s.rules, p.tr, s.c.opts.Excludes)
	rep.TraceID = int(p.seq)
	return rep
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
