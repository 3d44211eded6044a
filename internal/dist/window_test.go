package dist

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// TestWindowHeadFails: the head fails mid-window with each error class.
// The stream is dropped and the sections behind the head are written
// again, in seq order, on a fresh stream.
func TestWindowHeadFails(t *testing.T) {
	const n = 6
	cases := []struct {
		name string
		err  error
		// Expectations: StartSeqs of the session's opens, the seqs the
		// second stream carries, and the counters.
		opens     []uint64
		rewritten []uint64
		sent      uint64
		fallbacks uint64
	}{
		{"retryable", errors.New("connection reset"), []uint64{0}, []uint64{1, 2, 3, 4, 5}, n, 0},
		{"session-lost", &RPCError{Status: http.StatusNotFound, Msg: "unknown session"}, []uint64{0, 1}, []uint64{1, 2, 3, 4, 5}, n, 0},
		{"refused", &RPCError{Status: http.StatusBadRequest, Msg: "undecodable"}, []uint64{0, 2}, []uint64{2, 3, 4, 5}, n - 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				opens  []uint64
				failed bool
				acked  []uint64
			)
			gate := make(chan struct{})
			tr := &funcTransport{}
			tr.openFn = func(node string, req OpenRequest) (OpenResponse, error) {
				mu.Lock()
				defer mu.Unlock()
				opens = append(opens, req.StartSeq)
				return OpenResponse{Session: req.Session, NextSeq: req.StartSeq}, nil
			}
			tr.sectionFn = func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
				if seq == 0 {
					<-gate // every section is submitted before the head's ack
				}
				mu.Lock()
				defer mu.Unlock()
				if seq == 1 && !failed {
					failed = true
					return core.Report{}, tc.err
				}
				acked = append(acked, seq)
				return ackReport(seq), nil
			}
			s, m, _ := testSession(t, "head-"+tc.name, []string{"a:1"}, tr, nil)
			for i := 0; i < n; i++ {
				s.Submit(testTrace(i))
			}
			close(gate)
			reports := s.Close()

			if len(reports) != n {
				t.Fatalf("got %d reports, want %d", len(reports), n)
			}
			for i, r := range reports {
				if r.TraceID != i {
					t.Fatalf("report %d has TraceID %d", i, r.TraceID)
				}
			}
			streams := tr.streams()
			if len(streams) != 2 {
				t.Fatalf("streams carried %v, want the first and one after the failure", streams)
			}
			if got := streams[0]; !slices.Equal(got, []uint64{0, 1, 2, 3, 4, 5}) {
				t.Fatalf("first stream carried %v, want the whole window 0..5", got)
			}
			if got := streams[1]; !slices.Equal(got, tc.rewritten) {
				t.Fatalf("second stream carried %v, want %v", got, tc.rewritten)
			}
			mu.Lock()
			defer mu.Unlock()
			if !slices.Equal(opens, tc.opens) {
				t.Fatalf("opens = %v, want %v", opens, tc.opens)
			}
			if want := slices.DeleteFunc([]uint64{0, 1, 2, 3, 4, 5}, func(q uint64) bool {
				return q == 1 && tc.fallbacks > 0
			}); !slices.Equal(acked, want) {
				t.Fatalf("acked %v, want %v: each once, in seq order", acked, want)
			}
			snap := m.Snapshot()
			if snap.DistSectionsSent != tc.sent || snap.DistFallbacks != tc.fallbacks || snap.DistFailovers != 0 {
				t.Fatalf("sent=%d fallbacks=%d failovers=%d, want %d/%d/0",
					snap.DistSectionsSent, snap.DistFallbacks, snap.DistFailovers, tc.sent, tc.fallbacks)
			}
		})
	}
}

// TestWindowBreakerFailover: a breaker opened from outside the stream,
// by failures recorded on it between sections, moves the session to the
// next node. The stream to the old node goes with it, so every later
// section is written to and acknowledged by the new node.
func TestWindowBreakerFailover(t *testing.T) {
	var (
		mu    sync.Mutex
		acker = map[uint64]string{}
	)
	tr := &funcTransport{}
	tr.sectionFn = func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
		mu.Lock()
		defer mu.Unlock()
		acker[seq] = node
		return ackReport(seq), nil
	}
	nodes := []string{"a:1", "b:1"}
	s, m, _ := testSession(t, "breaker", nodes, tr, nil)
	s.Submit(testTrace(0))
	s.Wait()
	home := homeNode("breaker", len(nodes))
	for i := 0; i < breakerThreshold; i++ {
		s.breakers[home].Failure()
	}
	for i := 1; i < 4; i++ {
		s.Submit(testTrace(i))
	}
	if reports := s.Close(); len(reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(reports))
	}

	other := nodes[1-home]
	mu.Lock()
	defer mu.Unlock()
	for seq := uint64(1); seq < 4; seq++ {
		if acker[seq] != other {
			t.Fatalf("section %d acknowledged by %q, want %q after the failover", seq, acker[seq], other)
		}
	}
	if got := tr.streams(); len(got) != 2 || !slices.Equal(got[1], []uint64{1, 2, 3}) {
		t.Fatalf("streams carried %v, want [0] then [1 2 3]", got)
	}
	if f := m.Snapshot().DistFailovers; f != 1 {
		t.Fatalf("failovers = %d, want 1", f)
	}
}

// windowTrace is section i of the mid-window failover session: every
// seventh section asserts an unflushed write persistent, so the reports
// carry FAILs as well as clean checks.
func windowTrace(i int) *trace.Trace {
	addr := uint64(0x10000 + i*64)
	if i%7 == 3 {
		return &trace.Trace{Ops: []trace.Op{
			{Kind: trace.KindWrite, Addr: addr, Size: 8},
			{Kind: trace.KindIsPersist, Addr: addr, Size: 8},
		}}
	}
	return testTrace(i)
}

// windowNode is a real node behind a wrapper that records the seq of
// every section request it passes to the node, and can hold one seq's
// request unanswered until the node is killed.
type windowNode struct {
	node *Node
	srv  *httptest.Server
	addr string

	mu       sync.Mutex
	hold     int64 // seq to hold; -1 holds none
	received []uint64
	held     chan struct{} // closed when the held request arrives
	release  chan struct{}
	killOnce sync.Once
}

func startWindowNode(t *testing.T) *windowNode {
	t.Helper()
	w := &windowNode{
		node:    NewNode(NodeConfig{Metrics: obs.NewMetrics(8)}),
		hold:    -1,
		held:    make(chan struct{}),
		release: make(chan struct{}),
	}
	w.srv = httptest.NewServer(w)
	w.addr = strings.TrimPrefix(w.srv.URL, "http://")
	t.Cleanup(func() {
		w.kill()
		w.node.Close()
	})
	return w
}

func (w *windowNode) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != PathSection {
		w.node.ServeHTTP(rw, r)
		return
	}
	seq, err := strconv.ParseUint(r.Header.Get(headerSeq), 10, 64)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	hold := w.hold == int64(seq)
	if hold {
		w.hold = -1
	} else {
		w.received = append(w.received, seq)
	}
	w.mu.Unlock()
	if hold {
		close(w.held)
		<-w.release
		return
	}
	w.node.ServeHTTP(rw, r)
}

// kill stops the node the way a crash does: no new connections, every
// open one cut, the held request abandoned.
func (w *windowNode) kill() {
	w.killOnce.Do(func() {
		w.srv.Listener.Close()
		w.srv.CloseClientConnections()
		close(w.release)
		w.srv.Close()
	})
}

func (w *windowNode) receivedSeqs() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]uint64(nil), w.received...)
}

// sendLog wraps HTTPTransport and records the seqs each node's streams
// were sent, so a test can see the window the client has written. No
// stream opens before ready is closed, so a test can submit every
// section before the pump writes the first.
type sendLog struct {
	HTTPTransport
	ready chan struct{}
	mu    sync.Mutex
	cond  *sync.Cond // broadcast on every send
	sent  map[string][]uint64
}

func newSendLog() *sendLog {
	l := &sendLog{ready: make(chan struct{}), sent: map[string][]uint64{}}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *sendLog) Stream(node, sid string, timeout time.Duration) (SectionStream, error) {
	<-l.ready
	st, err := l.HTTPTransport.Stream(node, sid, timeout)
	if err != nil {
		return nil, err
	}
	return &loggedStream{SectionStream: st, log: l, node: node}, nil
}

func (l *sendLog) seqs(node string) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.sent[node]...)
}

// waitSent blocks until node has been sent seq.
func (l *sendLog) waitSent(node string, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !slices.Contains(l.sent[node], seq) {
		l.cond.Wait()
	}
}

type loggedStream struct {
	SectionStream
	log  *sendLog
	node string
}

func (s *loggedStream) Send(seq uint64, payload []byte, crc uint32, span uint64) error {
	err := s.SectionStream.Send(seq, payload, crc, span)
	s.log.mu.Lock()
	s.log.sent[s.node] = append(s.log.sent[s.node], seq)
	s.log.cond.Broadcast()
	s.log.mu.Unlock()
	return err
}

func seqRange(from, to int) []uint64 {
	out := make([]uint64, 0, to-from)
	for q := from; q < to; q++ {
		out = append(out, uint64(q))
	}
	return out
}

// TestWindowFailoverMidWindow kills the home node while a full window
// is written and unacknowledged: the node holds seq k, so sections
// k..k+31 are on the wire when it dies. The session must finish on the
// survivor, which receives k..n-1 exactly once each, and the reports
// must equal a local engine's.
func TestWindowFailoverMidWindow(t *testing.T) {
	const k, n = 5, 80
	a, b := startWindowNode(t), startWindowNode(t)
	log := newSendLog()
	m := obs.NewMetrics(8)
	const sid = "mid-window"
	home, survivor := a, b
	if homeNode(sid, 2) == 1 {
		home, survivor = b, a
	}
	home.mu.Lock()
	home.hold = k
	home.mu.Unlock()

	s, err := Open(sid, core.Options{}, Options{
		Nodes:      []string{a.addr, b.addr},
		Transport:  log,
		RPCTimeout: 5 * time.Second,
		Attempts:   2,
		Backoff:    Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Submit(windowTrace(i))
	}
	// Let the pump write only once every section is buffered. Else it
	// may wait for seq k's ack before the full window behind k is
	// submitted; that wait times out, and the retry writes k to the
	// home node a second time.
	close(log.ready)
	<-home.held
	// The pump writes the window, then blocks on seq k's ack.
	filled := make(chan struct{})
	go func() {
		log.waitSent(home.addr, k+window-1)
		close(filled)
	}()
	select {
	case <-filled:
	case <-time.After(10 * time.Second):
		t.Fatalf("home node was sent %v, never seq %d", log.seqs(home.addr), k+window-1)
	}
	home.kill()
	got := s.Close()

	if sent := log.seqs(home.addr); slices.Max(sent) != k+window-1 {
		t.Fatalf("home node was sent up to seq %d, want %d: a full window and no more", slices.Max(sent), k+window-1)
	}
	if h := home.receivedSeqs(); !slices.Equal(h, seqRange(0, k)) {
		t.Fatalf("home node received %v besides the held seq, want 0..%d", h, k-1)
	}
	if h := survivor.receivedSeqs(); !slices.Equal(h, seqRange(k, n)) {
		t.Fatalf("survivor received %v, want %d..%d each once, in order", h, k, n-1)
	}

	eng := core.NewEngine(core.Options{Rules: core.X86{}, Workers: 1})
	for i := 0; i < n; i++ {
		eng.Submit(windowTrace(i))
	}
	want := eng.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reports after a mid-window failover differ from a local engine's:\ngot  %+v\nwant %+v", got, want)
	}
	snap := m.Snapshot()
	if snap.DistFailovers != 1 || snap.DistSectionsSent != n || snap.DistFallbacks != 0 {
		t.Fatalf("failovers=%d sent=%d fallbacks=%d, want 1/%d/0",
			snap.DistFailovers, snap.DistSectionsSent, snap.DistFallbacks, n)
	}
}

// TestWindowAckDeadline: a node that never answers a section costs the
// session one wait of RPCTimeout, not a hang. The retry dials again,
// writes the section again and gets its ack.
func TestWindowAckDeadline(t *testing.T) {
	const timeout = 200 * time.Millisecond
	w := startWindowNode(t)
	w.mu.Lock()
	w.hold = 0
	w.mu.Unlock()
	m := obs.NewMetrics(8)
	s, err := Open("deadline", core.Options{}, Options{
		Nodes:      []string{w.addr},
		RPCTimeout: timeout,
		Backoff:    Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.Submit(windowTrace(0))
	reports := s.Close()
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("session finished in %v, before the %v ack deadline", elapsed, timeout)
	}
	if len(reports) != 1 || reports[0].Ops != 4 {
		t.Fatalf("reports = %+v, want one 4-op report", reports)
	}
	snap := m.Snapshot()
	if snap.DistRPCErrors != 1 || snap.DistRetries != 1 || snap.DistSectionsSent != 1 || snap.DistFallbacks != 0 {
		t.Fatalf("rpc_errors=%d retries=%d sent=%d fallbacks=%d, want 1/1/1/0",
			snap.DistRPCErrors, snap.DistRetries, snap.DistSectionsSent, snap.DistFallbacks)
	}
	if got := w.receivedSeqs(); !slices.Equal(got, []uint64{0}) {
		t.Fatalf("node received %v besides the held request, want [0]", got)
	}
}

// smallBufListener fixes the socket buffers of every accepted
// connection at 64 KiB, as a host with fixed TCP buffers does: the
// kernel no longer grows them to absorb a stalled peer.
type smallBufListener struct {
	net.Listener
}

func (l smallBufListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(64 << 10)
		tc.SetWriteBuffer(64 << 10)
	}
	return conn, err
}

// TestWindowLargeReports streams sections whose requests and acks are
// both large to a node with fixed 64 KiB socket buffers: each section
// writes 8 000 lines and asserts them all persistent, so it is 600 KB
// on the wire and its report carries the 1 000-diagnostic cap. With a
// window of such sections written, the node would block writing an ack
// the client is not reading while the client blocks writing sections
// the node is not reading, until the deadline. The byte cap on the
// window keeps the stream moving: nothing times out or is retried.
func TestWindowLargeReports(t *testing.T) {
	const n, lines = 16, 8000
	node := NewNode(NodeConfig{})
	srv := httptest.NewUnstartedServer(node)
	srv.Listener = smallBufListener{srv.Listener}
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	m := obs.NewMetrics(8)
	s, err := Open("large-reports", core.Options{}, Options{
		Nodes:      []string{strings.TrimPrefix(srv.URL, "http://")},
		RPCTimeout: 3 * time.Second,
		Attempts:   1,
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ops := make([]trace.Op, 0, 2*lines)
		for l := 0; l < lines; l++ {
			ops = append(ops, trace.Op{Kind: trace.KindWrite, Addr: uint64(0x100000 + l*64), Size: 8})
		}
		for l := 0; l < lines; l++ {
			ops = append(ops, trace.Op{Kind: trace.KindIsPersist, Addr: uint64(0x100000 + l*64), Size: 8})
		}
		s.Submit(&trace.Trace{Ops: ops})
	}
	reports := s.Close()
	if len(reports) != n {
		t.Fatalf("got %d reports, want %d", len(reports), n)
	}
	for _, r := range reports {
		if len(r.Diags) != 1001 {
			t.Fatalf("report %d has %d diagnostics, want the cap and its marker", r.TraceID, len(r.Diags))
		}
	}
	snap := m.Snapshot()
	if snap.DistRPCErrors != 0 || snap.DistFallbacks != 0 || snap.DistSectionsSent != n {
		t.Fatalf("rpc_errors=%d fallbacks=%d sent=%d, want 0/0/%d: %v",
			snap.DistRPCErrors, snap.DistFallbacks, snap.DistSectionsSent, n, s.Err())
	}
}
