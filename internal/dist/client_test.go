package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// funcTransport adapts closures to the Transport interface, so each
// test scripts node behavior without a network. Its streams call
// sectionFn when the head's ack is read, so a script sees one call per
// attempt to resolve a head, however many sections are written behind
// it.
type funcTransport struct {
	openFn    func(node string, req OpenRequest) (OpenResponse, error)
	sectionFn func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error)
	closeFn   func(node, sid string) error
	healthFn  func(node string) error

	mu sync.Mutex
	// writes lists the seqs written on each stream, in dial order.
	writes [][]uint64
}

func (f *funcTransport) Open(_ context.Context, node string, req OpenRequest) (OpenResponse, error) {
	if f.openFn == nil {
		return OpenResponse{Session: req.Session, NextSeq: req.StartSeq}, nil
	}
	return f.openFn(node, req)
}

func (f *funcTransport) Stream(node, sid string, _ time.Duration) (SectionStream, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = append(f.writes, nil)
	return &funcStream{f: f, node: node, sid: sid, idx: len(f.writes) - 1}, nil
}

// streams returns a copy of the seqs each stream carried so far.
func (f *funcTransport) streams() [][]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]uint64, len(f.writes))
	for i, w := range f.writes {
		out[i] = append([]uint64(nil), w...)
	}
	return out
}

// funcStream queues written sections and resolves the oldest on Recv.
// It drops the correlation span ID: these tests script delivery and
// failure behavior, which is independent of span propagation (the
// loopback correlation test covers the header end-to-end).
type funcStream struct {
	f         *funcTransport
	node, sid string
	idx       int
	queue     []queuedSection
}

type queuedSection struct {
	seq     uint64
	payload []byte
	crc     uint32
}

func (s *funcStream) Send(seq uint64, payload []byte, crc uint32, _ uint64) error {
	s.f.mu.Lock()
	s.f.writes[s.idx] = append(s.f.writes[s.idx], seq)
	s.f.mu.Unlock()
	s.queue = append(s.queue, queuedSection{seq, payload, crc})
	return nil
}

func (s *funcStream) Recv() (core.Report, error) {
	q := s.queue[0]
	s.queue = s.queue[1:]
	return s.f.sectionFn(s.node, s.sid, q.seq, q.payload, q.crc)
}

func (s *funcStream) Close() error { return nil }

func (f *funcTransport) CloseSession(_ context.Context, node, sid string) error {
	if f.closeFn == nil {
		return nil
	}
	return f.closeFn(node, sid)
}

func (f *funcTransport) Health(_ context.Context, node string) error {
	if f.healthFn == nil {
		return nil
	}
	return f.healthFn(node)
}

// testCoordinator builds a coordinator with a fake clock, recorded
// sleeps, and fresh metrics.
func testCoordinator(t *testing.T, nodes []string, tr Transport, mod func(*Options)) (*Coordinator, *obs.Metrics, *[]time.Duration) {
	t.Helper()
	var (
		mu     sync.Mutex
		sleeps []time.Duration
	)
	clock := newFakeClock()
	opts := Options{
		Nodes:     nodes,
		Transport: tr,
		Metrics:   obs.NewMetrics(8),
		Backoff:   Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: 0.0001},
		now:       clock.now,
		sleep: func(d time.Duration) {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
		},
	}
	if mod != nil {
		mod(&opts)
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, opts.Metrics, &sleeps
}

func testTrace(i int) *trace.Trace {
	addr := uint64(0x1000 + i*64)
	return &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: addr, Size: 64},
		{Kind: trace.KindFlush, Addr: addr, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsPersist, Addr: addr, Size: 64},
	}}
}

func ackReport(seq uint64) core.Report { return core.Report{TraceID: int(seq), Ops: 4, TrackedOps: 3} }

// TestRetryThenSuccess: transient section failures retry with backoff
// on the same node and the section is acked exactly once.
func TestRetryThenSuccess(t *testing.T) {
	var calls int
	tr := &funcTransport{
		sectionFn: func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
			calls++
			if calls <= 2 {
				return core.Report{}, errors.New("connection reset")
			}
			return ackReport(seq), nil
		},
	}
	c, m, sleeps := testCoordinator(t, []string{"a:1"}, tr, nil)
	s := c.OpenSession("retry", core.X86{})
	s.Submit(testTrace(0))
	reports := s.Close()

	if len(reports) != 1 || reports[0].TraceID != 0 {
		t.Fatalf("reports = %+v, want one with TraceID 0", reports)
	}
	snap := m.Snapshot()
	if snap.DistRetries != 2 || snap.DistRPCErrors != 2 || snap.DistSectionsSent != 1 {
		t.Fatalf("retries=%d rpc_errors=%d sent=%d, want 2/2/1",
			snap.DistRetries, snap.DistRPCErrors, snap.DistSectionsSent)
	}
	if snap.DistFailovers != 0 || snap.DistFallbacks != 0 {
		t.Fatalf("unexpected failovers=%d fallbacks=%d", snap.DistFailovers, snap.DistFallbacks)
	}
	if len(*sleeps) != 2 {
		t.Fatalf("recorded %d backoff sleeps, want 2", len(*sleeps))
	}
	// First retry waits ~Base, second ~2*Base (minus bounded jitter).
	if (*sleeps)[0] > 10*time.Millisecond || (*sleeps)[0] < 5*time.Millisecond ||
		(*sleeps)[1] > 20*time.Millisecond || (*sleeps)[1] <= (*sleeps)[0] {
		t.Fatalf("backoff sleeps %v not exponential from 10ms", *sleeps)
	}
}

// TestFailoverReplaysUnacked: when the session's node dies mid-stream,
// the client re-opens on the next node with StartSeq at the head of the
// unacknowledged buffer and replays everything from there.
func TestFailoverReplaysUnacked(t *testing.T) {
	var (
		mu        sync.Mutex
		opens     = map[string][]uint64{} // node → StartSeqs
		dead      string
		secByNode = map[string][]uint64{}
	)
	tr := &funcTransport{}
	tr.openFn = func(node string, req OpenRequest) (OpenResponse, error) {
		mu.Lock()
		defer mu.Unlock()
		if node == dead {
			return OpenResponse{}, errors.New("connection refused")
		}
		opens[node] = append(opens[node], req.StartSeq)
		return OpenResponse{Session: req.Session, NextSeq: req.StartSeq}, nil
	}
	tr.sectionFn = func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
		mu.Lock()
		defer mu.Unlock()
		if node == dead {
			return core.Report{}, errors.New("connection refused")
		}
		secByNode[node] = append(secByNode[node], seq)
		return ackReport(seq), nil
	}

	c, m, _ := testCoordinator(t, []string{"a:1", "b:1"}, tr, nil)
	s := c.OpenSession("failover", core.X86{})
	// Land the first two sections, then kill the home node.
	s.Submit(testTrace(0))
	s.Submit(testTrace(1))
	s.Wait()
	home := s.Node()
	mu.Lock()
	dead = home
	mu.Unlock()
	for i := 2; i < 5; i++ {
		s.Submit(testTrace(i))
	}
	reports := s.Close()

	if len(reports) != 5 {
		t.Fatalf("got %d reports, want 5", len(reports))
	}
	for i, r := range reports {
		if r.TraceID != i {
			t.Fatalf("report %d has TraceID %d", i, r.TraceID)
		}
	}
	snap := m.Snapshot()
	if snap.DistFailovers != 1 {
		t.Fatalf("failovers = %d, want 1", snap.DistFailovers)
	}
	var other string
	for _, n := range []string{"a:1", "b:1"} {
		if n != home {
			other = n
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := opens[other]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("failover opens on %s = %v, want [2]", other, got)
	}
	if got := secByNode[other]; len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("replayed sections on %s = %v, want [2 3 4]", other, got)
	}
	if s.Node() != other {
		t.Fatalf("session node = %q, want %q after failover", s.Node(), other)
	}
}

// TestSessionLostReopensSameNode: a 404 (node restarted, TTL reap)
// re-opens the session on the same node with the replay window at the
// failed seq — no failover is counted.
func TestSessionLostReopens(t *testing.T) {
	var (
		mu    sync.Mutex
		opens []uint64
		lost  = true
	)
	tr := &funcTransport{}
	tr.openFn = func(node string, req OpenRequest) (OpenResponse, error) {
		mu.Lock()
		defer mu.Unlock()
		opens = append(opens, req.StartSeq)
		return OpenResponse{Session: req.Session, NextSeq: req.StartSeq}, nil
	}
	tr.sectionFn = func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
		mu.Lock()
		defer mu.Unlock()
		if seq == 1 && lost {
			lost = false
			return core.Report{}, &RPCError{Status: http.StatusNotFound, Msg: "unknown session"}
		}
		return ackReport(seq), nil
	}
	c, m, _ := testCoordinator(t, []string{"a:1"}, tr, nil)
	s := c.OpenSession("lost", core.X86{})
	s.Submit(testTrace(0))
	s.Submit(testTrace(1))
	reports := s.Close()

	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(opens) != 2 || opens[0] != 0 || opens[1] != 1 {
		t.Fatalf("opens = %v, want [0 1]", opens)
	}
	snap := m.Snapshot()
	if snap.DistFailovers != 0 {
		t.Fatalf("failovers = %d, want 0 for a same-node reopen", snap.DistFailovers)
	}
}

// TestRefusedSectionFallsBackLocal: a permanent 4xx on one section is
// not retried; the section is checked in-process so the report stream
// stays complete, and the refusal surfaces as a deferred error.
func TestRefusedSectionFallsBackLocal(t *testing.T) {
	tr := &funcTransport{
		sectionFn: func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
			if seq == 0 {
				return core.Report{}, &RPCError{Status: http.StatusBadRequest, Msg: "undecodable"}
			}
			return ackReport(seq), nil
		},
	}
	c, m, _ := testCoordinator(t, []string{"a:1"}, tr, nil)
	s := c.OpenSession("refused", core.X86{})
	s.Submit(testTrace(0))
	s.Submit(testTrace(1))
	reports := s.Close()

	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	// The fallback actually checked the ops (4 of them), proving it ran
	// the real checker rather than synthesizing an empty report.
	if reports[0].Ops != 4 || reports[0].TraceID != 0 {
		t.Fatalf("fallback report = %+v, want a real 4-op check with TraceID 0", reports[0])
	}
	snap := m.Snapshot()
	if snap.DistFallbacks != 1 || snap.DistSectionsSent != 1 {
		t.Fatalf("fallbacks=%d sent=%d, want 1/1", snap.DistFallbacks, snap.DistSectionsSent)
	}
	if s.Err() == nil {
		t.Fatal("refused section left no deferred error")
	}
}

// TestAllNodesDownDegradesToLocal: with the whole fleet unreachable,
// every section still gets a report via the local fallback engine, the
// breakers open, and Wait never hangs.
func TestAllNodesDownDegradesToLocal(t *testing.T) {
	tr := &funcTransport{
		openFn: func(node string, req OpenRequest) (OpenResponse, error) {
			return OpenResponse{}, errors.New("no route to host")
		},
		sectionFn: func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
			return core.Report{}, errors.New("no route to host")
		},
	}
	c, m, _ := testCoordinator(t, []string{"a:1", "b:1"}, tr, nil)
	s := c.OpenSession("dark-fleet", core.X86{})
	const n = 6
	for i := 0; i < n; i++ {
		s.Submit(testTrace(i))
	}
	reports := s.Close()

	if len(reports) != n {
		t.Fatalf("got %d reports, want %d", len(reports), n)
	}
	for i, r := range reports {
		if r.TraceID != i || r.Ops != 4 {
			t.Fatalf("report %d = %+v, want a real local check", i, r)
		}
	}
	snap := m.Snapshot()
	if snap.DistFallbacks != n {
		t.Fatalf("fallbacks = %d, want %d", snap.DistFallbacks, n)
	}
	if snap.DistBreakerOpens == 0 {
		t.Fatal("breakers never opened against a dark fleet")
	}
	for _, st := range c.BreakerStates() {
		if st != "open" {
			t.Fatalf("breaker states = %v, want all open", c.BreakerStates())
		}
	}
}

// TestDisableFallbackDropsAndErrs: with fallback off, undeliverable
// sections are dropped (counted) and surface a deferred error — but
// Wait still returns instead of hanging.
func TestDisableFallbackDropsAndErrs(t *testing.T) {
	tr := &funcTransport{
		openFn: func(node string, req OpenRequest) (OpenResponse, error) {
			return OpenResponse{}, errors.New("down")
		},
		sectionFn: func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
			return core.Report{}, errors.New("down")
		},
	}
	c, m, _ := testCoordinator(t, []string{"a:1"}, tr, func(o *Options) { o.DisableFallback = true })
	s := c.OpenSession("strict", core.X86{})
	s.Submit(testTrace(0))
	s.Submit(testTrace(1))
	reports := s.Close()

	if len(reports) != 0 {
		t.Fatalf("got %d reports with fallback disabled and fleet down, want 0", len(reports))
	}
	if s.Err() == nil {
		t.Fatal("dropped sections left no deferred error")
	}
	if snap := m.Snapshot(); snap.DistSectionsDropped != 2 {
		t.Fatalf("dropped = %d, want 2", snap.DistSectionsDropped)
	}
}

// TestBufferCapAndBackpressure: with the transport gated shut, the
// unacknowledged buffer never exceeds its cap — Submit blocks — and
// everything completes once the gate opens.
func TestBufferCapAndBackpressure(t *testing.T) {
	var sz int64
	{
		var buf bytes.Buffer
		if err := trace.Encode(&buf, testTrace(0)); err != nil {
			t.Fatal(err)
		}
		sz = int64(buf.Len())
	}
	gate := make(chan struct{})
	tr := &funcTransport{
		sectionFn: func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
			<-gate
			return ackReport(seq), nil
		},
	}
	limit := 2*sz + sz/2 // room for two buffered sections
	c, m, _ := testCoordinator(t, []string{"a:1"}, tr, func(o *Options) { o.BufferLimit = limit })
	s := c.OpenSession("pressure", core.X86{})

	const n = 6
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.Submit(testTrace(i))
		}
	}()
	select {
	case <-done:
		t.Fatal("6 submits fit a 2-section buffer without blocking")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	<-done
	reports := s.Close()

	if len(reports) != n {
		t.Fatalf("got %d reports, want %d", len(reports), n)
	}
	snap := m.Snapshot()
	if snap.DistBufferedPeak > limit {
		t.Fatalf("buffered peak %d exceeded the %d cap", snap.DistBufferedPeak, limit)
	}
	if snap.DistBufferedBytes != 0 {
		t.Fatalf("buffered bytes = %d after drain, want 0", snap.DistBufferedBytes)
	}
	if snap.DistSectionsDropped != 0 {
		t.Fatalf("dropped = %d under backpressure mode, want 0", snap.DistSectionsDropped)
	}
}

// TestDropOnOverflow: same gated transport, but overflow drops instead
// of blocking; drops are counted and the cap still holds.
func TestDropOnOverflow(t *testing.T) {
	gate := make(chan struct{})
	tr := &funcTransport{
		sectionFn: func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
			<-gate
			return ackReport(seq), nil
		},
	}
	var sz int64
	{
		var buf bytes.Buffer
		trace.Encode(&buf, testTrace(0))
		sz = int64(buf.Len())
	}
	limit := 2*sz + sz/2
	c, m, _ := testCoordinator(t, []string{"a:1"}, tr, func(o *Options) {
		o.BufferLimit = limit
		o.DropOnOverflow = true
	})
	s := c.OpenSession("overflow", core.X86{})
	const n = 6
	for i := 0; i < n; i++ {
		s.Submit(testTrace(i)) // never blocks
	}
	close(gate)
	reports := s.Close()

	snap := m.Snapshot()
	if snap.DistSectionsDropped == 0 {
		t.Fatal("no drops counted though the buffer overflowed")
	}
	if snap.DistBufferedPeak > limit {
		t.Fatalf("buffered peak %d exceeded the %d cap", snap.DistBufferedPeak, limit)
	}
	if len(reports)+int(snap.DistSectionsDropped) != n {
		t.Fatalf("%d reports + %d drops != %d submits", len(reports), snap.DistSectionsDropped, n)
	}
	// Report IDs keep their submit-order seqs, so the surviving reports
	// are still unambiguous despite the gaps.
	seen := map[int]bool{}
	for _, r := range reports {
		if r.TraceID < 0 || r.TraceID >= n || seen[r.TraceID] {
			t.Fatalf("bad or duplicate TraceID %d", r.TraceID)
		}
		seen[r.TraceID] = true
	}
}

// TestBreakerSkipsDeadNodeAcrossSessions: once a node's breaker opens,
// a new session homed on it routes around without burning retries.
func TestBreakerSkipsDeadNode(t *testing.T) {
	var (
		mu       sync.Mutex
		attempts = map[string]int{}
	)
	tr := &funcTransport{}
	tr.openFn = func(node string, req OpenRequest) (OpenResponse, error) {
		mu.Lock()
		attempts[node]++
		mu.Unlock()
		if node == "a:1" {
			return OpenResponse{}, errors.New("down")
		}
		return OpenResponse{Session: req.Session, NextSeq: req.StartSeq}, nil
	}
	tr.sectionFn = func(node, sid string, seq uint64, payload []byte, crc uint32) (core.Report, error) {
		if node == "a:1" {
			return core.Report{}, errors.New("down")
		}
		return ackReport(seq), nil
	}
	c, _, _ := testCoordinator(t, []string{"a:1", "b:1"}, tr, func(o *Options) { o.BreakerThreshold = 1 })
	// Enough sessions that at least one hashes onto the dead node.
	for i := 0; i < 4; i++ {
		s := c.OpenSession(fmt.Sprintf("sess-%d", i), core.X86{})
		s.Submit(testTrace(i))
		if reports := s.Close(); len(reports) != 1 {
			t.Fatalf("session %d: %d reports, want 1", i, len(reports))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts["a:1"] > 1 {
		t.Fatalf("dead node dialed %d times; breaker should have short-circuited after 1", attempts["a:1"])
	}
}
