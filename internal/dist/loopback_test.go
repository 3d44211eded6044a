package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// startTestNode hosts a real Node behind an httptest server and returns
// its dialable host:port.
func startTestNode(t *testing.T) (string, *httptest.Server, *Node) {
	t.Helper()
	node := NewNode(NodeConfig{Metrics: obs.NewMetrics(8)})
	srv := httptest.NewServer(node)
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://"), srv, node
}

// sectionRPC writes one section on a fresh stream and reads its ack.
func sectionRPC(t *testing.T, addr, sid string, seq uint64, payload []byte, crc uint32, span uint64) (core.Report, error) {
	t.Helper()
	st, err := (&HTTPTransport{}).Stream(addr, sid, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Send(seq, payload, crc, span); err != nil {
		return core.Report{}, err
	}
	return st.Recv()
}

func encodeSection(t *testing.T, tr *trace.Trace) ([]byte, uint32) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), crc32.ChecksumIEEE(buf.Bytes())
}

// TestNodeProtocol exercises the section protocol against a real node
// over real HTTP: idempotent duplicate delivery, sequence-gap and CRC
// rejection, unknown sessions, version, model and stripe-count refusal,
// and /healthz.
func TestNodeProtocol(t *testing.T) {
	addr, _, node := startTestNode(t)
	ht := &HTTPTransport{}
	ctx := context.Background()

	or, err := ht.Open(ctx, addr, OpenRequest{Version: ProtocolVersion, Session: "s", Model: "x86"})
	if err != nil {
		t.Fatal(err)
	}
	if or.NextSeq != 0 {
		t.Fatalf("fresh open NextSeq = %d, want 0", or.NextSeq)
	}

	sec0 := testTrace(0)
	sec0.ID = 0
	payload, crc := encodeSection(t, sec0)
	rep, err := sectionRPC(t, addr, "s", 0, payload, crc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID != 0 || rep.Ops != 4 {
		t.Fatalf("section 0 report = %+v", rep)
	}

	// Idempotent redelivery (a retry whose first attempt actually landed)
	// returns the cached report, not a double-check or an error.
	rep2, err := sectionRPC(t, addr, "s", 0, payload, crc, 0)
	if err != nil {
		t.Fatalf("duplicate section: %v", err)
	}
	if rep2.TraceID != rep.TraceID || rep2.Ops != rep.Ops || rep2.TrackedOps != rep.TrackedOps {
		t.Fatalf("duplicate report %+v != original %+v", rep2, rep)
	}

	// A sequence gap means sections were lost between client and node:
	// the node must refuse (409) so the client re-opens and replays.
	if _, err := sectionRPC(t, addr, "s", 2, payload, crc, 0); classify(err) != classSessionLost {
		t.Fatalf("seq gap: err = %v, want a session-lost class", err)
	}
	// Corrupt payload: retryable, the client resends the same bytes.
	if _, err := sectionRPC(t, addr, "s", 1, payload, crc+1, 0); classify(err) != classRetryable {
		t.Fatalf("bad CRC: err = %v, want a retryable class", err)
	}
	if _, err := sectionRPC(t, addr, "nope", 0, payload, crc, 0); classify(err) != classSessionLost {
		t.Fatalf("unknown session: err = %v, want a session-lost class", err)
	}
	if _, err := ht.Open(ctx, addr, OpenRequest{Version: 99, Session: "v", Model: "x86"}); classify(err) != classRefused {
		t.Fatalf("bad version: err = %v, want a refused class", err)
	}
	// A version 1 client, which reads JSON acks, is refused with both
	// versions named; its session then checks in-process and says why.
	_, err = ht.Open(ctx, addr, OpenRequest{Version: 1, Session: "v1", Model: "x86"})
	var re *RPCError
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest || classify(err) != classRefused ||
		!strings.Contains(re.Msg, "version 1") || !strings.Contains(re.Msg, fmt.Sprint("speaks ", ProtocolVersion)) {
		t.Fatalf("version 1 open: err = %v, want a refused 400 naming versions 1 and %d", err, ProtocolVersion)
	}
	m := obs.NewMetrics(8)
	v1, err := Open("v1-client", core.Options{}, Options{Nodes: []string{addr}, Transport: &v1Transport{}, Attempts: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	v1.Submit(testTrace(0))
	if reps := v1.Close(); len(reps) != 1 || reps[0].Ops != 4 || m.Snapshot().DistFallbacks != 1 {
		t.Fatalf("version 1 session: reports %+v, fallbacks %d; want one local 4-op check", reps, m.Snapshot().DistFallbacks)
	}
	if err := v1.Err(); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version 1 session: Err() = %v, want the refusal", err)
	}
	// A version 2 client sends no checker configuration, so a node that
	// ran its sessions under the defaults would check its sections under
	// another spec than its local fallback: it is refused too.
	_, err = ht.Open(ctx, addr, OpenRequest{Version: 2, Session: "v2", Model: "x86"})
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest || classify(err) != classRefused ||
		!strings.Contains(re.Msg, "version 2") || !strings.Contains(re.Msg, fmt.Sprint("speaks ", ProtocolVersion)) {
		t.Fatalf("version 2 open: err = %v, want a refused 400 naming versions 2 and %d", err, ProtocolVersion)
	}
	// The session chooses its stripes and epoch GC; the node bounds the
	// stripes, refusing a larger count before it builds a worker.
	if _, err := ht.Open(ctx, addr, OpenRequest{Version: ProtocolVersion, Session: "striped", Model: "x86",
		Check: core.Config{Shards: 4, EpochGC: true}}); err != nil {
		t.Fatalf("open with 4 shards and epoch GC: %v", err)
	}
	hosted := node.Sessions()
	_, err = ht.Open(ctx, addr, OpenRequest{Version: ProtocolVersion, Session: "wide", Model: "x86",
		Check: core.Config{Shards: maxShards + 1}})
	if !errors.As(err, &re) || classify(err) != classRefused || !strings.Contains(re.Msg, fmt.Sprint(maxShards)) {
		t.Fatalf("open with %d shards: err = %v, want a refused 400 naming the bound %d", maxShards+1, err, maxShards)
	}
	if n := node.Sessions(); n != hosted {
		t.Fatalf("a refused open left the node hosting %d sessions, want %d", n, hosted)
	}
	// Every built-in model is accepted by name, and "" means x86; an
	// unknown name is refused.
	models := []string{""}
	for name := range core.Models() {
		models = append(models, name)
	}
	for _, model := range models {
		if _, err := ht.Open(ctx, addr, OpenRequest{Version: ProtocolVersion, Session: "model-" + model, Model: model}); err != nil {
			t.Fatalf("open with model %q: %v", model, err)
		}
	}
	if _, err := ht.Open(ctx, addr, OpenRequest{Version: ProtocolVersion, Session: "m", Model: "tso"}); classify(err) != classRefused {
		t.Fatalf("unknown model: err = %v, want a refused class", err)
	}
	resp, err := http.Get("http://" + addr + PathHealth)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: status %d, want 200", resp.StatusCode)
	}

	if err := ht.CloseSession(ctx, addr, "s"); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// v1Transport opens sessions as a protocol version 1 client does.
type v1Transport struct{ HTTPTransport }

func (t *v1Transport) Open(ctx context.Context, node string, req OpenRequest) (OpenResponse, error) {
	req.Version = 1
	return t.HTTPTransport.Open(ctx, node, req)
}

// TestNodeInterleavedSessions streams two sessions' sections to one
// node at once, each on its own stream with several sections in
// flight, so the node decodes and checks them in an interleaved order
// on two connections. The sessions' sections differ in shape: one
// mixes sections past the pooled-buffer size with mid-size ones whose
// ops carry file names, the other sends a few ops without names under
// another model. A body buffer or decoded trace that leaked from one
// section into the next, in a session or across the two, would change
// a report: each must equal a local engine's.
func TestNodeInterleavedSessions(t *testing.T) {
	addr, _, _ := startTestNode(t)
	sessions := []struct {
		sid   string
		rules core.RuleSet
		trace func(i int) *trace.Trace
	}{
		{"wide", core.X86{}, func(i int) *trace.Trace {
			n, every := 1+(i*37)%300, 1+i%4
			if i%5 == 0 {
				// Past maxBodyPrealloc on the wire. Few checks keep the ack
				// small, so the sections in flight cannot fill both
				// directions of a connection with small socket buffers.
				n, every = 2000, 64
			}
			tr := &trace.Trace{Thread: i % 3}
			for j := 0; j < n; j++ {
				addr := uint64(0x100000 + j*64)
				tr.Ops = append(tr.Ops, trace.Op{Kind: trace.KindWrite, Addr: addr, Size: 8, File: "wide.go", Line: j})
				if j%3 == 0 {
					tr.Ops = append(tr.Ops, trace.Op{Kind: trace.KindFlush, Addr: addr, Size: 8, File: "wide.go", Line: j})
				}
			}
			tr.Ops = append(tr.Ops, trace.Op{Kind: trace.KindFence})
			for j := 0; j < n; j += every {
				tr.Ops = append(tr.Ops, trace.Op{Kind: trace.KindIsPersist, Addr: uint64(0x100000 + j*64), Size: 8, File: "check.go", Line: i})
			}
			return tr
		}},
		{"narrow", core.HOPS{}, func(i int) *trace.Trace {
			a, b := uint64(0x2000+i*8), uint64(0x3000+i*8)
			tr := &trace.Trace{Ops: []trace.Op{
				{Kind: trace.KindWrite, Addr: a, Size: 8},
				{Kind: trace.KindWrite, Addr: b, Size: 8},
			}}
			if i%2 == 0 {
				tr.Ops = append(tr.Ops, trace.Op{Kind: trace.KindOFence})
			}
			tr.Ops = append(tr.Ops, trace.Op{Kind: trace.KindIsOrderedBefore, Addr: a, Size: 8, Addr2: b, Size2: 8})
			return tr
		}},
	}
	const sections, inFlight = 60, 4
	ht := &HTTPTransport{}
	got := make([][]core.Report, len(sessions))
	errs := make(chan error, len(sessions))
	var wg sync.WaitGroup
	for k, sc := range sessions {
		if _, err := ht.Open(context.Background(), addr, OpenRequest{Version: ProtocolVersion, Session: sc.sid, Model: sc.rules.Name()}); err != nil {
			t.Fatal(err)
		}
		st, err := ht.Stream(addr, sc.sid, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < sections+inFlight; seq++ {
				if seq < sections {
					var buf bytes.Buffer
					if err := trace.Encode(&buf, sc.trace(seq)); err != nil {
						errs <- err
						return
					}
					if err := st.Send(uint64(seq), buf.Bytes(), crc32.ChecksumIEEE(buf.Bytes()), 0); err != nil {
						errs <- err
						return
					}
				}
				if seq >= inFlight {
					rep, err := st.Recv()
					if err != nil {
						errs <- fmt.Errorf("%s: ack %d: %w", sc.sid, seq-inFlight, err)
						return
					}
					got[k] = append(got[k], rep)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k, sc := range sessions {
		eng := core.NewEngine(core.Options{Rules: sc.rules})
		for i := 0; i < sections; i++ {
			eng.Submit(sc.trace(i))
		}
		want := eng.Close()
		if !reflect.DeepEqual(got[k], want) {
			for i := range want {
				if i >= len(got[k]) || !reflect.DeepEqual(got[k][i], want[i]) {
					t.Fatalf("%s: first differing report is section %d of %d", sc.sid, i, sections)
				}
			}
			t.Fatalf("%s: %d reports, want %d", sc.sid, len(got[k]), len(want))
		}
	}
}
