package dist

import (
	"bytes"
	"context"
	"hash/crc32"
	"net/http/httptest"
	"strings"
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
// rejection, unknown sessions, and version refusal.
func TestNodeProtocol(t *testing.T) {
	addr, _, _ := startTestNode(t)
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
	if err := ht.Health(ctx, addr); err != nil {
		t.Fatalf("health: %v", err)
	}

	if err := ht.CloseSession(ctx, addr, "s"); err != nil {
		t.Fatalf("close: %v", err)
	}
}
