package dist

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"pmtest/internal/flight"
	"pmtest/internal/obs"
)

// startFlightNode is startTestNode with a flight recorder attached, for
// tests that assert on node-side span correlation.
func startFlightNode(t *testing.T) (string, *flight.Recorder) {
	t.Helper()
	rec := flight.NewRecorder(64)
	node := NewNode(NodeConfig{Metrics: obs.NewMetrics(8), Flight: rec})
	srv := httptest.NewServer(node)
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://"), rec
}

// TestSectionCorrelationPropagates proves the tentpole wire contract:
// the client's session ID and originating span ID ride the section RPC
// and come out as remote_session_id / remote_span_id tags on the node's
// rpc and engine spans — and an idempotent redelivery carries the
// identical tags, so a fleet span search keeps finding the section no
// matter how many times it was delivered.
func TestSectionCorrelationPropagates(t *testing.T) {
	addr, rec := startFlightNode(t)
	ht := &HTTPTransport{}
	ctx := context.Background()

	if _, err := ht.Open(ctx, addr, OpenRequest{Version: ProtocolVersion, Session: "pmtest-9", Model: "x86"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(0)
	tr.ID = 0
	payload, crc := encodeSection(t, tr)
	const clientSpan = 77
	if _, err := sectionRPC(t, addr, "pmtest-9", 0, payload, crc, clientSpan); err != nil {
		t.Fatal(err)
	}

	rpcs := rec.Search(flight.Query{Category: flight.CatRPC, HasCategory: true})
	if len(rpcs) != 1 {
		t.Fatalf("rpc spans = %d, want 1", len(rpcs))
	}
	rpc := rpcs[0]
	if rpc.Name != "handle-section" ||
		rpc.Attr("remote_session_id") != "pmtest-9" ||
		rpc.Attr("remote_span_id") != int64(clientSpan) ||
		rpc.Attr("seq") != int64(0) {
		t.Fatalf("rpc span attrs = %+v", rpc.Attrs())
	}

	checks := rec.Search(flight.Query{Category: flight.CatEngine, HasCategory: true})
	if len(checks) != 1 {
		t.Fatalf("engine spans = %d, want 1", len(checks))
	}
	check := checks[0]
	if check.Attr("remote_session_id") != "pmtest-9" ||
		check.Attr("remote_span_id") != int64(clientSpan) {
		t.Fatalf("engine span attrs = %+v", check.Attrs())
	}
	// The node re-parents the section under its own rpc span so the
	// node-local timeline stays a well-formed tree; the cross-process
	// link is the remote_span_id attribute, not the parent field.
	if check.Parent != rpc.ID {
		t.Fatalf("engine span parent = %d, want rpc span %d", check.Parent, rpc.ID)
	}

	// Idempotent redelivery: the replayed rpc span carries the identical
	// correlation tags plus the replay marker, and no second check runs.
	if _, err := sectionRPC(t, addr, "pmtest-9", 0, payload, crc, clientSpan); err != nil {
		t.Fatal(err)
	}
	rpcs = rec.Search(flight.Query{Category: flight.CatRPC, HasCategory: true})
	if len(rpcs) != 2 {
		t.Fatalf("rpc spans after redelivery = %d, want 2", len(rpcs))
	}
	replay := rpcs[0] // newest first
	if replay.Attr("replay") != int64(1) {
		t.Fatalf("replay span attrs = %+v", replay.Attrs())
	}
	for _, key := range []string{"remote_session_id", "remote_span_id", "seq"} {
		if replay.Attr(key) != rpc.Attr(key) {
			t.Fatalf("replay %s = %v, original %v — correlation must survive redelivery",
				key, replay.Attr(key), rpc.Attr(key))
		}
	}
	if got := rec.Search(flight.Query{Category: flight.CatEngine, HasCategory: true}); len(got) != 1 {
		t.Fatalf("engine spans after redelivery = %d, want 1 (replay must not re-check)", len(got))
	}
}

// TestSectionCorrelationOptional pins backward compatibility: a client
// that sends no span header (or garbage) still checks fine, and the
// node's spans simply carry no remote_span_id.
func TestSectionCorrelationOptional(t *testing.T) {
	addr, rec := startFlightNode(t)
	ht := &HTTPTransport{}
	ctx := context.Background()

	if _, err := ht.Open(ctx, addr, OpenRequest{Version: ProtocolVersion, Session: "s", Model: "x86"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(0)
	tr.ID = 0
	payload, crc := encodeSection(t, tr)
	if _, err := sectionRPC(t, addr, "s", 0, payload, crc, 0); err != nil {
		t.Fatal(err)
	}
	rpc := rec.Search(flight.Query{Category: flight.CatRPC, HasCategory: true})[0]
	if rpc.Attr("remote_span_id") != nil {
		t.Fatalf("span-less delivery grew remote_span_id = %v", rpc.Attr("remote_span_id"))
	}
	if rpc.Attr("remote_session_id") != "s" {
		t.Fatalf("rpc span attrs = %+v", rpc.Attrs())
	}
}
