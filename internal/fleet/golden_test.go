package fleet_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pmtest"
	"pmtest/internal/dist"
	"pmtest/internal/fleet"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
)

// fleetNode is one checker node with its section-protocol server and an
// always-on span search server over the same recorder — killing the
// protocol leaves the flight data queryable, exactly like a pmtestd
// whose checker port died while its obs port survived.
type fleetNode struct {
	protoAddr  string
	searchAddr string
	proto      *httptest.Server
	rec        *flight.Recorder
}

func startFleetNode(t *testing.T) *fleetNode {
	t.Helper()
	rec := flight.NewRecorder(256)
	node := dist.NewNode(dist.NodeConfig{Metrics: obs.NewMetrics(16), Flight: rec})
	proto := httptest.NewServer(node)
	t.Cleanup(func() {
		proto.Close()
		node.Close()
	})
	mux := http.NewServeMux()
	mux.Handle(flight.SearchPath, flight.Handler(rec))
	srch := httptest.NewServer(mux)
	t.Cleanup(srch.Close)
	return &fleetNode{
		protoAddr:  strings.TrimPrefix(proto.URL, "http://"),
		searchAddr: strings.TrimPrefix(srch.URL, "http://"),
		proto:      proto,
		rec:        rec,
	}
}

// goldenTimeline is the normalized cross-node story of the session
// below: two sections checked on the home node, a mid-stream kill, one
// failover, and the last two sections checked on the survivor — with
// the unflushed write in section 2 surfacing as a not-persisted FAIL on
// whichever node inherited it.
const goldenTimeline = `session <sid>: 4 sections, 1 failovers
section seq=0 ops=4 [client]
  rpc section route=node-1 [client]
  handle [node-1]
    check ops=4 tracked_ops=3 [node-1]
section seq=1 ops=5 [client]
  tx begin_op=0 end_op=3 [client]
  rpc section route=node-1 [client]
  handle [node-1]
    check ops=5 tracked_ops=5 [node-1]
section seq=2 ops=2 [client]
  rpc section route=node-2 [client]
  handle [node-2]
    check ops=2 tracked_ops=1 fails=1 ! [node-2]
      checker not-persisted op_index=1 severity=FAIL !
section seq=3 ops=4 [client]
  rpc section route=node-2 [client]
  handle [node-2]
    check ops=4 tracked_ops=3 [node-2]
failover !
`

// TestRemoteTimelineGolden is the acceptance test for pmtrace -remote:
// a two-node loopback session with a forced failover stitches into ONE
// causally-ordered timeline, byte-identical across runs after
// normalization. It proves the correlation identity survives the kill —
// every node-side span still joins to the client span that caused it.
func TestRemoteTimelineGolden(t *testing.T) {
	a, b := startFleetNode(t), startFleetNode(t)
	byProto := map[string]*fleetNode{a.protoAddr: a, b.protoAddr: b}

	clientRec := flight.NewRecorder(256)
	sess := pmtest.Init(pmtest.Config{
		Model:   pmtest.X86,
		Metrics: obs.NewMetrics(16),
		Flight:  clientRec,
		Remote: &pmtest.RemoteConfig{
			Nodes:      []string{a.protoAddr, b.protoAddr},
			RPCTimeout: 2 * time.Second,
			Attempts:   1, // first connection error fails over immediately
		},
	})
	th := sess.ThreadInit()
	th.Start()

	// Section 0: clean persist.
	th.Write(0x1000, 8)
	th.Flush(0x1000, 8)
	th.Fence()
	th.IsPersist(0x1000, 8)
	th.SendTrace()
	sess.GetResult() // drain so the section is acked before the next

	// Section 1: a transaction, so the client cuts a tx span.
	th.TxBegin()
	th.Write(0x2000, 16)
	th.Flush(0x2000, 16)
	th.TxEnd()
	th.Fence()
	th.SendTrace()
	sess.GetResult()

	// Kill the active node's protocol (its search server stays up).
	active := byProto[sess.RemoteNode()]
	if active == nil {
		t.Fatalf("RemoteNode() = %q, not a fleet node", sess.RemoteNode())
	}
	active.proto.CloseClientConnections()
	active.proto.Close()

	// Section 2: an unflushed write asserted persistent — the FAIL must
	// surface on the node the session failed over to.
	th.Write(0x3000, 8)
	th.IsPersist(0x3000, 8)
	th.SendTrace()
	sess.GetResult()

	// Section 3: clean again, same survivor node.
	th.Write(0x4000, 8)
	th.Flush(0x4000, 8)
	th.Fence()
	th.IsPersist(0x4000, 8)
	th.SendTrace()

	reports := sess.Exit()
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}

	// Stitch exactly what pmtrace -remote fetches: the client's spans
	// plus both nodes' — including the dead node's, via its obs port.
	nodes := []string{
		searchServer(t, clientRec), a.searchAddr, b.searchAddr,
	}
	res, err := fleet.SessionSpans(context.Background(), nodes, sess.SID(), fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("partial fetch: %+v", res.Sources)
	}
	tl := fleet.Stitch(sess.SID(), res.Spans)

	var buf strings.Builder
	fleet.WriteTimeline(&buf, tl, true)
	got := strings.ReplaceAll(buf.String(), sess.SID(), "<sid>")
	if got != goldenTimeline {
		t.Fatalf("timeline drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, goldenTimeline)
	}

	// The satellite assertion, explicit: every handle's remote_span_id
	// equals the ID of the client section span it is stitched under — on
	// both sides of the kill.
	sources := map[string]bool{}
	for _, sec := range tl.Sections {
		if sec.Section == nil || len(sec.Handles) == 0 {
			t.Fatalf("section seq=%d missing a side: %+v", sec.Seq, sec)
		}
		for _, h := range sec.Handles {
			if got := h.Span.AttrString("remote_span_id"); got != strconv.FormatUint(sec.Section.ID, 10) {
				t.Fatalf("seq=%d handle remote_span_id=%s, client span=%d", sec.Seq, got, sec.Section.ID)
			}
			sources[h.Span.Source] = true
		}
	}
	if len(sources) != 2 {
		t.Fatalf("handles came from %d nodes, want both: %v", len(sources), sources)
	}
}
