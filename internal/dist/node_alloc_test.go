// Excluded under -race: the race runtime's own allocations and sync.Pool
// perturbation make allocation totals meaningless.

//go:build !race

package dist

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"pmtest/internal/core"
)

// TestNodeSectionCostFlat: a section costs the node the same however
// long its session has run. It compares allocation per section over a
// 200-section batch near seq 10 with one near seq 5 000 of the same
// session. A node that copies the session's reports on each section
// spends ~15x more per section on the later batch.
func TestNodeSectionCostFlat(t *testing.T) {
	addr, _, _ := startTestNode(t)
	ht := &HTTPTransport{}
	ctx := context.Background()
	if _, err := ht.Open(ctx, addr, OpenRequest{Version: ProtocolVersion, Session: "s", Model: "x86"}); err != nil {
		t.Fatal(err)
	}
	st, err := ht.Stream(addr, "s", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload, crc := encodeSection(t, testTrace(0))
	send := func(from, to int) {
		for seq := from; seq < to; seq++ {
			if err := st.Send(uint64(seq), payload, crc, 0); err != nil {
				t.Fatalf("section %d: %v", seq, err)
			}
			if _, err := st.Recv(); err != nil {
				t.Fatalf("section %d: %v", seq, err)
			}
		}
	}
	const batch = 200
	perSection := func(from int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		send(from, from+batch)
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / batch
	}
	send(0, 10)
	early := perSection(10)
	send(10+batch, 5000)
	late := perSection(5000)
	t.Logf("allocation per section: %d B near seq 10, %d B near seq 5000", early, late)
	if late > 2*early {
		t.Fatalf("per-section allocation grew with the session: %d B near seq 10, %d B near seq 5000", early, late)
	}
}

// TestStreamCleanAckAllocs: reading a clean ack, status line, headers,
// body and report, allocates nothing.
func TestStreamCleanAckAllocs(t *testing.T) {
	resp := ackResponse(core.Report{TraceID: 7, Thread: 1, Ops: 4, TrackedOps: 3})
	r := bytes.NewReader(nil)
	st := newHTTPStream(&cannedConn{r: r}, "canned", "s", time.Second)
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(resp)
		if rep, err := st.Recv(); err != nil || rep.TraceID != 7 {
			t.Fatalf("ack: %+v, %v", rep, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reading a clean ack: %.1f allocs, want 0", allocs)
	}
}
