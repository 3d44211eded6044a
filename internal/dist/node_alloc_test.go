// Excluded under -race: the race runtime's own allocations and sync.Pool
// perturbation make allocation totals meaningless.

//go:build !race

package dist

import (
	"context"
	"runtime"
	"testing"
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
	payload, crc := encodeSection(t, testTrace(0))
	send := func(from, to int) {
		for seq := from; seq < to; seq++ {
			if _, err := ht.Section(ctx, addr, "s", uint64(seq), payload, crc, 0); err != nil {
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
