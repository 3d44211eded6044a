package harness

import (
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/dist"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// startDistNode hosts a real checker node over loopback HTTP and
// returns its dialable host:port.
func startDistNode(t *testing.T) (string, *httptest.Server) {
	t.Helper()
	node := dist.NewNode(dist.NodeConfig{Metrics: obs.NewMetrics(8)})
	srv := httptest.NewServer(node)
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://"), srv
}

// remoteGoldenSections is a clean recorded micro workload with the
// bad-trace fixtures appended, so the equivalence proof covers sections
// that produce FAIL/WARN diagnostics, not just clean ones. Fixture
// order is sorted so local and remote runs submit identically.
func remoteGoldenSections(t *testing.T, store string) [][]trace.Op {
	t.Helper()
	sections, err := RecordMicroSections(store, 256, 12)
	if err != nil {
		t.Fatal(err)
	}
	fix := badTraceFixtures(sections)
	names := make([]string, 0, len(fix))
	for name := range fix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sections = append(sections, fix[name].Ops)
	}
	return sections
}

func localDump(sections [][]trace.Op) string {
	eng := core.NewEngine(core.Options{Rules: core.X86{}, Workers: 1})
	return DumpReports(ReplaySections(eng, sections, 0))
}

func goldenSession(t *testing.T, sid string, nodes []string) (*dist.Session, *obs.Metrics) {
	t.Helper()
	m := obs.NewMetrics(8)
	s, err := dist.Open(sid, core.Options{Rules: core.X86{}}, dist.Options{
		Nodes:      nodes,
		RPCTimeout: 2 * time.Second,
		Attempts:   2,
		Backoff:    dist.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// TestRemoteGoldenEquivalence: a workload checked through the
// distributed tier yields a report dump byte-identical to a local
// engine run — diagnostics, severities, and op indices included.
func TestRemoteGoldenEquivalence(t *testing.T) {
	for _, store := range []string{"ctree", "hashmap-ll"} {
		sections := remoteGoldenSections(t, store)
		want := localDump(sections)

		addr, _ := startDistNode(t)
		s, m := goldenSession(t, "golden-"+store, []string{addr})
		got := DumpReports(ReplaySections(s, sections, 0))

		if got != want {
			t.Errorf("%s: remote run diverged from local:\nlocal:\n%s\nremote:\n%s", store, want, got)
		}
		snap := m.Snapshot()
		if snap.DistSectionsSent != uint64(len(sections)) || snap.DistFallbacks != 0 {
			t.Errorf("%s: sent=%d fallbacks=%d, want %d/0 (all checked remotely)",
				store, snap.DistSectionsSent, snap.DistFallbacks, len(sections))
		}
	}
}

// TestRemoteGoldenFailover is the ISSUE's robustness acceptance proof:
// the active node is torn down mid-stream, the session fails over and
// replays its unacknowledged buffer, and the final reports are still
// byte-identical to a local run.
func TestRemoteGoldenFailover(t *testing.T) {
	sections := remoteGoldenSections(t, "ctree")
	want := localDump(sections)

	addrA, srvA := startDistNode(t)
	addrB, srvB := startDistNode(t)
	s, m := goldenSession(t, "golden-failover", []string{addrA, addrB})
	half := len(sections) / 2
	for _, ops := range sections[:half] {
		s.Submit(&trace.Trace{Ops: append([]trace.Op(nil), ops...)})
	}
	s.Wait()

	// Kill whichever node the session actually landed on — connections
	// included, so pooled keep-alives fail like a dead host.
	switch s.Node() {
	case addrA:
		srvA.CloseClientConnections()
		srvA.Close()
	case addrB:
		srvB.CloseClientConnections()
		srvB.Close()
	default:
		t.Fatalf("session on unexpected node %q", s.Node())
	}

	for _, ops := range sections[half:] {
		s.Submit(&trace.Trace{Ops: append([]trace.Op(nil), ops...)})
	}
	got := DumpReports(s.Close())

	if got != want {
		t.Fatalf("remote run with mid-stream node kill diverged from local:\nlocal:\n%s\nremote:\n%s", want, got)
	}
	snap := m.Snapshot()
	if snap.DistFailovers < 1 {
		t.Fatalf("failovers = %d, want >= 1 after killing the active node", snap.DistFailovers)
	}
	if snap.DistFallbacks != 0 {
		t.Fatalf("fallbacks = %d; the surviving node should have absorbed the session", snap.DistFallbacks)
	}
	if snap.DistSectionsSent != uint64(len(sections)) {
		t.Fatalf("sent = %d, want %d (every section remotely checked)", snap.DistSectionsSent, len(sections))
	}
}
