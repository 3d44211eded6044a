package pmtest

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmtest/internal/dist"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// remoteNodeAddr hosts one checker node over loopback HTTP.
func remoteNodeAddr(t *testing.T) string {
	t.Helper()
	node := dist.NewNode(dist.NodeConfig{Metrics: obs.NewMetrics(8)})
	srv := httptest.NewServer(node)
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://")
}

// recordTwoSections drives the same workload as TestSessionEndToEndX86
// through an already-initialized session.
func recordTwoSections(sess *Session) []Report {
	th := sess.ThreadInit()
	th.Start()
	th.Write(0x10, 64)
	th.Flush(0x10, 64)
	th.Fence()
	th.IsPersist(0x10, 64)
	th.SendTrace()
	th.Write(0x90, 64)
	th.IsPersist(0x90, 64)
	th.SendTrace()
	return sess.Exit()
}

// TestRemoteConfigEndToEnd: the same instrumentation calls produce the
// same reports whether Config.Remote routes checking to a node or the
// default in-process engine runs.
func TestRemoteConfigEndToEnd(t *testing.T) {
	local := recordTwoSections(Init(Config{}))

	m := obs.NewMetrics(8)
	sess := Init(Config{
		Remote:  &RemoteConfig{Nodes: []string{remoteNodeAddr(t)}},
		Metrics: m,
	})
	remote := recordTwoSections(sess)

	if len(remote) != len(local) {
		t.Fatalf("remote run: %d reports, local: %d", len(remote), len(local))
	}
	for i := range local {
		if remote[i].Summary() != local[i].Summary() {
			t.Fatalf("report %d diverged:\nlocal:  %s\nremote: %s", i, local[i].Summary(), remote[i].Summary())
		}
	}
	if !remote[0].Clean() || remote[1].Fails() != 1 || !remote[1].HasCode(CodeNotPersisted) {
		t.Fatalf("remote reports lost the diagnostic: %s / %s", remote[0].Summary(), remote[1].Summary())
	}
	snap := m.Snapshot()
	if snap.DistSectionsSent != 2 {
		t.Fatalf("dist sections sent = %d, want 2", snap.DistSectionsSent)
	}
}

// TestRemoteConfigUnreachableDegrades: a fleet that never answers still
// yields complete reports via the local fallback, and the degradation
// is visible in both the deferred error-free path (fallback counters)
// and the session's metrics.
func TestRemoteConfigUnreachableDegrades(t *testing.T) {
	m := obs.NewMetrics(8)
	sess := Init(Config{
		Remote: &RemoteConfig{
			Nodes:      []string{"127.0.0.1:1"}, // reserved port: connection refused
			RPCTimeout: 200 * time.Millisecond,
			Attempts:   1,
		},
		Metrics: m,
	})
	reports := recordTwoSections(sess)

	if len(reports) != 2 {
		t.Fatalf("got %d reports from a dead fleet, want 2 via local fallback", len(reports))
	}
	if !reports[0].Clean() || reports[1].Fails() != 1 {
		t.Fatalf("fallback reports wrong: %s / %s", reports[0].Summary(), reports[1].Summary())
	}
	snap := m.Snapshot()
	if snap.DistFallbacks != 2 {
		t.Fatalf("fallbacks = %d, want 2", snap.DistFallbacks)
	}
}

// TestRemoteConfigInvalidFallsBackLocal: a Remote config that cannot
// even open a remote session (no nodes) falls back to the in-process
// engine and surfaces a deferred error instead of panicking or
// silently dropping work.
func TestRemoteConfigInvalidFallsBackLocal(t *testing.T) {
	sess := Init(Config{Remote: &RemoteConfig{}})
	reports := recordTwoSections(sess)
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2 from the local fallback engine", len(reports))
	}
	if sess.Err() == nil {
		t.Fatal("invalid remote config left no deferred error")
	}
}

// TestRemoteUnencodableSectionMatchesLocal: a section the wire format
// cannot carry (a call-site file name past its 16-bit length) between
// two normal sections is checked in-process in its place, so the remote
// reports equal the local engine's and the encode error is deferred.
func TestRemoteUnencodableSectionMatchesLocal(t *testing.T) {
	long := strings.Repeat("f", 70000)
	run := func(sess *Session) []Report {
		th := sess.ThreadInit()
		th.Start()
		for i, file := range []string{"", long, ""} {
			addr := uint64(0x100 * (i + 1))
			th.Record(trace.Op{Kind: trace.KindWrite, Addr: addr, Size: 64, File: file, Line: 7}, 0)
			th.IsPersist(addr, 64)
			th.SendTrace()
		}
		return sess.Exit()
	}
	local := run(Init(Config{}))
	sess := Init(Config{Remote: &RemoteConfig{Nodes: []string{remoteNodeAddr(t)}}})
	remote := run(sess)

	if len(local) != 3 {
		t.Fatalf("local run: %d reports, want 3", len(local))
	}
	for _, r := range local {
		if r.Fails() != 1 {
			t.Fatalf("local report %d: %s, want one FAIL", r.TraceID, r.Summary())
		}
	}
	if len(remote) != len(local) {
		t.Fatalf("remote run: %d reports, local: %d", len(remote), len(local))
	}
	for i := range local {
		if l, r := local[i], remote[i]; !reflect.DeepEqual(r, l) {
			t.Fatalf("report %d diverged: local trace %d with %d FAIL, remote trace %d with %d FAIL",
				i, l.TraceID, l.Fails(), r.TraceID, r.Fails())
		}
	}
	if sess.Err() == nil {
		t.Fatal("unencodable section left no deferred error")
	}
}
