package pmtest

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strings"
	"sync"
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
	// The in-process check is observed like a local engine: its sections
	// and their FAIL reach the session's counters.
	if snap.TracesChecked != 2 || snap.DiagsBySeverity["FAIL"] != 1 {
		t.Fatalf("traces_checked = %d, FAIL = %d; want 2 and 1 as a local session counts them",
			snap.TracesChecked, snap.DiagsBySeverity["FAIL"])
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

// TestRemoteInvalidKindMatchesLocal: a section holding an op whose kind
// was left unset is one a node could not decode, so it never leaves the
// program: it is checked in-process in its place, against a live node
// and against a dead fleet alike, the reports equal the local engine's
// and the encode error is deferred.
func TestRemoteInvalidKindMatchesLocal(t *testing.T) {
	run := func(sess *Session) []Report {
		th := sess.ThreadInit()
		th.Start()
		for i, kind := range []trace.Kind{trace.KindWrite, trace.KindInvalid, trace.KindWrite} {
			addr := uint64(0x100 * (i + 1))
			th.Record(trace.Op{Kind: kind, Addr: addr, Size: 64}, 0)
			th.IsPersist(addr, 64)
			th.SendTrace()
		}
		return sess.Exit()
	}
	local := run(Init(Config{}))
	if len(local) != 3 {
		t.Fatalf("local run: %d reports, want 3", len(local))
	}
	for _, c := range []struct {
		name string
		rc   *RemoteConfig
	}{
		{"live", &RemoteConfig{Nodes: []string{remoteNodeAddr(t)}}},
		{"dead", &RemoteConfig{Nodes: []string{"127.0.0.1:1"}, RPCTimeout: 200 * time.Millisecond, Attempts: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sess := Init(Config{Remote: c.rc})
			if remote := run(sess); !reflect.DeepEqual(remote, local) {
				t.Fatalf("remote reports differ from the local run's:\nlocal  %+v\nremote %+v", local, remote)
			}
			if sess.Err() == nil {
				t.Fatal("a section with an invalid op kind left no deferred error")
			}
		})
	}
}

// logSink collects the records of every logCapture handler built from
// it.
type logSink struct {
	mu   sync.Mutex
	recs []loggedRecord
}

type loggedRecord struct {
	msg   string
	attrs []slog.Attr // the logger's With attributes, then the record's
}

// logCapture is a slog.Handler that keeps each record with the
// attributes its logger was built With.
type logCapture struct {
	sink *logSink
	with []slog.Attr
}

func (h *logCapture) Enabled(context.Context, slog.Level) bool { return true }

func (h *logCapture) Handle(_ context.Context, r slog.Record) error {
	attrs := append([]slog.Attr(nil), h.with...)
	r.Attrs(func(a slog.Attr) bool {
		attrs = append(attrs, a)
		return true
	})
	h.sink.mu.Lock()
	h.sink.recs = append(h.sink.recs, loggedRecord{r.Message, attrs})
	h.sink.mu.Unlock()
	return nil
}

func (h *logCapture) WithAttrs(as []slog.Attr) slog.Handler {
	return &logCapture{sink: h.sink, with: append(append([]slog.Attr(nil), h.with...), as...)}
}

func (h *logCapture) WithGroup(string) slog.Handler { return h }

func (s *logSink) records() []loggedRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]loggedRecord(nil), s.recs...)
}

// TestRemoteLocalCheckReopens: a section checked in-process while its
// session is open on a node (here one whose call-site file name the
// wire format cannot carry) leaves the node session open, and the next
// section, being past the seq the node expects (nodeNext), reopens it
// at its own seq instead of being refused as a gap. No RPC fails,
// nothing reports a lost session, and the reports equal a local run's.
func TestRemoteLocalCheckReopens(t *testing.T) {
	long := strings.Repeat("f", 70000)
	run := func(sess *Session) []Report {
		th := sess.ThreadInit()
		th.Start()
		for i, file := range []string{"", long, "", ""} {
			addr := uint64(0x100 * (i + 1))
			th.Record(trace.Op{Kind: trace.KindWrite, Addr: addr, Size: 64, File: file, Line: 7}, 0)
			th.IsPersist(addr, 64)
			th.SendTrace()
		}
		return sess.Exit()
	}
	local := run(Init(Config{}))
	m := obs.NewMetrics(8)
	sink := &logSink{}
	remote := run(Init(Config{
		Remote:  &RemoteConfig{Nodes: []string{remoteNodeAddr(t)}},
		Metrics: m,
		Logger:  slog.New(&logCapture{sink: sink}),
	}))

	if len(local) != 4 || !reflect.DeepEqual(remote, local) {
		t.Fatalf("remote reports differ from the local run's:\nlocal  %+v\nremote %+v", local, remote)
	}
	snap := m.Snapshot()
	if snap.DistRPCErrors != 0 || snap.DistFallbacks != 1 || snap.DistSectionsSent != 3 {
		t.Fatalf("rpc_errors=%d fallbacks=%d sent=%d, want 0/1/3", snap.DistRPCErrors, snap.DistFallbacks, snap.DistSectionsSent)
	}
	for _, r := range sink.records() {
		if strings.Contains(r.msg, "session lost") {
			t.Fatalf("logged %q after a local check", r.msg)
		}
	}
}

// TestRemoteLogSessionAttr: every record of a remote session whose
// node dies mid-run (a failover) and whose fleet is then down (a local
// check) carries exactly one "session" attribute, SID(): the dist
// client's records, the local check's and the session's own.
func TestRemoteLogSessionAttr(t *testing.T) {
	node := dist.NewNode(dist.NodeConfig{})
	srv := httptest.NewServer(node)
	defer node.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	m := obs.NewMetrics(8)
	sink := &logSink{}
	sess := Init(Config{
		Remote: &RemoteConfig{
			Nodes:      []string{strings.TrimPrefix(srv.URL, "http://"), dead},
			RPCTimeout: time.Second,
			Attempts:   1,
		},
		Metrics: m,
		Logger:  slog.New(&logCapture{sink: sink}),
	})
	th := sess.ThreadInit()
	th.Start()
	th.Write(0x10, 64)
	th.IsPersist(0x10, 64)
	th.SendTrace()
	sess.GetResult()
	srv.Close() // the node holding the session dies
	th.Write(0x90, 64)
	th.IsPersist(0x90, 64)
	th.SendTrace()
	if reports := sess.Exit(); len(reports) != 2 || reports[1].Fails() != 1 {
		t.Fatalf("reports = %+v, want two, the second with one FAIL", reports)
	}
	if snap := m.Snapshot(); snap.DistFailovers == 0 || snap.DistFallbacks == 0 {
		t.Fatalf("failovers=%d fallbacks=%d, want both", snap.DistFailovers, snap.DistFallbacks)
	}

	seen := map[string]bool{}
	for _, r := range sink.records() {
		var vals []string
		for _, a := range r.attrs {
			if a.Key == "session" {
				vals = append(vals, a.Value.String())
			}
		}
		if want := sess.SID(); len(vals) != 1 || vals[0] != want {
			t.Errorf("record %q: session attributes %q, want [%s]", r.msg, vals, want)
		}
		seen[r.msg] = true
	}
	for _, msg := range []string{"dist failover", "dist degraded to local check"} {
		if !seen[msg] {
			t.Errorf("no %q record", msg)
		}
	}
}

// gcSensitiveSection sends the ten-op section whose report epoch GC
// changes: write A and B, flush both, four fences, isOrderedBefore(A,
// B), flush A. Serial checking reports FAIL order-violation and WARN
// duplicate-writeback; with GC the fences retire both writes first,
// leaving WARN unnecessary-writeback alone.
func gcSensitiveSection(th *Thread, a uint64) {
	b := a + 0x1000
	th.Write(a, 64)
	th.Write(b, 64)
	th.Flush(a, 64)
	th.Flush(b, 64)
	for i := 0; i < 4; i++ {
		th.Fence()
	}
	th.IsOrderedBefore(a, 64, b, 64)
	th.Flush(a, 64)
	th.SendTrace()
}

// TestRemoteHonorsCheckConfig: a remote session checks its sections
// under its own Config's Shards and EpochGC on every path: on a live
// node, in the local check of a dead fleet, and on both sides of a node
// killed after the first section. Its reports equal a local session's
// under the same Config.
func TestRemoteHonorsCheckConfig(t *testing.T) {
	run := func(sess *Session, afterFirst func()) []Report {
		th := sess.ThreadInit()
		th.Start()
		gcSensitiveSection(th, 0x10000)
		sess.GetResult()
		afterFirst()
		gcSensitiveSection(th, 0x20000)
		return sess.Exit()
	}
	// The witness: epoch GC changes this trace's report, so a path that
	// ignores the session's EpochGC shows. Once epoch GC is made
	// report-invariant (ROADMAP), GC on and off report alike here, and
	// this test needs another witness of a spec that reaches the node.
	off := run(Init(Config{}), func() {})
	for _, cfg := range []Config{{EpochGC: true}, {Shards: 4, EpochGC: true}} {
		want := run(Init(cfg), func() {})
		if reflect.DeepEqual(want, off) {
			t.Fatalf("%+v: the local reports equal GC off's, so the case proves nothing:\n%s", cfg, Summarize(want))
		}
		for _, path := range []string{"live", "dead-fleet", "killed"} {
			t.Run(fmt.Sprintf("shards%d-gc/%s", max(cfg.Shards, 1), path), func(t *testing.T) {
				node := dist.NewNode(dist.NodeConfig{})
				srv := httptest.NewServer(node)
				t.Cleanup(func() {
					srv.Close()
					node.Close()
				})
				addr, kill := strings.TrimPrefix(srv.URL, "http://"), func() {}
				sent, fallbacks := uint64(2), uint64(0)
				switch path {
				case "dead-fleet":
					addr, sent, fallbacks = "127.0.0.1:1", 0, 2
				case "killed":
					kill = func() {
						srv.CloseClientConnections()
						srv.Close()
					}
					sent, fallbacks = 1, 1
				}
				m := obs.NewMetrics(8)
				rc := cfg
				rc.Metrics = m
				rc.Remote = &RemoteConfig{Nodes: []string{addr}, RPCTimeout: time.Second, Attempts: 1}
				if got := run(Init(rc), kill); !reflect.DeepEqual(got, want) {
					t.Fatalf("remote reports differ from a local session's:\nlocal:\n%s\nremote:\n%s", Summarize(want), Summarize(got))
				}
				if snap := m.Snapshot(); snap.DistSectionsSent != sent || snap.DistFallbacks != fallbacks {
					t.Fatalf("sent=%d fallbacks=%d, want %d/%d", snap.DistSectionsSent, snap.DistFallbacks, sent, fallbacks)
				}
			})
		}
	}
}

// TestSessionNamesUniqueAcrossProcesses: two programs checking on one
// fleet never share a node session. The test binary runs itself twice,
// as two child processes streaming to one node. The first sends a
// section that FAILs and ends without Exit, like a crashed program, so
// its node session stays open; the second sends a clean section, and
// its report must be clean. Were a session named by a per-process
// counter alone, both would be the process's first session under one
// name, and the node would answer the second child's first section
// with the first child's stored FAIL.
func TestSessionNamesUniqueAcrossProcesses(t *testing.T) {
	if mode := os.Getenv("PMTEST_SID_CHILD"); mode != "" {
		sess := Init(Config{Remote: &RemoteConfig{Nodes: []string{os.Getenv("PMTEST_SID_NODE")}}})
		th := sess.ThreadInit()
		th.Start()
		if mode == "crash" {
			th.Write(0x10, 8)
			th.IsPersist(0x10, 8)
			th.SendTrace()
			fmt.Printf("sid %s\nreports %s\n", sess.SID(), Summarize(sess.GetResult()))
			return // no Exit: the node keeps the session
		}
		th.Write(0x40, 8)
		th.Flush(0x40, 8)
		th.Fence()
		th.IsPersist(0x40, 8)
		th.SendTrace()
		fmt.Printf("sid %s\nreports %s\n", sess.SID(), Summarize(sess.Exit()))
		return
	}
	node := dist.NewNode(dist.NodeConfig{})
	srv := httptest.NewServer(node)
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	line := regexp.MustCompile(`(?s)sid (\S+)\nreports (.*?)\n(PASS|$)`)
	var sids, reports []string
	for _, mode := range []string{"crash", "clean"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSessionNamesUniqueAcrossProcesses$", "-test.count=1")
		cmd.Env = append(os.Environ(), "PMTEST_SID_CHILD="+mode, "PMTEST_SID_NODE="+strings.TrimPrefix(srv.URL, "http://"))
		out, err := cmd.CombinedOutput()
		m := line.FindSubmatch(out)
		if err != nil || m == nil {
			t.Fatalf("%s child: %v\n%s", mode, err, out)
		}
		sids, reports = append(sids, string(m[1])), append(reports, string(m[2]))
	}
	if !strings.Contains(reports[0], "1 FAIL") || !strings.Contains(reports[1], "0 FAIL, 0 WARN") {
		t.Fatalf("reports: crashed child\n%s\nclean child\n%s\nwant one FAIL, then a clean report", reports[0], reports[1])
	}
	form := regexp.MustCompile(`^pmtest-[0-9a-f]{16}-[0-9]+$`)
	if sids[0] == sids[1] || !form.MatchString(sids[0]) || !form.MatchString(sids[1]) {
		t.Fatalf("session names %q and %q, want two distinct pmtest-<16 hex digits>-<n>", sids[0], sids[1])
	}
	if n := node.Sessions(); n != 1 {
		t.Fatalf("node hosts %d sessions, want the crashed child's alone", n)
	}
}
