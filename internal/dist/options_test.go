package dist_test

import (
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/dist"
	"pmtest/internal/harness"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// hidden is the line the excludes case removes from checking.
const hidden = 0x8000

// optionSections mixes clean sections with two kinds of FAIL: a checked
// transaction that modifies hidden without a log backup and never
// persists it, which static excludes hide, and an unflushed write that
// an explicit isPersist asserts, which they do not.
func optionSections() [][]trace.Op {
	var out [][]trace.Op
	for i := 0; i < 6; i++ {
		addr := uint64(0x1000 + i*64)
		switch i % 3 {
		case 0:
			out = append(out, []trace.Op{
				{Kind: trace.KindWrite, Addr: addr, Size: 64},
				{Kind: trace.KindFlush, Addr: addr, Size: 64},
				{Kind: trace.KindFence},
				{Kind: trace.KindIsPersist, Addr: addr, Size: 64},
			})
		case 1:
			out = append(out, []trace.Op{
				{Kind: trace.KindTxCheckerStart},
				{Kind: trace.KindTxBegin},
				{Kind: trace.KindWrite, Addr: hidden, Size: 64},
				{Kind: trace.KindTxEnd},
				{Kind: trace.KindTxCheckerEnd},
			})
		default:
			out = append(out, []trace.Op{
				{Kind: trace.KindWrite, Addr: addr, Size: 8},
				{Kind: trace.KindIsPersist, Addr: addr, Size: 8},
			})
		}
	}
	return out
}

// gcSection is a section whose report epoch GC changes: write A and B,
// flush both, four fences, isOrderedBefore(A, B), flush A. Serial
// checking reports FAIL order-violation and WARN duplicate-writeback;
// with GC the fences retire both writes first, leaving WARN
// unnecessary-writeback alone.
func gcSection() []trace.Op {
	const a, b = 0x20000, 0x30000
	return []trace.Op{
		{Kind: trace.KindWrite, Addr: a, Size: 64},
		{Kind: trace.KindWrite, Addr: b, Size: 64},
		{Kind: trace.KindFlush, Addr: a, Size: 64},
		{Kind: trace.KindFlush, Addr: b, Size: 64},
		{Kind: trace.KindFence}, {Kind: trace.KindFence}, {Kind: trace.KindFence}, {Kind: trace.KindFence},
		{Kind: trace.KindIsOrderedBefore, Addr: a, Size: 64, Addr2: b, Size2: 64},
		{Kind: trace.KindFlush, Addr: a, Size: 64},
	}
}

// localDump checks sections on a local engine built from opts.
func localDump(opts core.Options, sections [][]trace.Op) string {
	return harness.DumpReports(harness.ReplaySections(core.NewEngine(opts), sections, 0))
}

// TestRemoteEngineOptions: a session's TrackOnly, Excludes and checker
// configuration reach the node that checks its sections and the local
// fallback that checks them when no node answers. On either path the
// reports equal, byte for byte, a local engine's built with the same
// options.
func TestRemoteEngineOptions(t *testing.T) {
	node := dist.NewNode(dist.NodeConfig{})
	srv := httptest.NewServer(node)
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // connection refused from here on

	sections := append(optionSections(), gcSection())
	plain := localDump(core.Options{}, sections)
	cases := []struct {
		name string
		opts core.Options
	}{
		{"track-only", core.Options{TrackOnly: true}},
		{"excludes", core.Options{StaticExcludes: []core.Range{{Addr: hidden, Size: 64}}}},
		{"epoch-gc", core.Options{Check: core.Config{EpochGC: true}}},
	}
	fleets := []struct {
		name string
		addr string
		up   bool
	}{
		{"node", strings.TrimPrefix(srv.URL, "http://"), true},
		{"dead-fleet", dead, false},
	}
	for _, tc := range cases {
		want := localDump(tc.opts, sections)
		if want == plain {
			t.Fatalf("%s: the options change no report, so the case proves nothing", tc.name)
		}
		if tc.opts.StaticExcludes != nil && !strings.Contains(want, "FAIL") {
			t.Fatalf("%s: the excludes hide every FAIL, want only those at %#x hidden:\n%s", tc.name, hidden, want)
		}
		for _, fl := range fleets {
			t.Run(tc.name+"/"+fl.name, func(t *testing.T) {
				m := obs.NewMetrics(8)
				s, err := dist.Open("options-"+tc.name, tc.opts, dist.Options{
					Nodes:      []string{fl.addr},
					RPCTimeout: 2 * time.Second,
					Attempts:   1,
					Metrics:    m,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := harness.DumpReports(harness.ReplaySections(s, sections, 0))
				if got != want {
					t.Fatalf("reports differ from a local engine's:\nlocal:\n%s\nremote:\n%s", want, got)
				}
				sent, fallbacks := uint64(len(sections)), uint64(0)
				if !fl.up {
					sent, fallbacks = 0, uint64(len(sections))
				}
				snap := m.Snapshot()
				if snap.DistSectionsSent != sent || snap.DistFallbacks != fallbacks {
					t.Fatalf("sent=%d fallbacks=%d, want %d/%d",
						snap.DistSectionsSent, snap.DistFallbacks, sent, fallbacks)
				}
			})
		}
	}
}

// TestDeadFleetFallbackSites: with every node down, each section is
// checked in-process from its buffered payload, decoded as a node
// decodes it. Sections recorded with call sites (CaptureSites) keep
// them through that decode, so the reports, FAIL sites included, equal
// a local engine's.
func TestDeadFleetFallbackSites(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	var sections [][]trace.Op
	for _, ops := range optionSections() {
		b := trace.NewBuilder(0, true)
		for _, op := range ops {
			b.Record(op, 0)
		}
		sections = append(sections, b.Take().Ops)
	}
	want := localDump(core.Options{}, sections)
	if !strings.Contains(want, "FAIL") || !strings.Contains(want, "dist/options_test.go:") {
		t.Fatalf("the local reports carry no FAIL at a captured site:\n%s", want)
	}
	m := obs.NewMetrics(8)
	s, err := dist.Open("dead-fleet-sites", core.Options{}, dist.Options{
		Nodes:      []string{dead},
		RPCTimeout: 2 * time.Second,
		Attempts:   1,
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := harness.DumpReports(harness.ReplaySections(s, sections, 0)); got != want {
		t.Fatalf("fallback reports differ from a local engine's:\nlocal:\n%s\nfallback:\n%s", want, got)
	}
	if snap := m.Snapshot(); snap.DistFallbacks != uint64(len(sections)) || snap.DistSectionsSent != 0 {
		t.Fatalf("fallbacks=%d sent=%d, want %d/0", snap.DistFallbacks, snap.DistSectionsSent, len(sections))
	}
}
