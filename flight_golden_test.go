package pmtest_test

// Golden test for the flight recorder's end-to-end causal chain: a
// deliberately buggy PMDK run (the undo-log entry's writeback is
// skipped, so the log cannot be proven durable before the data write)
// must export a Chrome trace whose checker FAIL span is parented under
// the transaction span that contains the guilty operation, which in
// turn is parented under the section span — with the persist-interval
// diagnostic riding along as an annotation. The structural summary is
// pinned as a literal; timestamps are excluded, everything else (span
// topology, op indices, codes) is deterministic for a fixed insert.

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"pmtest"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
	"pmtest/internal/pmdk"
	"pmtest/internal/pmem"
	"pmtest/internal/whisper"
)

func TestFlightGoldenBuggyPMDK(t *testing.T) {
	rec := flight.NewRecorder(64)
	sess := pmtest.Init(pmtest.Config{Flight: rec})
	th := sess.ThreadInit()
	th.Start()
	dev := pmem.New(1<<24, th)
	s, err := whisper.NewCTree(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Pool().SetBugs(pmdk.Bugs{SkipLogEntryFlush: true})
	s.Pool().SetAnnotations(true)
	s.SetCheckers(true)
	if err := s.Insert(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	th.SendTrace()
	sess.Exit()

	var buf strings.Builder
	if err := flight.WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	tr, err := flight.ReadChrome(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	byID := map[float64]flight.ChromeEvent{}
	var checker, tx, section flight.ChromeEvent
	for _, e := range tr.TraceEvents {
		byID[e.Args["span_id"].(float64)] = e
		switch e.Cat {
		case "checker":
			checker = e
		case "tx":
			tx = e
		case "session":
			section = e
		}
	}

	// The causal chain: checker FAIL → tx → section.
	if checker.Name != "order-violation" || checker.Args["error"] != true {
		t.Fatalf("checker span = %+v, want order-violation FAIL", checker)
	}
	parentTx, ok := byID[checker.Args["parent_span_id"].(float64)]
	if !ok || parentTx.Cat != "tx" {
		t.Fatalf("checker parent = %+v, want the tx span", parentTx)
	}
	if grand, _ := byID[parentTx.Args["parent_span_id"].(float64)]; grand.Cat != "session" {
		t.Fatalf("tx parent = %+v, want the section span", grand)
	}
	// The guilty op index falls inside the tx's recorded op range.
	opIdx := checker.Args["op_index"].(float64)
	if lo, hi := tx.Args["begin_op"].(float64), tx.Args["end_op"].(float64); opIdx < lo || opIdx > hi {
		t.Fatalf("op_index %v outside tx range [%v,%v]", opIdx, lo, hi)
	}
	// The persist-interval diagnostic is carried on the span.
	if msg, _ := checker.Args["message"].(string); !strings.Contains(msg, "persist intervals overlap") {
		t.Fatalf("checker message = %q, want persist-interval overlap text", msg)
	}
	_ = section

	// Pin the normalized structure (spans sorted by category/name;
	// parents named by category; timestamps excluded).
	name := func(id any) string {
		if id == nil {
			return "root"
		}
		return byID[id.(float64)].Cat
	}
	var lines []string
	for _, e := range tr.TraceEvents {
		l := fmt.Sprintf("%s/%s parent=%s", e.Cat, e.Name, name(e.Args["parent_span_id"]))
		for _, k := range []string{"ops", "tracked_ops", "fails", "begin_op", "end_op", "op_index", "severity", "error"} {
			if v, ok := e.Args[k]; ok {
				l += fmt.Sprintf(" %s=%v", k, v)
			}
		}
		lines = append(lines, l)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n")
	const golden = `checker/order-violation parent=tx op_index=40 severity=FAIL error=true
engine/check parent=session ops=58 tracked_ops=52 fails=1 error=true
session/section parent=root ops=58
tx/tx parent=session begin_op=20 end_op=44`
	if got != golden {
		t.Fatalf("flight structure drifted:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestFlightCleanRunNoCheckerSpans is the negative control: the same
// workload without the injected bug produces section, tx and engine
// spans but no checker spans and no errors.
func TestFlightCleanRunNoCheckerSpans(t *testing.T) {
	rec := flight.NewRecorder(64)
	sess := pmtest.Init(pmtest.Config{Flight: rec})
	th := sess.ThreadInit()
	th.Start()
	dev := pmem.New(1<<24, th)
	s, err := whisper.NewCTree(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Pool().SetAnnotations(true)
	s.SetCheckers(true)
	if err := s.Insert(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	th.SendTrace()
	reports := sess.Exit()
	for _, r := range reports {
		if !r.Clean() {
			t.Fatalf("clean run flagged: %s", r.Summary())
		}
	}
	if n := rec.Len(flight.CatChecker); n != 0 {
		t.Fatalf("clean run produced %d checker spans", n)
	}
	for _, cat := range []flight.Category{flight.CatSession, flight.CatTx, flight.CatEngine} {
		if rec.Len(cat) == 0 {
			t.Fatalf("clean run missing %s spans", cat)
		}
	}
	if errSpans := rec.Search(flight.Query{ErrOnly: true}); len(errSpans) != 0 {
		t.Fatalf("clean run has error spans: %+v", errSpans)
	}
}

// TestFlightGoldenBuggyPMDKDeadFleet runs TestFlightGoldenBuggyPMDK's
// program as a remote session whose one node is down. The section is
// checked in-process, which keeps its span identity and the session's
// observers: the structure equals the local golden line for line, plus
// the section's rpc span, routed to the local fallback, and the FAIL
// reaches the session's counters.
func TestFlightGoldenBuggyPMDKDeadFleet(t *testing.T) {
	rec := flight.NewRecorder(64)
	m := obs.NewMetrics(8)
	sess := pmtest.Init(pmtest.Config{Flight: rec, Metrics: m, Remote: &pmtest.RemoteConfig{
		Nodes: []string{"127.0.0.1:1"}, RPCTimeout: 200 * time.Millisecond, Attempts: 1}})
	th := sess.ThreadInit()
	th.Start()
	s, err := whisper.NewCTree(pmem.New(1<<24, th), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Pool().SetBugs(pmdk.Bugs{SkipLogEntryFlush: true})
	s.Pool().SetAnnotations(true)
	s.SetCheckers(true)
	if err := s.Insert(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	th.SendTrace()
	sess.Exit()

	var buf strings.Builder
	if err := flight.WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	tr, err := flight.ReadChrome(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	cat := map[float64]string{}
	for _, e := range tr.TraceEvents {
		cat[e.Args["span_id"].(float64)] = e.Cat
	}
	var lines []string
	for _, e := range tr.TraceEvents {
		parent := "root"
		if id, ok := e.Args["parent_span_id"].(float64); ok {
			parent = cat[id]
		}
		l := fmt.Sprintf("%s/%s parent=%s", e.Cat, e.Name, parent)
		for _, k := range []string{"ops", "tracked_ops", "fails", "begin_op", "end_op", "op_index", "severity", "error", "route"} {
			if v, ok := e.Args[k]; ok {
				l += fmt.Sprintf(" %s=%v", k, v)
			}
		}
		lines = append(lines, l)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n")
	const golden = `checker/order-violation parent=tx op_index=40 severity=FAIL error=true
engine/check parent=session ops=58 tracked_ops=52 fails=1 error=true
rpc/section parent=session error=true route=local-fallback
session/section parent=root ops=58
tx/tx parent=session begin_op=20 end_op=44`
	if got != golden {
		t.Fatalf("flight structure drifted:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
	if snap := m.Snapshot(); snap.DistFallbacks != 1 || snap.TracesChecked != 1 || snap.DiagsBySeverity["FAIL"] != 1 {
		t.Fatalf("fallbacks=%d traces_checked=%d FAIL=%d, want 1/1/1",
			snap.DistFallbacks, snap.TracesChecked, snap.DiagsBySeverity["FAIL"])
	}
}
