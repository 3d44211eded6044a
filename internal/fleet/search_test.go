package fleet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/dist"
	"pmtest/internal/fleet"
	"pmtest/internal/flight"
)

// searchServer serves a recorder's /flight/v1/search over loopback HTTP
// and returns its host:port.
func searchServer(t *testing.T, rec *flight.Recorder) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(flight.SearchPath, flight.Handler(rec))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()
	return addr
}

// TestFanOutMergeNewestFirst proves the merged result is one
// newest-first total order across nodes, capped by the global limit.
func TestFanOutMergeNewestFirst(t *testing.T) {
	base := time.Now()
	recA := flight.NewRecorder(16)
	recB := flight.NewRecorder(16)
	// Interleave timestamps across the two nodes: A holds even offsets,
	// B odd ones.
	for i := 0; i < 8; i++ {
		rec := recA
		if i%2 == 1 {
			rec = recB
		}
		rec.StartAt(flight.CatEngine, "check", 0, base.Add(time.Duration(i)*time.Millisecond)).
			SetInt("i", int64(i)).Finish()
	}
	nodes := []string{searchServer(t, recA), searchServer(t, recB)}

	res, err := fleet.Search(context.Background(), nodes, flight.Query{}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("partial with both nodes up: %+v", res.Sources)
	}
	if len(res.Spans) != 8 {
		t.Fatalf("spans = %d, want 8", len(res.Spans))
	}
	for j, s := range res.Spans {
		if want := "7 6 5 4 3 2 1 0"[j*2 : j*2+1]; s.AttrString("i") != want {
			t.Fatalf("merge order[%d]: i = %s, want %s", j, s.AttrString("i"), want)
		}
	}

	// The limit keeps the globally newest spans, not a per-node page.
	res, err = fleet.Search(context.Background(), nodes, flight.Query{Limit: 3}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, s := range res.Spans {
		got = append(got, s.AttrString("i"))
	}
	if !reflect.DeepEqual(got, []string{"7", "6", "5"}) {
		t.Fatalf("limited merge = %v, want [7 6 5]", got)
	}
}

// TestFanOutDeadNodeDeterministic pins graceful degradation: a dead
// node becomes a provenance error row and sets Partial, the live node's
// spans still arrive, and repeated queries merge identically.
func TestFanOutDeadNodeDeterministic(t *testing.T) {
	rec := flight.NewRecorder(16)
	base := time.Now()
	for i := 0; i < 4; i++ {
		rec.StartAt(flight.CatRPC, "handle-section", 0, base.Add(time.Duration(i)*time.Millisecond)).
			SetInt("seq", int64(i)).Finish()
	}
	nodes := []string{deadAddr(t), searchServer(t, rec)}

	var first fleet.Result
	for round := 0; round < 3; round++ {
		res, err := fleet.Search(context.Background(), nodes, flight.Query{}, fleet.Options{Timeout: time.Second})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !res.Partial {
			t.Fatalf("round %d: Partial = false with a dead node", round)
		}
		if len(res.Sources) != 2 {
			t.Fatalf("round %d: sources = %+v", round, res.Sources)
		}
		if res.Sources[0].Source != nodes[0] || res.Sources[0].Err == "" {
			t.Fatalf("round %d: dead node row = %+v", round, res.Sources[0])
		}
		if res.Sources[1].Err != "" || res.Sources[1].Spans != 4 {
			t.Fatalf("round %d: live node row = %+v", round, res.Sources[1])
		}
		if len(res.Spans) != 4 {
			t.Fatalf("round %d: spans = %d, want 4", round, len(res.Spans))
		}
		for j, s := range res.Spans {
			if want := int64(3 - j); s.AttrString("seq") != "3210"[j:j+1] {
				t.Fatalf("round %d: order[%d] seq = %s, want %d", round, j, s.AttrString("seq"), want)
			}
		}
		if round == 0 {
			first = res
		} else if !sameSpans(first, res) {
			t.Fatalf("round %d merged differently:\n%+v\nvs\n%+v", round, first.Spans, res.Spans)
		}
	}
}

// sameSpans compares two results by (source, id) sequence.
func sameSpans(a, b fleet.Result) bool {
	if len(a.Spans) != len(b.Spans) {
		return false
	}
	for i := range a.Spans {
		if a.Spans[i].Source != b.Spans[i].Source || a.Spans[i].ID != b.Spans[i].ID {
			return false
		}
	}
	return true
}

// TestFanOutBadQuerySurfaced proves a node's 400 JSON error body comes
// back as that node's provenance error, not a silent empty result. A
// limit past the node's 100 000 cap is a query every node rejects.
func TestFanOutBadQuerySurfaced(t *testing.T) {
	rec := flight.NewRecorder(4)
	node := searchServer(t, rec)
	res, err := fleet.Search(context.Background(), []string{node},
		flight.Query{Limit: 100_001}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The row carries the node's message, not its raw JSON body.
	const msg = `status 400 Bad Request: bad limit "100001": want 1..100000`
	if !res.Partial || len(res.Sources) != 1 || res.Sources[0].Err != msg {
		t.Fatalf("bad-query result = %+v", res)
	}
}

// TestFanOutNoNodes pins the one hard error: an empty node list.
func TestFanOutNoNodes(t *testing.T) {
	if _, err := fleet.Search(context.Background(), nil, flight.Query{}, fleet.Options{}); err == nil {
		t.Fatal("no-nodes search did not error")
	}
}

// TestSessionSpansBothKeys proves SessionSpans unions the client-side
// (attr session) and node-side (attr remote_session_id) spans of one
// session and excludes other sessions' spans.
func TestSessionSpansBothKeys(t *testing.T) {
	rec := flight.NewRecorder(16)
	rec.Start(flight.CatSession, "section", 0).SetStr("session", "pmtest-1").Finish()
	rec.Start(flight.CatRPC, "handle-section", 0).SetStr("remote_session_id", "pmtest-1").Finish()
	rec.Start(flight.CatSession, "section", 0).SetStr("session", "pmtest-2").Finish()
	// A span query drops any path the node spec carries.
	node := "http://" + searchServer(t, rec) + "/obs/v1/snapshot"

	res, err := fleet.SessionSpans(context.Background(), []string{node}, "pmtest-1", fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != 2 {
		t.Fatalf("session spans = %d, want 2: %+v", len(res.Spans), res.Spans)
	}
	for _, s := range res.Spans {
		if s.AttrString("session") != "pmtest-1" && s.AttrString("remote_session_id") != "pmtest-1" {
			t.Fatalf("foreign span leaked: %+v", s)
		}
	}
}

// reportsServer serves a canned ReportsResponse at the dist route.
func reportsServer(t *testing.T, resp dist.ReportsResponse) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(dist.PathReports, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestReportsFanOutDedup proves the per-session report lookup merges
// overlapping windows (the post-failover fleet state) by TraceID,
// sorted in section order, with dead nodes degrading to provenance.
func TestReportsFanOutDedup(t *testing.T) {
	// Node A held sections 0-2 before the client failed over; node B
	// re-checked from 2 onward, so TraceID 2 exists on both.
	a := reportsServer(t, dist.ReportsResponse{Session: "s", StartSeq: 0, Reports: []core.Report{
		{TraceID: 0, Ops: 4}, {TraceID: 1, Ops: 4}, {TraceID: 2, Ops: 6},
	}})
	b := reportsServer(t, dist.ReportsResponse{Session: "s", StartSeq: 2, Reports: []core.Report{
		{TraceID: 2, Ops: 6}, {TraceID: 3, Ops: 8},
	}})
	dead := deadAddr(t)

	res, err := fleet.Reports(context.Background(), []string{a, dead, b}, "s", fleet.Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("Partial = false with a dead node")
	}
	if len(res.Reports) != 4 {
		t.Fatalf("reports = %d, want 4 after dedup: %+v", len(res.Reports), res.Reports)
	}
	for i, r := range res.Reports {
		if r.TraceID != i {
			t.Fatalf("reports[%d].TraceID = %d, want %d", i, r.TraceID, i)
		}
	}
	if res.Sources[1].Err == "" {
		t.Fatalf("dead node row = %+v", res.Sources[1])
	}
	// B contributed only the one report A didn't already hold.
	if res.Sources[2].Spans != 1 {
		t.Fatalf("node B row = %+v", res.Sources[2])
	}
}
