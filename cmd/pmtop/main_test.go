package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pmtest/internal/flight"
	"pmtest/internal/obs"
)

// liveNode serves a snapshot (source "live") and a span search over one
// recorded span, the two documents pmtop reads; it returns host:port.
func liveNode(t *testing.T) string {
	t.Helper()
	rec := flight.NewRecorder(8)
	rec.Start(flight.CatRPC, "handle-section", 0).Finish()
	mux := http.NewServeMux()
	mux.Handle("/obs/v1/snapshot", obs.SnapshotHandler(&obs.SnapshotSource{Source: "live", Metrics: obs.NewMetrics(8)}))
	mux.Handle(flight.SearchPath, flight.Handler(rec))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// deadNode returns an address nothing listens on.
func deadNode(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	return strings.TrimPrefix(srv.URL, "http://")
}

// countingNode answers every request with a 500 and counts them.
func countingNode(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		http.Error(w, "counted", http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), &n
}

// commands are the two fleet reads that share the poll loop.
var commands = map[string][]string{"snapshot": nil, "spans": {"spans"}}

func runPmtop(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestOnceOneDeadNode: -once with one live and one dead node exits 0
// and prints a partial document whose rows follow the argument order,
// whichever node is listed first, the dead node's carrying its error,
// with one warning for that row. -once ignores -interval, even a zero
// one.
func TestOnceOneDeadNode(t *testing.T) {
	live, dead := liveNode(t), deadNode(t)
	// A snapshot row names the node's self-reported source, a span row
	// the node spec it was asked at.
	liveRow := map[string]string{"snapshot": "live", "spans": live}
	for name, cmd := range commands {
		t.Run(name, func(t *testing.T) {
			for _, deadFirst := range []bool{false, true} {
				order, nodes := "live-first", []string{live, dead}
				if deadFirst {
					order, nodes = "dead-first", []string{dead, live}
				}
				t.Run(order, func(t *testing.T) {
					args := append(append(cmd, "-once", "-interval", "0", "-timeout", "2s"), nodes...)
					code, stdout, stderr := runPmtop(args...)
					if code != 0 {
						t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
					}
					var doc struct {
						Partial bool `json:"partial"`
						Sources []struct {
							Source string `json:"source"`
							Err    string `json:"err"`
						} `json:"sources"`
					}
					if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
						t.Fatalf("stdout is not JSON: %v\n%s", err, stdout)
					}
					if !doc.Partial || len(doc.Sources) != 2 {
						t.Fatalf("partial = %v, sources = %+v", doc.Partial, doc.Sources)
					}
					for i, node := range nodes {
						s := doc.Sources[i]
						if node == live && (s.Source != liveRow[name] || s.Err != "") {
							t.Errorf("row %d = %+v, want the live node", i, s)
						}
						if node == dead && (s.Source != dead || s.Err == "") {
							t.Errorf("row %d = %+v, want the dead node with an error", i, s)
						}
					}
					if n := strings.Count(stderr, "node query failed"); n != 1 {
						t.Errorf("%d warnings, want 1:\n%s", n, stderr)
					}
				})
			}
		})
	}
}

// TestOnceAllDead: -once exits 1 when no node answered.
func TestOnceAllDead(t *testing.T) {
	dead := deadNode(t)
	for name, cmd := range commands {
		if code, _, stderr := runPmtop(append(cmd, "-once", dead, dead)...); code != 1 {
			t.Errorf("%s: exit %d, want 1; stderr:\n%s", name, code, stderr)
		}
	}
}

// TestUsageErrorsSendNothing: a live view without a positive interval
// and an unknown span category are usage errors, caught before any
// node is asked.
func TestUsageErrorsSendNothing(t *testing.T) {
	node, requests := countingNode(t)
	for _, args := range [][]string{
		{"-interval", "0", node},
		{"-interval", "-1s", node},
		{"spans", "-interval", "0", node},
		{"spans", "-once", "-category", "nope", node},
	} {
		if code, _, _ := runPmtop(args...); code != 1 {
			t.Errorf("pmtop %v: exit %d, want 1", args, code)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("usage errors sent %d requests, want 0", n)
	}
}
