package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pmtest/internal/obs"
)

// node spins up one fake /obs/v1/snapshot endpoint serving the given
// document.
func node(t *testing.T, source string, traces uint64) *httptest.Server {
	t.Helper()
	m := obs.NewMetrics(8)
	m.TracesChecked.Add(traces)
	src := &obs.SnapshotSource{Source: source, Metrics: m}
	mux := http.NewServeMux()
	mux.Handle("/obs/v1/snapshot", obs.SnapshotHandler(src))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestSnapshotURL(t *testing.T) {
	cases := map[string]string{
		"host:8081":                       "http://host:8081/obs/v1/snapshot",
		"http://host:8081":                "http://host:8081/obs/v1/snapshot",
		"https://host":                    "https://host/obs/v1/snapshot",
		"http://host:8081/custom/metrics": "http://host:8081/custom/metrics",
	}
	for in, want := range cases {
		if got := snapshotURL(in); got != want {
			t.Errorf("snapshotURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCollectAllUp(t *testing.T) {
	a, b := node(t, "alpha", 10), node(t, "beta", 32)
	merged, err := Collect(context.Background(), []string{a.URL, b.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Partial {
		t.Fatalf("all nodes up but partial: %+v", merged.Sources)
	}
	if merged.Metrics.TracesChecked != 42 {
		t.Errorf("TracesChecked = %d, want 42", merged.Metrics.TracesChecked)
	}
	if len(merged.Sources) != 2 || merged.Sources[0].Source != "alpha" || merged.Sources[1].Source != "beta" {
		t.Errorf("sources = %+v", merged.Sources)
	}
}

// TestCollectPartialFailure is the acceptance scenario: three endpoints,
// one down and one slow past the per-node timeout — the collection still
// returns a merged snapshot built from the healthy node, flagged partial,
// with a per-node error row for each failure.
func TestCollectPartialFailure(t *testing.T) {
	healthy := node(t, "healthy", 7)

	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // stall well past the collector's timeout, but unblock on client abort
		case <-time.After(30 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	start := time.Now()
	merged, err := Collect(context.Background(),
		[]string{healthy.URL, slow.URL, deadURL},
		Options{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("collection took %v; the slow node must only cost its own timeout", elapsed)
	}
	if !merged.Partial {
		t.Fatal("two nodes failed but Partial is false")
	}
	if merged.Metrics.TracesChecked != 7 {
		t.Errorf("merged metrics = %d traces, want the healthy node's 7", merged.Metrics.TracesChecked)
	}
	var errRows int
	for _, s := range merged.Sources {
		if s.Err != "" {
			errRows++
		}
	}
	if len(merged.Sources) != 3 || errRows != 2 {
		t.Fatalf("want 3 source rows with 2 errors, got %+v", merged.Sources)
	}
	// Provenance keeps caller order: healthy first, then the failures.
	if merged.Sources[0].Source != "healthy" || merged.Sources[0].Err != "" {
		t.Errorf("healthy row = %+v", merged.Sources[0])
	}
}

// TestCollectRowsFollowNodeOrder: every source row sits at its node's
// position in the argument list, however live nodes interleave with
// error rows: a node that is down, and one whose snapshot the merge
// rejects (the right schema version, a histogram bucket outside the
// fixed layout).
func TestCollectRowsFollowNodeOrder(t *testing.T) {
	alpha, beta := node(t, "alpha", 1), node(t, "beta", 2)
	foreign := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := obs.NodeSnapshot{SchemaVersion: obs.SnapshotSchemaVersion, Source: "foreign"}
		snap.Metrics.TracesChecked = 100
		snap.Metrics.QueueWait = obs.HistSnapshot{Count: 1, Buckets: []obs.HistBucket{{Le: 3, Count: 1}}}
		json.NewEncoder(w).Encode(snap)
	}))
	defer foreign.Close()
	down := httptest.NewServer(http.NotFoundHandler())
	dead := down.URL
	down.Close() // connection refused from here on
	merged, err := Collect(context.Background(), []string{dead, alpha.URL, foreign.URL, beta.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		source string
		failed bool
	}{{dead, true}, {"alpha", false}, {"foreign", true}, {"beta", false}}
	if len(merged.Sources) != len(want) {
		t.Fatalf("sources = %+v, want %d rows", merged.Sources, len(want))
	}
	for i, w := range want {
		if s := merged.Sources[i]; s.Source != w.source || (s.Err != "") != w.failed {
			t.Errorf("row %d = %+v, want source %q failed=%v", i, s, w.source, w.failed)
		}
	}
	if !merged.Partial || merged.Metrics.TracesChecked != 3 {
		t.Errorf("partial = %v, traces = %d; want true, 3", merged.Partial, merged.Metrics.TracesChecked)
	}
}

func TestCollectSchemaMismatchIsPerNode(t *testing.T) {
	good := node(t, "good", 3)
	rogue := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(obs.NodeSnapshot{
			SchemaVersion: obs.SnapshotSchemaVersion + 1, Source: "rogue",
		})
	}))
	defer rogue.Close()

	merged, err := Collect(context.Background(), []string{good.URL, rogue.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Partial {
		t.Fatal("schema mismatch must mark the merge partial")
	}
	var rogueErr string
	for _, s := range merged.Sources {
		if s.Err != "" {
			rogueErr = s.Err
		}
	}
	if !strings.Contains(rogueErr, "schema_version") {
		t.Errorf("rogue error = %q, want a schema_version complaint", rogueErr)
	}
	if merged.Metrics.TracesChecked != 3 {
		t.Errorf("merged metrics = %d, want the good node's 3", merged.Metrics.TracesChecked)
	}
}

func TestCollectNoNodes(t *testing.T) {
	if _, err := Collect(context.Background(), nil, Options{}); err == nil {
		t.Fatal("empty node list must error")
	}
}

func TestCollectAllDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	merged, err := Collect(context.Background(), []string{url}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Partial || len(merged.Sources) != 1 || merged.Sources[0].Err == "" {
		t.Fatalf("all-down merge = %+v", merged)
	}
	if merged.SchemaVersion != obs.SnapshotSchemaVersion {
		t.Errorf("schema version = %d", merged.SchemaVersion)
	}
}
