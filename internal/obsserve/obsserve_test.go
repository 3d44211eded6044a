package obsserve

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"pmtest/internal/flight"
	"pmtest/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServerRoutes(t *testing.T) {
	m := obs.NewMetrics(8)
	m.TracesChecked.Add(5)
	rec := flight.NewRecorder(16)
	rec.Start(flight.CatSession, "section", 0).Finish()

	srv, err := Start(Config{Addr: "127.0.0.1:0", Source: "test-node", Metrics: m, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, _ := get(t, base+"/"); code != 200 {
		t.Errorf("/ = %d", code)
	}
	code, body := get(t, base+"/obs/v1/snapshot")
	if code != 200 {
		t.Fatalf("/obs/v1/snapshot = %d", code)
	}
	var snap obs.NodeSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if snap.SchemaVersion != obs.SnapshotSchemaVersion || snap.Source != "test-node" {
		t.Errorf("snapshot header = %+v", snap)
	}
	if snap.Metrics.TracesChecked != 5 {
		t.Errorf("snapshot metrics = %d traces, want 5", snap.Metrics.TracesChecked)
	}
	if snap.Flight == nil || len(snap.Flight.Categories) == 0 {
		t.Errorf("snapshot flight summary missing: %+v", snap.Flight)
	}
	// One span handler on both routes: the same filter, the same answer.
	var answers [2]string
	for i, route := range []string{"/flight", flight.SearchPath} {
		code, body := get(t, base+route+"?last=1h")
		if code != 200 {
			t.Errorf("%s = %d", route, code)
		}
		answers[i] = string(body)
	}
	if answers[0] != answers[1] {
		t.Errorf("/flight and %s disagree:\n%s\n%s", flight.SearchPath, answers[0], answers[1])
	}
	if code, _ := get(t, base+"/flight?last=never"); code != 400 {
		t.Errorf("/flight?last=never = %d, want 400", code)
	}
	if code, _ := get(t, base+"/nope"); code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}
	// pprof is opt-in: without Config.PProf the routes must not exist.
	if code, _ := get(t, base+"/debug/pprof/"); code == 200 {
		t.Error("/debug/pprof/ served without -pprof")
	}
}

func TestServerPProfOptIn(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0", PProf: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, "http://"+srv.Addr()+"/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d with PProf on", code)
	}
}

func TestServerCloseIdempotentAndNilSafe(t *testing.T) {
	var nilSrv *Server
	nilSrv.Close() // must not panic

	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := http.Get("http://" + srv.Addr() + "/"); err == nil {
		t.Error("server still serving after Close")
	}
}
