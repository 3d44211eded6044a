package flight

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

func TestSpanLifecycle(t *testing.T) {
	rec := NewRecorder(8)
	sp := rec.Start(CatSession, "section", 0).
		SetTID(3).
		SetInt("ops", 42).
		SetStr("why", "test").
		SetErr(false).
		AddEvent("midpoint")
	if sp.ID == 0 {
		t.Fatal("span ID not assigned")
	}
	if rec.Len(CatSession) != 0 {
		t.Fatal("open span already visible in ring")
	}
	sp.Finish()
	if rec.Len(CatSession) != 1 {
		t.Fatalf("CatSession ring len = %d, want 1", rec.Len(CatSession))
	}
	got := rec.Search(Query{})[0]
	if got.Name != "section" || got.TID != 3 || got.Err {
		t.Fatalf("recorded span = %+v", got)
	}
	if v, ok := got.Attr("ops").(int64); !ok || v != 42 {
		t.Fatalf("attr ops = %v, want 42", got.Attr("ops"))
	}
	if v, ok := got.Attr("why").(string); !ok || v != "test" {
		t.Fatalf("attr why = %v, want test", got.Attr("why"))
	}
	if evs := got.Events(); len(evs) != 1 || evs[0].Msg != "midpoint" {
		t.Fatalf("events = %v", evs)
	}
	if got.End.Before(got.Start) {
		t.Fatalf("End %v before Start %v", got.End, got.Start)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	// Every method on a nil recorder / nil span must be a no-op.
	sp := rec.Start(CatTx, "tx", 0)
	if sp != nil {
		t.Fatal("nil recorder returned a live span")
	}
	sp.SetInt("k", 1).SetStr("s", "v").SetErr(true).SetTID(1).AddEvent("e").Finish()
	if rec.Len(CatTx) != 0 || rec.Search(Query{}) != nil || rec.Export() != nil {
		t.Fatal("nil recorder has state")
	}
	if EngineObserver(nil) != nil {
		t.Fatal("EngineObserver(nil) should be nil so obs.Multi drops it")
	}
}

func TestAttrOverflowCounted(t *testing.T) {
	rec := NewRecorder(4)
	sp := rec.Start(CatEngine, "check", 0)
	for i := 0; i < maxAttrs+3; i++ {
		sp.SetInt("k", int64(i))
	}
	sp.Finish()
	got := rec.Search(Query{})[0]
	if len(got.Attrs()) != maxAttrs || got.Dropped != 3 {
		t.Fatalf("attrs = %d dropped = %d, want %d/3", len(got.Attrs()), got.Dropped, maxAttrs)
	}
}

func TestCategoryRoundTrip(t *testing.T) {
	for c := CatSession; c < numCategories; c++ {
		got, ok := ParseCategory(c.String())
		if !ok || got != c {
			t.Fatalf("ParseCategory(%q) = %v %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseCategory("bogus"); ok {
		t.Fatal("ParseCategory accepted bogus")
	}
}

func TestSearchFilters(t *testing.T) {
	rec := NewRecorder(16)
	base := time.Now()
	rec.StartAt(CatEngine, "check", 0, base).FinishAt(base.Add(time.Millisecond))
	rec.StartAt(CatEngine, "check", 0, base.Add(time.Millisecond)).
		SetErr(true).FinishAt(base.Add(time.Millisecond + 50*time.Microsecond))
	rec.StartAt(CatChecker, "order-violation", 0, base.Add(2*time.Millisecond)).
		SetErr(true).FinishAt(base.Add(2 * time.Millisecond))

	if got := rec.Search(Query{}); len(got) != 3 {
		t.Fatalf("unfiltered = %d spans, want 3", len(got))
	} else if !got[0].Start.After(got[2].Start) {
		t.Fatal("search not newest-first")
	}
	if got := rec.Search(Query{Category: CatChecker, HasCategory: true}); len(got) != 1 ||
		got[0].Name != "order-violation" {
		t.Fatalf("category filter = %+v", got)
	}
	if got := rec.Search(Query{ErrOnly: true}); len(got) != 2 {
		t.Fatalf("err filter = %d spans, want 2", len(got))
	}
	if got := rec.Search(Query{MinDur: 500 * time.Microsecond}); len(got) != 1 {
		t.Fatalf("min_dur filter = %d spans, want 1", len(got))
	}
	if got := rec.Search(Query{Name: "violation"}); len(got) != 1 {
		t.Fatalf("name filter = %d spans, want 1", len(got))
	}
	if got := rec.Search(Query{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit = %d spans, want 2", len(got))
	}
}

func TestRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Start(CatTx, "tx", 0).SetInt("i", int64(i)).Finish()
	}
	if rec.Len(CatTx) != 4 {
		t.Fatalf("ring len = %d, want 4", rec.Len(CatTx))
	}
	got := rec.Search(Query{Category: CatTx, HasCategory: true})
	if v := got[0].Attr("i"); v != int64(9) {
		t.Fatalf("newest i = %v, want 9", v)
	}
	if v := got[3].Attr("i"); v != int64(6) {
		t.Fatalf("oldest surviving i = %v, want 6", v)
	}
}

func TestEngineObserverParenting(t *testing.T) {
	rec := NewRecorder(16)
	ob := EngineObserver(rec)
	ob.TraceChecked(obs.TraceEvent{
		TraceID: 7, Thread: 2, Worker: 1, Ops: 10, TrackedOps: 8,
		Fails: 1, CheckDur: time.Millisecond, QueueWait: time.Microsecond,
		SpanID: 100,
		TxSpans: []trace.SpanRange{
			{Begin: 1, End: 8, SpanID: 200},
			{Begin: 3, End: 6, SpanID: 300}, // nested: later begin wins
		},
		Diags: []obs.DiagInfo{
			{Severity: "FAIL", Code: "order-violation", OpIndex: 5,
				Message: "persist intervals overlap", Site: "pmdk/tx.go:57"},
			{Severity: "WARN", Code: "duplicate-writeback", OpIndex: 9,
				Message: "already persisted"},
		},
	})

	engine := rec.Search(Query{Category: CatEngine, HasCategory: true})
	if len(engine) != 1 {
		t.Fatalf("engine spans = %d, want 1", len(engine))
	}
	es := engine[0]
	if es.Parent != 100 || !es.Err || es.TID != 2 {
		t.Fatalf("engine span = %+v", es)
	}
	if v := es.Attr("queue_wait_ns"); v != int64(1000) {
		t.Fatalf("queue_wait_ns = %v", v)
	}
	if d := es.Dur(); d < time.Millisecond {
		t.Fatalf("engine span dur = %v, want >= CheckDur", d)
	}

	checkers := rec.Search(Query{Category: CatChecker, HasCategory: true})
	if len(checkers) != 2 {
		t.Fatalf("checker spans = %d, want 2", len(checkers))
	}
	var fail, warn Span
	for _, c := range checkers {
		if c.Name == "order-violation" {
			fail = c
		} else {
			warn = c
		}
	}
	// Op 5 sits inside both tx ranges; the innermost (begin 3) wins.
	if fail.Parent != 300 {
		t.Fatalf("FAIL parent = %d, want innermost tx 300", fail.Parent)
	}
	if !fail.Err || fail.Attr("site") != "pmdk/tx.go:57" {
		t.Fatalf("FAIL span = %+v", fail)
	}
	// Op 9 is outside every tx range → parented under the engine span.
	if warn.Parent != es.ID {
		t.Fatalf("WARN parent = %d, want engine span %d", warn.Parent, es.ID)
	}
	if warn.Err {
		t.Fatal("WARN span marked Err")
	}
}

func TestHandler(t *testing.T) {
	rec := NewRecorder(16)
	rec.Start(CatSession, "section", 0).SetInt("ops", 5).Finish()
	rec.Start(CatChecker, "not-persisted", 1).SetErr(true).Finish()

	get := func(url string) (int, string) {
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		Handler(rec).ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}

	code, body := get("/flight")
	if code != 200 {
		t.Fatalf("GET /flight = %d: %s", code, body)
	}
	var out struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(out.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(out.Spans))
	}

	code, body = get("/flight?category=checker&err=1")
	if code != 200 {
		t.Fatalf("filtered = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 1 || out.Spans[0].Category != "checker" || !out.Spans[0].Err {
		t.Fatalf("filtered spans = %+v", out.Spans)
	}

	for _, bad := range []string{
		"/flight?category=nope", "/flight?min_dur=xyz", "/flight?limit=-1",
	} {
		if code, _ := get(bad); code != 400 {
			t.Fatalf("GET %s = %d, want 400", bad, code)
		}
	}
	if code, _ := get("/flight?category=tx&min_dur=1ms&name=x&limit=5"); code != 200 {
		t.Fatalf("all-params = %d, want 200", code)
	}
}

// TestHandlerBadRequestJSON pins the malformed-query contract: every
// rejected parameter — including negative min_dur, a limit that
// overflows int and a malformed time window on the browse route —
// yields a 400 with a parseable {"error": ...} body.
func TestHandlerBadRequestJSON(t *testing.T) {
	rec := NewRecorder(4)
	for _, url := range []string{
		"/flight?category=nope",
		"/flight?min_dur=xyz",
		"/flight?min_dur=-5ms",
		"/flight?limit=0",
		"/flight?limit=-1",
		"/flight?limit=99999999999999999999", // overflows int64 → Atoi error
		"/flight?limit=1000001",              // beyond the browse cap
		"/flight?since=yesterday",
		"/flight?until=2pm",
		"/flight?last=-5m",
	} {
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		Handler(rec).ServeHTTP(w, req)
		if w.Code != 400 {
			t.Errorf("GET %s = %d, want 400", url, w.Code)
			continue
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q", url, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("GET %s body = %q, want JSON error", url, w.Body.String())
		}
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	rec := NewRecorder(16)
	base := time.Now()
	sec := rec.StartAt(CatSession, "section", 0, base)
	secID := sec.ID
	tx := rec.StartAt(CatTx, "tx", secID, base.Add(10*time.Microsecond))
	txID := tx.ID
	tx.SetInt("begin_op", 1).SetInt("end_op", 8).
		FinishAt(base.Add(100 * time.Microsecond))
	sec.SetInt("ops", 10).SetTID(1).FinishAt(base.Add(120 * time.Microsecond))
	rec.StartAt(CatChecker, "order-violation", txID, base.Add(40*time.Microsecond)).
		SetErr(true).SetInt("op_index", 5).
		FinishAt(base.Add(41 * time.Microsecond))

	var buf strings.Builder
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadChrome(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(tr.TraceEvents))
	}
	byName := map[string]ChromeEvent{}
	for _, e := range tr.TraceEvents {
		byName[e.Name] = e
		if e.Ph != "X" {
			t.Fatalf("ph = %q, want X", e.Ph)
		}
	}
	// Export is rebased: the earliest span starts at ts 0.
	if byName["section"].TS != 0 {
		t.Fatalf("section ts = %v, want 0", byName["section"].TS)
	}
	if byName["tx"].Args["parent_span_id"] != float64(secID) {
		t.Fatalf("tx parent = %v, want %d", byName["tx"].Args["parent_span_id"], secID)
	}
	cv := byName["order-violation"]
	if cv.Cat != "checker" || cv.Args["parent_span_id"] != float64(txID) ||
		cv.Args["error"] != true || cv.Args["op_index"] != float64(5) {
		t.Fatalf("checker event = %+v", cv)
	}

	var gantt strings.Builder
	if err := WriteTimeline(&gantt, tr, 40, ""); err != nil {
		t.Fatal(err)
	}
	out := gantt.String()
	if !strings.Contains(out, "3 spans") ||
		!strings.Contains(out, "checker/order-violation") ||
		!strings.Contains(out, "!") {
		t.Fatalf("timeline output:\n%s", out)
	}
	var filtered strings.Builder
	if err := WriteTimeline(&filtered, tr, 40, "tx"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filtered.String(), "1 spans") {
		t.Fatalf("filtered timeline:\n%s", filtered.String())
	}
}

func TestWriteTimelineEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteTimeline(&b, ChromeTrace{}, 40, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no spans") {
		t.Fatalf("empty timeline = %q", b.String())
	}
}
