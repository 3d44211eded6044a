package flight

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// TestQueryTimeWindow pins the window semantics: Since is inclusive,
// Until exclusive, both on the span's Start.
func TestQueryTimeWindow(t *testing.T) {
	rec := NewRecorder(16)
	base := time.Now()
	for i := 0; i < 5; i++ {
		rec.StartAt(CatEngine, "check", 0, base.Add(time.Duration(i)*time.Millisecond)).
			SetInt("i", int64(i)).Finish()
	}
	cases := []struct {
		name string
		q    Query
		want []int64
	}{
		{"since-inclusive", Query{Since: base.Add(2 * time.Millisecond)}, []int64{4, 3, 2}},
		{"until-exclusive", Query{Until: base.Add(2 * time.Millisecond)}, []int64{1, 0}},
		{"window", Query{Since: base.Add(1 * time.Millisecond), Until: base.Add(4 * time.Millisecond)}, []int64{3, 2, 1}},
		{"empty-window", Query{Since: base.Add(10 * time.Millisecond)}, nil},
	}
	for _, tc := range cases {
		got := rec.Search(tc.q)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d spans, want %d", tc.name, len(got), len(tc.want))
		}
		for j, s := range got {
			if s.Attr("i") != tc.want[j] {
				t.Fatalf("%s[%d]: i = %v, want %d", tc.name, j, s.Attr("i"), tc.want[j])
			}
		}
	}
}

// TestQueryAttrFilter pins attribute matching: string equality, integer
// attributes against their decimal rendering, and a bare key matching
// any value.
func TestQueryAttrFilter(t *testing.T) {
	rec := NewRecorder(16)
	rec.Start(CatRPC, "section", 0).SetStr("session", "pmtest-1").SetInt("seq", 3).Finish()
	rec.Start(CatRPC, "section", 0).SetStr("session", "pmtest-2").SetInt("seq", 4).Finish()
	rec.Start(CatRPC, "failover", 0).SetStr("from", "a").Finish()

	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"string-eq", Query{AttrKey: "session", AttrVal: "pmtest-1"}, 1},
		{"string-miss", Query{AttrKey: "session", AttrVal: "pmtest-9"}, 0},
		{"int-decimal", Query{AttrKey: "seq", AttrVal: "4"}, 1},
		{"bare-key", Query{AttrKey: "session"}, 2},
		{"absent-key", Query{AttrKey: "zone"}, 0},
	}
	for _, tc := range cases {
		if got := rec.Search(tc.q); len(got) != tc.want {
			t.Fatalf("%s: %d spans, want %d", tc.name, len(got), tc.want)
		}
	}
}

// TestQueryValuesRoundTrip pins the filter vocabulary's two halves
// against each other: every field Values encodes, ParseQuery decodes to
// the same value, times to the nanosecond.
func TestQueryValuesRoundTrip(t *testing.T) {
	at := time.Date(2026, 3, 1, 12, 30, 45, 123456789, time.FixedZone("UTC+2", 2*3600))
	cases := []Query{
		{},
		{Category: CatSession, HasCategory: true},
		{Category: CatRPC, HasCategory: true},
		{MinDur: 1500*time.Microsecond + 7},
		{ErrOnly: true},
		{Name: "handle section & more"},
		{Since: at},
		{Until: at.Add(time.Nanosecond)},
		{Since: at, Until: at.Add(time.Hour)},
		{AttrKey: "remote_session_id", AttrVal: "pmtest-1"},
		{AttrKey: "session"},
		{AttrKey: "expr", AttrVal: "a=b"},
		{Limit: 1},
		{Limit: maxBrowseLimit},
		{Category: CatChecker, HasCategory: true, MinDur: time.Second, ErrOnly: true,
			Name: "violation", Since: at, Until: at.Add(time.Minute),
			AttrKey: "seq", AttrVal: "4", Limit: 40},
	}
	for _, want := range cases {
		v := want.Values()
		got, err := ParseQuery(v)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", v.Encode(), err)
		}
		if !got.Since.Equal(want.Since) || !got.Until.Equal(want.Until) {
			t.Fatalf("%q: window = [%v, %v), want [%v, %v)", v.Encode(), got.Since, got.Until, want.Since, want.Until)
		}
		got.Since, got.Until = want.Since, want.Until
		if got != want {
			t.Fatalf("%q: round trip = %+v, want %+v", v.Encode(), got, want)
		}
	}
}

// TestSearchTotalOrder proves the cross-ring merge is one newest-first
// total order — identical to what a single ring holding every span
// would return — and that the limit keeps the newest across rings, not
// per ring.
func TestSearchTotalOrder(t *testing.T) {
	rec := NewRecorder(32)
	base := time.Now()
	// Interleave spans across three category rings.
	for i := 0; i < 9; i++ {
		cat := []Category{CatSession, CatEngine, CatRPC}[i%3]
		rec.StartAt(cat, "s", 0, base.Add(time.Duration(i)*time.Millisecond)).
			SetInt("i", int64(i)).Finish()
	}
	got := rec.Search(Query{})
	if len(got) != 9 {
		t.Fatalf("spans = %d, want 9", len(got))
	}
	for j, s := range got {
		if want := int64(8 - j); s.Attr("i") != want {
			t.Fatalf("order[%d]: i = %v, want %d", j, s.Attr("i"), want)
		}
	}
	got = rec.Search(Query{Limit: 4})
	if len(got) != 4 {
		t.Fatalf("limited = %d spans, want 4", len(got))
	}
	for j, s := range got {
		if want := int64(8 - j); s.Attr("i") != want {
			t.Fatalf("limited[%d]: i = %v, want %d (limit must keep the global newest)", j, s.Attr("i"), want)
		}
	}
}

// TestSearchTieBreak pins the deterministic tie-break: equal start
// times order by descending span ID.
func TestSearchTieBreak(t *testing.T) {
	rec := NewRecorder(8)
	at := time.Now()
	a := rec.StartAt(CatSession, "a", 0, at)
	b := rec.StartAt(CatEngine, "b", 0, at)
	a.Finish()
	b.Finish()
	got := rec.Search(Query{})
	if len(got) != 2 || got[0].ID < got[1].ID {
		t.Fatalf("tie-break order = %v, %v (want descending IDs)", got[0].ID, got[1].ID)
	}
}

// TestSearchHandlerWindowAndParity drives Handler on the search route:
// the time-window parameters work, and malformed queries answer the
// same 400 {"error": ...} JSON contract as the browse route.
func TestSearchHandlerWindowAndParity(t *testing.T) {
	rec := NewRecorder(16)
	base := time.Now().Add(-time.Hour)
	rec.StartAt(CatEngine, "old", 0, base).Finish()
	rec.Start(CatEngine, "fresh", 0).SetStr("session", "pmtest-1").Finish()

	get := func(rawurl string) (int, string) {
		req := httptest.NewRequest("GET", rawurl, nil)
		w := httptest.NewRecorder()
		Handler(rec).ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}
	decode := func(body string) []SpanRecord {
		var out SearchResponse
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		return out.Spans
	}

	code, body := get("/flight/v1/search?last=30m")
	if code != 200 {
		t.Fatalf("last=30m = %d: %s", code, body)
	}
	if spans := decode(body); len(spans) != 1 || spans[0].Name != "fresh" {
		t.Fatalf("last=30m spans = %+v", spans)
	}

	until := url.QueryEscape(base.Add(time.Minute).Format(time.RFC3339Nano))
	code, body = get("/flight/v1/search?until=" + until)
	if code != 200 {
		t.Fatalf("until = %d: %s", code, body)
	}
	if spans := decode(body); len(spans) != 1 || spans[0].Name != "old" {
		t.Fatalf("until spans = %+v", spans)
	}

	code, body = get("/flight/v1/search?attr=session%3Dpmtest-1")
	if code != 200 {
		t.Fatalf("attr = %d: %s", code, body)
	}
	if spans := decode(body); len(spans) != 1 || spans[0].Name != "fresh" {
		t.Fatalf("attr spans = %+v", spans)
	}

	// Bad-query parity with the browse endpoint: 400 + JSON error body.
	for _, bad := range []string{
		"/flight/v1/search?since=yesterday",
		"/flight/v1/search?until=2pm",
		"/flight/v1/search?last=-5m",
		"/flight/v1/search?last=xyz",
		"/flight/v1/search?attr=%3Dvalue", // empty key
		"/flight/v1/search?category=nope",
		"/flight/v1/search?limit=0",
	} {
		req := httptest.NewRequest("GET", bad, nil)
		w := httptest.NewRecorder()
		Handler(rec).ServeHTTP(w, req)
		if w.Code != 400 {
			t.Errorf("GET %s = %d, want 400", bad, w.Code)
			continue
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q", bad, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s body = %q, want JSON error", bad, w.Body.String())
		}
	}
}

// TestBrowseAttrFilter pins that the browse route accepts the same
// attr parameter as search.
func TestBrowseAttrFilter(t *testing.T) {
	rec := NewRecorder(8)
	rec.Start(CatRPC, "handle-section", 0).SetStr("remote_session_id", "pmtest-1").Finish()
	rec.Start(CatRPC, "handle-section", 0).SetStr("remote_session_id", "pmtest-2").Finish()

	req := httptest.NewRequest("GET", "/flight?attr=remote_session_id%3Dpmtest-2", nil)
	w := httptest.NewRecorder()
	Handler(rec).ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("browse attr = %d: %s", w.Code, w.Body.String())
	}
	var out SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 1 || out.Spans[0].AttrString("remote_session_id") != "pmtest-2" {
		t.Fatalf("browse attr spans = %+v", out.Spans)
	}

	// Empty-key attr is malformed on browse too.
	req = httptest.NewRequest("GET", "/flight?attr=%3Dv", nil)
	w = httptest.NewRecorder()
	Handler(rec).ServeHTTP(w, req)
	if w.Code != 400 {
		t.Fatalf("browse bad attr = %d, want 400", w.Code)
	}
}
