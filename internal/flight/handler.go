package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// SpanRecord is the wire representation of a recorded span, served by
// the browse and search endpoints and decoded by the fleet-wide
// fan-out (internal/fleet).
type SpanRecord struct {
	ID       uint64         `json:"id"`
	Parent   uint64         `json:"parent,omitempty"`
	Category string         `json:"category"`
	Name     string         `json:"name"`
	TID      int            `json:"tid"`
	Start    time.Time      `json:"start"`
	DurNS    int64          `json:"dur_ns"`
	Err      bool           `json:"err,omitempty"`
	Dropped  uint8          `json:"dropped_attrs,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Events   []EventRecord  `json:"events,omitempty"`
}

// EventRecord is the wire representation of one span point annotation.
type EventRecord struct {
	At  time.Time `json:"at"`
	Msg string    `json:"msg"`
}

// Record converts a span into its wire representation.
func Record(s *Span) SpanRecord {
	out := SpanRecord{
		ID:       s.ID,
		Parent:   s.Parent,
		Category: s.Category.String(),
		Name:     s.Name,
		TID:      s.TID,
		Start:    s.Start,
		DurNS:    s.Dur().Nanoseconds(),
		Err:      s.Err,
		Dropped:  s.Dropped,
	}
	if attrs := s.Attrs(); len(attrs) > 0 {
		out.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			out.Attrs[a.Key] = a.Value()
		}
	}
	for _, e := range s.Events() {
		out.Events = append(out.Events, EventRecord{At: e.At, Msg: e.Msg})
	}
	return out
}

// AttrString returns the record's attribute rendered the way Query
// matching renders it: integers in decimal, strings as-is, "" when the
// key is absent. JSON decoding turns integer attributes into float64s;
// this hides that asymmetry from consumers.
func (r SpanRecord) AttrString(key string) string {
	v, ok := r.Attrs[key]
	if !ok {
		return ""
	}
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatInt(int64(x), 10)
	case int64:
		return strconv.FormatInt(x, 10)
	default:
		return fmt.Sprint(x)
	}
}

// SearchResponse is the JSON document the browse and search endpoints
// serve: matching spans, newest first.
type SearchResponse struct {
	Spans []SpanRecord `json:"spans"`
}

// maxBrowseLimit caps the limit query parameter: the rings hold at most
// a few thousand spans, so anything beyond this is a malformed request,
// not a bigger browse.
const maxBrowseLimit = 100_000

// badRequest rejects a malformed query with a structured JSON error —
// machine clients (the fleet fan-out, CI smoke scripts) parse the
// body, so even errors speak JSON.
func badRequest(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: fmt.Sprintf(format, args...)})
}

// ParseQuery builds a Query from URL query parameters, the decoding
// half of the filter vocabulary whose encoding is Query.Values. Errors
// are phrased for badRequest.
func ParseQuery(q url.Values) (Query, error) {
	var f Query
	if c := q.Get("category"); c != "" {
		cat, ok := ParseCategory(c)
		if !ok {
			return f, fmt.Errorf("unknown category %q", c)
		}
		f.Category, f.HasCategory = cat, true
	}
	if d := q.Get("min_dur"); d != "" {
		dur, err := time.ParseDuration(d)
		if err != nil {
			return f, fmt.Errorf("bad min_dur %q: %v", d, err)
		}
		if dur < 0 {
			return f, fmt.Errorf("bad min_dur %q: must not be negative", d)
		}
		f.MinDur = dur
	}
	if e := q.Get("err"); e == "1" || e == "true" {
		f.ErrOnly = true
	}
	f.Name = q.Get("name")
	if a := q.Get("attr"); a != "" {
		key, val, _ := strings.Cut(a, "=")
		if key == "" {
			return f, fmt.Errorf("bad attr %q: want key=value", a)
		}
		f.AttrKey, f.AttrVal = key, val
	}
	for _, p := range []struct {
		name string
		dst  *time.Time
	}{{"since", &f.Since}, {"until", &f.Until}} {
		if v := q.Get(p.name); v != "" {
			t, err := time.Parse(time.RFC3339Nano, v)
			if err != nil {
				return f, fmt.Errorf("bad %s %q: want RFC 3339", p.name, v)
			}
			*p.dst = t
		}
	}
	if l := q.Get("last"); l != "" {
		d, err := time.ParseDuration(l)
		if err != nil || d <= 0 {
			return f, fmt.Errorf("bad last %q: want a positive duration", l)
		}
		f.Since = time.Now().Add(-d)
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil {
			return f, fmt.Errorf("bad limit %q: %v", l, err)
		}
		if n <= 0 || n > maxBrowseLimit {
			return f, fmt.Errorf("bad limit %q: want 1..%d", l, maxBrowseLimit)
		}
		f.Limit = n
	}
	return f, nil
}

// Values renders the query as the URL parameters ParseQuery reads back:
// for every q ParseQuery can return, ParseQuery(q.Values()) equals q,
// with Since and Until Equal rather than identical (they travel as
// RFC 3339 in UTC with nanoseconds).
func (f Query) Values() url.Values {
	v := url.Values{}
	if f.HasCategory {
		v.Set("category", f.Category.String())
	}
	if f.MinDur > 0 {
		v.Set("min_dur", f.MinDur.String())
	}
	if f.ErrOnly {
		v.Set("err", "1")
	}
	if f.Name != "" {
		v.Set("name", f.Name)
	}
	if f.AttrKey != "" {
		v.Set("attr", f.AttrKey+"="+f.AttrVal)
	}
	if !f.Since.IsZero() {
		v.Set("since", f.Since.UTC().Format(time.RFC3339Nano))
	}
	if !f.Until.IsZero() {
		v.Set("until", f.Until.UTC().Format(time.RFC3339Nano))
	}
	if f.Limit > 0 {
		v.Set("limit", strconv.Itoa(f.Limit))
	}
	return v
}

// SearchPath is the span search route, mounted beside the /flight
// browse on every -obs-listen endpoint; Handler serves both.
const SearchPath = "/flight/v1/search"

// Handler serves the span browse and search as JSON: the newest spans
// first, filtered by query parameters:
//
//	category  session|tx|checker|engine|campaign|rpc (default: all)
//	min_dur   Go duration, e.g. 1ms — drop shorter spans
//	err       1/true — only failed spans
//	name      substring match on the span name
//	attr      key=value — only spans carrying that annotation (integer
//	          values compare against their decimal rendering; a bare
//	          key matches any value)
//	since     RFC 3339 timestamp — only spans starting at/after it
//	until     RFC 3339 timestamp — only spans starting before it
//	last      Go duration — shorthand for since=now-last
//	limit     max spans returned (default 100, max 100000)
//
// Malformed parameters — an unknown category, a negative or unparseable
// min_dur or last, a timestamp that is not RFC 3339, a limit that is
// negative, zero, overflowing or beyond the cap — are rejected with a
// 400 and a JSON {"error": ...} body rather than silently clamped.
//
// Mount it at /flight and SearchPath beside obs.Handler on the
// -obs-listen address.
func Handler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, err := ParseQuery(r.URL.Query())
		if err != nil {
			badRequest(w, "%v", err)
			return
		}
		spans := rec.Search(f)
		out := SearchResponse{Spans: make([]SpanRecord, len(spans))}
		for i := range spans {
			out.Spans[i] = Record(&spans[i])
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
}
