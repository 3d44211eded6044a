package fleet_test

import (
	"testing"
	"time"

	"pmtest/internal/fleet"
	"pmtest/internal/flight"
)

// mkSpan builds a RemoteSpan for stitch unit tests.
func mkSpan(src string, id, parent uint64, cat, name string, at time.Time, attrs map[string]any) fleet.RemoteSpan {
	return fleet.RemoteSpan{
		Source: src,
		SpanRecord: flight.SpanRecord{
			ID: id, Parent: parent, Category: cat, Name: name,
			Start: at, Attrs: attrs,
		},
	}
}

// TestStitchSyntheticAndOrphans pins the degraded-evidence paths: a
// handle whose originating client span is gone joins a synthetic
// section by seq, and spans no rule can place land in Orphans instead
// of vanishing.
func TestStitchSyntheticAndOrphans(t *testing.T) {
	at := time.Unix(1000, 0)
	spans := []fleet.RemoteSpan{
		// A full section 0 on the client side.
		mkSpan("c", 10, 0, "session", "section", at,
			map[string]any{"session": "s", "ops": 4}),
		mkSpan("c", 11, 10, "rpc", "section", at.Add(time.Millisecond),
			map[string]any{"session": "s", "seq": 0, "route": "node:a"}),
		// Section 1's client span was overwritten in the ring; only the
		// node-side handle survived.
		mkSpan("n", 20, 0, "rpc", "handle-section", at.Add(2*time.Millisecond),
			map[string]any{"remote_session_id": "s", "seq": 1, "remote_span_id": 999}),
		mkSpan("n", 21, 20, "engine", "check", at.Add(3*time.Millisecond),
			map[string]any{"remote_session_id": "s", "ops": 4, "tracked_ops": 2}),
		// An engine span whose handle is gone entirely: orphan.
		mkSpan("n", 30, 777, "engine", "check", at.Add(4*time.Millisecond),
			map[string]any{"remote_session_id": "s", "ops": 1, "tracked_ops": 0}),
	}
	tl := fleet.Stitch("s", spans)

	if len(tl.Sections) != 2 {
		t.Fatalf("sections = %d, want 2", len(tl.Sections))
	}
	if s0 := tl.Sections[0]; s0.Seq != 0 || s0.Section == nil || len(s0.Attempts) != 1 {
		t.Fatalf("section 0 = %+v", s0)
	}
	s1 := tl.Sections[1]
	if s1.Seq != 1 || s1.Section != nil {
		t.Fatalf("synthetic section = %+v", s1)
	}
	if len(s1.Handles) != 1 || len(s1.Handles[0].Checks) != 1 {
		t.Fatalf("synthetic section handles = %+v", s1.Handles)
	}
	if len(tl.Orphans) != 1 || tl.Orphans[0].ID != 30 {
		t.Fatalf("orphans = %+v", tl.Orphans)
	}
}

// TestStitchIgnoresForeignSessions proves span soup from other sessions
// on the same nodes never leaks into the timeline.
func TestStitchIgnoresForeignSessions(t *testing.T) {
	at := time.Unix(1000, 0)
	spans := []fleet.RemoteSpan{
		mkSpan("c", 10, 0, "session", "section", at,
			map[string]any{"session": "s", "ops": 2}),
		mkSpan("c", 50, 0, "session", "section", at,
			map[string]any{"session": "other", "ops": 9}),
		mkSpan("n", 60, 0, "rpc", "handle-section", at,
			map[string]any{"remote_session_id": "other", "seq": 0}),
	}
	tl := fleet.Stitch("s", spans)
	if len(tl.Sections) != 1 || len(tl.Orphans) != 0 {
		t.Fatalf("timeline = %+v", tl)
	}
	if tl.Sections[0].Section.ID != 10 {
		t.Fatalf("wrong anchor: %+v", tl.Sections[0])
	}
}
