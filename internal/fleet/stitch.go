package fleet

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Timeline is one client session's causally-ordered, cross-node story:
// each section the client cut, the delivery attempt that shipped it,
// the node-side handling rpc it caused, and the engine/stripe/checker
// work under that — stitched from spans that lived in different
// processes, joined by the correlation identity the wire protocol
// propagates (session id + originating span id).
type Timeline struct {
	Session  string
	Sections []TimelineSection
	// Failovers are the session's rpc failover spans, in time order.
	Failovers []RemoteSpan
	// Orphans are spans correlated to the session that no join rule
	// could place (e.g. a handle whose originating client span was
	// overwritten in the client's ring). They are reported, not dropped —
	// a stitcher that silently discards evidence is lying about coverage.
	Orphans []RemoteSpan
}

// TimelineSection is one trace section's cross-process slice.
type TimelineSection struct {
	// Seq is the section's wire sequence number, -1 when no rpc span
	// survived to witness it.
	Seq int64
	// Section is the client-side section span; nil when only node-side
	// evidence of the section survived.
	Section *RemoteSpan
	// Txs are the client-side transaction spans cut inside the section.
	Txs []RemoteSpan
	// Attempts are the client's delivery rpc spans (one per section; its
	// route attribute records where the section finally landed).
	Attempts []RemoteSpan
	// Handles are the node-side handling rpc spans — more than one when
	// a lost ack forced an idempotent redelivery.
	Handles []Handle
}

// Handle is one node's handling of one section delivery.
type Handle struct {
	Span   RemoteSpan
	Checks []Check
}

// Check is one engine check with its stripe and checker children.
type Check struct {
	Span     RemoteSpan
	Stripes  []RemoteSpan
	Checkers []RemoteSpan
}

// spanKey identifies a span across sources: span IDs are per-recorder
// counters, unique only within one process's recorder.
type spanKey struct {
	src string
	id  uint64
}

// Stitch joins the session's spans (client- and node-side, as returned
// by SessionSpans) into one Timeline. Sections order by seq, unknowns
// last by start time.
func Stitch(sid string, spans []RemoteSpan) *Timeline {
	tl := &Timeline{Session: sid}

	// Work oldest-first so "first seen" tie-breaks are causal.
	ordered := append([]RemoteSpan(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := &ordered[i], &ordered[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.ID < b.ID
	})

	secByKey := make(map[spanKey]*TimelineSection)   // client section span → section
	secBySpanID := make(map[uint64]*TimelineSection) // client span ID → section (handle join)
	secBySeq := make(map[int64]*TimelineSection)     // wire seq → section (synthetic fallback)
	handleByKey := make(map[spanKey]*Handle)         // node rpc span → handle
	checkByKey := make(map[spanKey]*Check)           // node engine span → check
	var sections []*TimelineSection

	newSection := func(seq int64) *TimelineSection {
		s := &TimelineSection{Seq: seq}
		sections = append(sections, s)
		return s
	}
	setSeq := func(sec *TimelineSection, seq int64) {
		if sec.Seq < 0 && seq >= 0 {
			sec.Seq = seq
			if secBySeq[seq] == nil {
				secBySeq[seq] = sec
			}
		}
	}

	// Pass 1: client section spans anchor the timeline.
	for i := range ordered {
		s := &ordered[i]
		if s.Category == "session" && s.Name == "section" && s.AttrString("session") == sid {
			sec := newSection(-1)
			sec.Section = s
			secByKey[spanKey{s.Source, s.ID}] = sec
			secBySpanID[s.ID] = sec
		}
	}

	// Pass 2: client tx + delivery spans attach under their section;
	// node handle spans join across the process boundary by the
	// originating span ID (or by seq when the client span is gone).
	for i := range ordered {
		s := &ordered[i]
		switch {
		case s.Category == "tx" && s.AttrString("session") == sid:
			if sec := secByKey[spanKey{s.Source, s.Parent}]; sec != nil {
				sec.Txs = append(sec.Txs, *s)
			} else {
				tl.Orphans = append(tl.Orphans, *s)
			}
		case s.Category == "rpc" && s.Name == "section" && s.AttrString("session") == sid:
			sec := secByKey[spanKey{s.Source, s.Parent}]
			if sec == nil {
				tl.Orphans = append(tl.Orphans, *s)
				continue
			}
			sec.Attempts = append(sec.Attempts, *s)
			setSeq(sec, attrInt(s, "seq"))
		case s.Category == "rpc" && s.Name == "failover" && s.AttrString("session") == sid:
			tl.Failovers = append(tl.Failovers, *s)
		case s.Category == "rpc" && s.Name == "handle-section" && s.AttrString("remote_session_id") == sid:
			seq := attrInt(s, "seq")
			sec := secBySpanID[uint64(attrInt(s, "remote_span_id"))]
			if sec == nil && seq >= 0 {
				if sec = secBySeq[seq]; sec == nil {
					sec = newSection(seq)
					secBySeq[seq] = sec
				}
			}
			if sec == nil {
				tl.Orphans = append(tl.Orphans, *s)
				continue
			}
			setSeq(sec, seq)
			sec.Handles = append(sec.Handles, Handle{Span: *s})
			handleByKey[spanKey{s.Source, s.ID}] = &sec.Handles[len(sec.Handles)-1]
		}
	}

	// Pass 3: engine checks under their handling rpc.
	for i := range ordered {
		s := &ordered[i]
		if s.Category == "engine" && s.Name == "check" && s.AttrString("remote_session_id") == sid {
			h := handleByKey[spanKey{s.Source, s.Parent}]
			if h == nil {
				tl.Orphans = append(tl.Orphans, *s)
				continue
			}
			h.Checks = append(h.Checks, Check{Span: *s})
			checkByKey[spanKey{s.Source, s.ID}] = &h.Checks[len(h.Checks)-1]
		}
	}

	// Pass 4: stripes and checker findings under their check.
	for i := range ordered {
		s := &ordered[i]
		switch {
		case s.Category == "engine" && s.Name == "stripe" && s.AttrString("remote_session_id") == sid:
			if c := checkByKey[spanKey{s.Source, s.Parent}]; c != nil {
				c.Stripes = append(c.Stripes, *s)
			} else {
				tl.Orphans = append(tl.Orphans, *s)
			}
		case s.Category == "checker" && s.AttrString("remote_session_id") == sid:
			if c := checkByKey[spanKey{s.Source, s.Parent}]; c != nil {
				c.Checkers = append(c.Checkers, *s)
			} else {
				tl.Orphans = append(tl.Orphans, *s)
			}
		}
	}

	// Sections order by seq; seq-less sections trail in start order
	// (the oldest-first pass already put them in start order).
	sort.SliceStable(sections, func(i, j int) bool {
		a, b := sections[i], sections[j]
		if (a.Seq >= 0) != (b.Seq >= 0) {
			return a.Seq >= 0
		}
		return a.Seq < b.Seq
	})
	for _, s := range sections {
		tl.Sections = append(tl.Sections, *s)
	}
	return tl
}

// attrInt reads an integer attribute, -1 when absent or non-numeric.
func attrInt(s *RemoteSpan, key string) int64 {
	v := s.AttrString(key)
	if v == "" {
		return -1
	}
	var n int64
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		return -1
	}
	return n
}

// WriteTimeline renders the timeline as indented text, one line per
// span, causal order. With normalize set, volatile detail (durations,
// addresses, span IDs) is replaced by stable labels — the client source
// becomes "client", node sources become "node-1", "node-2"... in order
// of first appearance — so the output is golden-test comparable across
// runs.
func WriteTimeline(w io.Writer, tl *Timeline, normalize bool) {
	labels := makeLabels(tl, normalize)
	fmt.Fprintf(w, "session %s: %d sections, %d failovers\n",
		tl.Session, len(tl.Sections), len(tl.Failovers))
	for i := range tl.Sections {
		sec := &tl.Sections[i]
		fmt.Fprintf(w, "section seq=%s%s%s\n",
			seqLabel(sec.Seq), spanAttrs(sectionSpan(sec), "ops"), labels.tag(sectionSpan(sec)))
		for j := range sec.Txs {
			fmt.Fprintf(w, "  tx%s%s\n", spanAttrs(&sec.Txs[j], "begin_op", "end_op"), labels.tag(&sec.Txs[j]))
		}
		for j := range sec.Attempts {
			a := &sec.Attempts[j]
			fmt.Fprintf(w, "  rpc section route=%s%s%s\n",
				labels.route(a.AttrString("route")), errMark(a), labels.tag(a))
		}
		for j := range sec.Handles {
			h := &sec.Handles[j]
			replay := ""
			if h.Span.AttrString("replay") != "" {
				replay = " replay"
			}
			fmt.Fprintf(w, "  handle%s%s%s\n", replay, errMark(&h.Span), labels.tag(&h.Span))
			for k := range h.Checks {
				c := &h.Checks[k]
				fmt.Fprintf(w, "    check%s%s%s\n",
					spanAttrs(&c.Span, "ops", "tracked_ops", "fails"), errMark(&c.Span), labels.tag(&c.Span))
				for _, st := range c.Stripes {
					fmt.Fprintf(w, "      stripe%s\n", spanAttrs(&st, "stripe"))
				}
				for _, ck := range c.Checkers {
					fmt.Fprintf(w, "      checker %s%s%s\n",
						ck.Name, spanAttrs(&ck, "op_index", "severity"), errMark(&ck))
				}
			}
		}
	}
	for i := range tl.Failovers {
		f := &tl.Failovers[i]
		if normalize {
			fmt.Fprintf(w, "failover%s\n", errMark(f))
		} else {
			fmt.Fprintf(w, "failover from=%s to=%s%s\n",
				f.AttrString("from"), f.AttrString("to"), errMark(f))
		}
	}
	if len(tl.Orphans) > 0 {
		fmt.Fprintf(w, "orphans: %d\n", len(tl.Orphans))
	}
}

func sectionSpan(sec *TimelineSection) *RemoteSpan { return sec.Section }

func seqLabel(seq int64) string {
	if seq < 0 {
		return "?"
	}
	return fmt.Sprintf("%d", seq)
}

// spanAttrs renders the listed attributes (skipping absent ones) as
// " k=v" pairs; a nil span renders nothing.
func spanAttrs(s *RemoteSpan, keys ...string) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, k := range keys {
		if v := s.AttrString(k); v != "" {
			fmt.Fprintf(&b, " %s=%s", k, v)
		}
	}
	return b.String()
}

func errMark(s *RemoteSpan) string {
	if s != nil && s.Err {
		return " !"
	}
	return ""
}

// sourceLabels maps volatile addresses to stable names for normalized
// output; in raw mode it echoes the addresses through.
type sourceLabels struct {
	normalize bool
	bySource  map[string]string // obs source → client / node-N
	byRoute   map[string]string // section-protocol addr → node-N
}

func makeLabels(tl *Timeline, normalize bool) *sourceLabels {
	l := &sourceLabels{normalize: normalize}
	if !normalize {
		return l
	}
	l.bySource = make(map[string]string)
	l.byRoute = make(map[string]string)
	// The client is whichever source owns the section spans.
	for i := range tl.Sections {
		if s := tl.Sections[i].Section; s != nil {
			l.bySource[s.Source] = "client"
		}
	}
	// Nodes label in section order (causal first-appearance); the route
	// address namespace (section-protocol ports) labels independently but
	// in the same causal order, so node-1 means the same machine in both.
	nodeN, routeN := 0, 0
	for i := range tl.Sections {
		sec := &tl.Sections[i]
		for j := range sec.Attempts {
			r := sec.Attempts[j].AttrString("route")
			if strings.HasPrefix(r, "node:") && l.byRoute[r] == "" {
				routeN++
				l.byRoute[r] = fmt.Sprintf("node-%d", routeN)
			}
		}
		for j := range sec.Handles {
			src := sec.Handles[j].Span.Source
			if l.bySource[src] == "" {
				nodeN++
				l.bySource[src] = fmt.Sprintf("node-%d", nodeN)
			}
		}
	}
	return l
}

// tag renders a span's source as a trailing " [label]".
func (l *sourceLabels) tag(s *RemoteSpan) string {
	if s == nil {
		return ""
	}
	if !l.normalize {
		return " [" + s.Source + "]"
	}
	if lbl := l.bySource[s.Source]; lbl != "" {
		return " [" + lbl + "]"
	}
	return " [?]"
}

// route renders a delivery route; normalized, node addresses become
// their stable labels while the degradation routes keep their names.
func (l *sourceLabels) route(r string) string {
	if !l.normalize || !strings.HasPrefix(r, "node:") {
		if r == "" {
			return "?"
		}
		return r
	}
	if lbl := l.byRoute[r]; lbl != "" {
		return lbl
	}
	return "node"
}
