package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"pmtest/internal/fleet"
	"pmtest/internal/flight"
)

// spanFlags registers the spans subcommand's filters, each bound to the
// field of q it sets; -last is kept apart because each pass turns it
// into q.Since afresh. A malformed -category or -attr fails the parse,
// before any node is asked.
func spanFlags(fs *flag.FlagSet, q *flight.Query, last *time.Duration) {
	fs.Func("category", "only spans of one category (session|tx|checker|engine|campaign|rpc)", func(s string) error {
		c, ok := flight.ParseCategory(s)
		if !ok {
			return fmt.Errorf("unknown category %q", s)
		}
		q.Category, q.HasCategory = c, true
		return nil
	})
	fs.StringVar(&q.Name, "name", "", "only spans whose name contains this substring")
	fs.BoolVar(&q.ErrOnly, "err", false, "only failed spans")
	fs.DurationVar(&q.MinDur, "min-dur", 0, "only spans at least this long")
	fs.DurationVar(last, "last", 0, "only spans started within this window before now")
	fs.Func("attr", "only spans carrying attribute key=value (empty value: any value of key)", func(s string) error {
		k, v, _ := strings.Cut(s, "=")
		if k == "" {
			return fmt.Errorf("want key=value, got %q", s)
		}
		q.AttrKey, q.AttrVal = k, v
		return nil
	})
	fs.IntVar(&q.Limit, "limit", 40, "merged result size cap")
}

// spanRows lists a merged span search's provenance rows.
func spanRows(res fleet.Result) []status {
	st := make([]status, len(res.Sources))
	for i, s := range res.Sources {
		st[i] = status{s.Source, s.Err}
	}
	return st
}

// renderSpans draws the merged span table, newest first, with the
// per-node provenance footer.
func renderSpans(res fleet.Result, up, total int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pmtop spans — %d/%d nodes up — %s — %d spans — %s\n\n",
		up, total, completeness(res.Partial), len(res.Spans), time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "%-15s %10s %-8s %-16s %-22s %s\n",
		"START", "DUR", "CAT", "NAME", "SOURCE", "ATTRS")
	for _, s := range res.Spans {
		mark := " "
		if s.Err {
			mark = "!"
		}
		fmt.Fprintf(&b, "%-15s %10s %-8s %-16s %-22s%s %s\n",
			s.Start.Format("15:04:05.000"), time.Duration(s.DurNS).Round(time.Microsecond),
			clip(s.Category, 8), clip(s.Name, 16), clip(s.Source, 22), mark, clip(attrLine(s.Attrs), 60))
	}
	for _, src := range res.Sources {
		if src.Err != "" {
			fmt.Fprintf(&b, "\n%-22s DOWN: %s", clip(src.Source, 22), src.Err)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// attrLine renders a span's attribute map compactly and stably.
func attrLine(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", k, attrs[k])
	}
	return b.String()
}
