package fleet

import (
	"context"
	"net/http"
	"net/url"
	"sort"

	"pmtest/internal/core"
	"pmtest/internal/dist"
)

// ReportsResult is a merged per-session report lookup: every report any
// reachable node still holds for the session, deduplicated by section
// sequence and sorted in section order, with the same provenance shape
// as a span query.
type ReportsResult struct {
	Session string         `json:"session"`
	Partial bool           `json:"partial"`
	Sources []SourceStatus `json:"sources"`
	Reports []core.Report  `json:"reports"`
}

// Reports fans a per-session report lookup out to the given checker
// nodes (their section-protocol addresses, not the obs endpoints) and
// merges the windows. After a failover the fleet holds overlapping
// windows — the old node keeps its engine until the TTL reaps it — so
// reports are deduplicated by TraceID; checking is deterministic, so
// duplicates are identical and the first reachable holder wins. Dead
// nodes become error rows and set Partial, never a failure.
func Reports(ctx context.Context, nodes []string, session string, opt Options) (ReportsResult, error) {
	fetched, err := fanOut(ctx, nodes, opt, func(ctx context.Context, client *http.Client, node string) (dist.ReportsResponse, error) {
		base, _ := nodeBase(node)
		var out dist.ReportsResponse
		err := getJSON(ctx, client, base+dist.PathReports+"?session="+url.QueryEscape(session), maxResponseBytes, &out)
		return out, err
	})
	if err != nil {
		return ReportsResult{}, err
	}
	out := ReportsResult{Session: session, Reports: []core.Report{}}
	seen := make(map[int]bool)
	for _, r := range fetched {
		if r.err != nil {
			out.Partial = true
			out.Sources = append(out.Sources, SourceStatus{Source: r.node, Err: r.err.Error()})
			continue
		}
		kept := 0
		for _, rep := range r.val.Reports {
			if !seen[rep.TraceID] {
				seen[rep.TraceID] = true
				out.Reports = append(out.Reports, rep)
				kept++
			}
		}
		out.Sources = append(out.Sources, SourceStatus{Source: r.node, Spans: kept})
	}
	sort.Slice(out.Reports, func(i, j int) bool { return out.Reports[i].TraceID < out.Reports[j].TraceID })
	return out, nil
}
