package fleet

import (
	"context"
	"net/http"
	"sort"

	"pmtest/internal/flight"
)

// maxResponseBytes bounds one node's span or report document; a
// document beyond it is a misbehaving node, reported as a per-node error.
const maxResponseBytes = 64 << 20

// defaultLimit caps the merged result when Query.Limit is zero,
// mirroring the node-side default.
const defaultLimit = 100

// RemoteSpan is one span annotated with the node it came from.
type RemoteSpan struct {
	Source string `json:"source"`
	flight.SpanRecord
}

// SourceStatus is the per-node provenance row of a merged span or
// report query: one entry per queried node, including the ones that
// failed, so a caller can always answer "which node is missing and why".
type SourceStatus struct {
	Source string `json:"source"`
	Err    string `json:"err,omitempty"`
	// Spans is how many items (spans, or reports for a report lookup)
	// this node contributed before the global limit was applied.
	Spans int `json:"spans"`
}

// Result is a merged fleet span query: newest-first spans from every
// node that answered, provenance for all of them, and Partial set when
// any node failed.
type Result struct {
	Partial bool           `json:"partial"`
	Sources []SourceStatus `json:"sources"`
	Spans   []RemoteSpan   `json:"spans"`
}

// fetchSpans retrieves one node's spans matching q from its
// /flight/v1/search endpoint; any path in the node spec is dropped.
func fetchSpans(ctx context.Context, client *http.Client, node string, q flight.Query) ([]flight.SpanRecord, error) {
	base, _ := nodeBase(node)
	url := base + flight.SearchPath
	if v := q.Values().Encode(); v != "" {
		url += "?" + v
	}
	var out flight.SearchResponse
	err := getJSON(ctx, client, url, maxResponseBytes, &out)
	return out.Spans, err
}

// Search fans q out to every node concurrently and merges the results
// newest-first under q.Limit (0 = 100). Each node is asked for the same
// limit, so the merge sees enough from every node to fill the global
// window however the spans are distributed. Nodes that are down or slow
// past the per-node timeout become error rows in Sources and set
// Partial; they never fail the pass. Search only errors when nodes is
// empty.
func Search(ctx context.Context, nodes []string, q flight.Query, opt Options) (Result, error) {
	fetched, err := fanOut(ctx, nodes, opt, func(ctx context.Context, client *http.Client, node string) ([]flight.SpanRecord, error) {
		return fetchSpans(ctx, client, node, q)
	})
	if err != nil {
		return Result{}, err
	}
	limit := q.Limit
	if limit <= 0 {
		limit = defaultLimit
	}
	return mergeSpans(fetched, limit), nil
}

// mergeSpans folds per-node outcomes into one Result: spans in one
// newest-first total order (start time, span ID, then node order break
// ties deterministically), capped at limit.
func mergeSpans(fetched []outcome[[]flight.SpanRecord], limit int) Result {
	var out Result
	order := make(map[string]int, len(fetched))
	for i, r := range fetched {
		order[r.node] = i
		if r.err != nil {
			out.Partial = true
			out.Sources = append(out.Sources, SourceStatus{Source: r.node, Err: r.err.Error()})
			continue
		}
		out.Sources = append(out.Sources, SourceStatus{Source: r.node, Spans: len(r.val)})
		for _, s := range r.val {
			out.Spans = append(out.Spans, RemoteSpan{Source: r.node, SpanRecord: s})
		}
	}
	sort.SliceStable(out.Spans, func(i, j int) bool {
		a, b := &out.Spans[i], &out.Spans[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.After(b.Start)
		}
		if a.ID != b.ID {
			return a.ID > b.ID
		}
		return order[a.Source] < order[b.Source]
	})
	if len(out.Spans) > limit {
		out.Spans = out.Spans[:limit]
	}
	return out
}

// sessionSpanLimit is the per-node span budget of a SessionSpans fetch:
// stitching needs every span of one session, so the window is the ring
// capacity order of magnitude, not a browse page.
const sessionSpanLimit = 100_000

// SessionSpans fetches everything correlated to one session from the
// given nodes: client-side spans (attr session=<sid>) and node-side
// spans (attr remote_session_id=<sid>). Both queries run inside each
// node's fan-out slot, so one provenance row covers a node's whole
// contribution. The result is newest-first like Search.
func SessionSpans(ctx context.Context, nodes []string, sid string, opt Options) (Result, error) {
	fetched, err := fanOut(ctx, nodes, opt, func(ctx context.Context, client *http.Client, node string) ([]flight.SpanRecord, error) {
		var all []flight.SpanRecord
		seen := make(map[uint64]bool)
		for _, key := range []string{"session", "remote_session_id"} {
			spans, err := fetchSpans(ctx, client, node, flight.Query{
				AttrKey: key, AttrVal: sid, Limit: sessionSpanLimit,
			})
			if err != nil {
				return nil, err
			}
			for _, s := range spans {
				if !seen[s.ID] {
					seen[s.ID] = true
					all = append(all, s)
				}
			}
		}
		return all, nil
	})
	if err != nil {
		return Result{}, err
	}
	return mergeSpans(fetched, sessionSpanLimit*len(nodes)), nil
}
