// Package collect is the aggregation client of the observability plane:
// it polls N /obs/v1/snapshot endpoints concurrently, tolerates slow and
// dead nodes, and merges whatever arrived into one fleet snapshot with
// per-node provenance — the DistributedTraceCollector pattern (fan out,
// capture errors per node, merge partial results) applied to metrics.
//
// cmd/pmtop is the interactive consumer; pmbench's collect_fanout entry
// times a three-node collection.
package collect

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"pmtest/internal/obs"
)

// DefaultTimeout bounds each node poll when Options.Timeout is zero.
const DefaultTimeout = 2 * time.Second

// maxSnapshotBytes bounds one node's response; a document beyond it is a
// misbehaving node, reported as a per-node error.
const maxSnapshotBytes = 16 << 20

// Options configures a collection pass.
type Options struct {
	// Timeout bounds each node's poll independently — one slow node
	// costs its own slot, never the whole pass (default DefaultTimeout).
	Timeout time.Duration
	// Client overrides the HTTP client (tests inject one); the default
	// is a plain &http.Client{} with per-request context deadlines.
	Client *http.Client
}

// SnapshotURL normalizes a node spec into the full snapshot endpoint:
// "host:8081" → "http://host:8081/obs/v1/snapshot"; explicit http(s)
// URLs keep their scheme and gain the path unless they already carry
// one.
func SnapshotURL(node string) string {
	u := node
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	// Only append the well-known path when the spec is scheme://host[:port].
	rest := u[strings.Index(u, "://")+3:]
	if !strings.Contains(rest, "/") {
		u += "/obs/v1/snapshot"
	}
	return u
}

// Fetch retrieves and validates one node's snapshot document.
func Fetch(ctx context.Context, client *http.Client, node string) (obs.NodeSnapshot, error) {
	var snap obs.NodeSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, SnapshotURL(node), nil)
	if err != nil {
		return snap, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return snap, fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxSnapshotBytes)).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode snapshot: %w", err)
	}
	if snap.SchemaVersion != obs.SnapshotSchemaVersion {
		return snap, fmt.Errorf("schema_version %d, this collector speaks %d",
			snap.SchemaVersion, obs.SnapshotSchemaVersion)
	}
	if snap.Source == "" {
		snap.Source = node
	}
	return snap, nil
}

// fetchResult carries one node's outcome back from its goroutine.
type fetchResult struct {
	idx  int
	node string
	snap obs.NodeSnapshot
	err  error
}

// Collect polls every node concurrently and merges the successful
// snapshots. Nodes that are down, slow past the per-node timeout, or
// speaking a different schema become error rows in Sources and set
// Partial; they never fail the pass — a fleet dashboard that dies when
// one node does is useless exactly when it is needed. Collect only
// errors when nodes is empty.
func Collect(ctx context.Context, nodes []string, opt Options) (obs.MergedSnapshot, error) {
	if len(nodes) == 0 {
		return obs.MergedSnapshot{}, fmt.Errorf("collect: no nodes to poll")
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}

	results := make(chan fetchResult, len(nodes))
	for i, node := range nodes {
		go func(i int, node string) {
			nodeCtx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			snap, err := Fetch(nodeCtx, client, node)
			results <- fetchResult{idx: i, node: node, snap: snap, err: err}
		}(i, node)
	}
	fetched := make([]fetchResult, 0, len(nodes))
	for range nodes {
		fetched = append(fetched, <-results)
	}
	// Stable output: provenance rows follow the caller's node order, not
	// goroutine completion order.
	sort.Slice(fetched, func(i, j int) bool { return fetched[i].idx < fetched[j].idx })

	var good []obs.NodeSnapshot
	var failed []obs.SourceStatus
	for _, r := range fetched {
		if r.err != nil {
			failed = append(failed, obs.SourceStatus{Source: r.node, Err: r.err.Error()})
			continue
		}
		good = append(good, r.snap)
	}
	merged, err := obs.Merge(good...)
	if err != nil {
		// Merge rejects a document Fetch accepted — a node stamping the
		// right schema version while shipping foreign histogram buckets.
		// Degrade node by node: keep the snapshots that merge cleanly,
		// turn the rest into per-source errors rather than aborting.
		accepted := good[:0:0]
		for _, n := range good {
			m2, err2 := obs.Merge(append(accepted, n)...)
			if err2 != nil {
				failed = append(failed, obs.SourceStatus{Source: n.Source, Err: err2.Error()})
				continue
			}
			accepted = append(accepted, n)
			merged = m2
		}
		if len(accepted) == 0 {
			merged = obs.MergedSnapshot{SchemaVersion: obs.SnapshotSchemaVersion}
		}
	}
	merged.Sources = append(merged.Sources, failed...)
	merged.Partial = len(failed) > 0
	return merged, nil
}
