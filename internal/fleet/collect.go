package fleet

import (
	"context"
	"fmt"
	"net/http"

	"pmtest/internal/obs"
)

// maxSnapshotBytes bounds one node's snapshot document; a document
// beyond it is a misbehaving node, reported as a per-node error.
const maxSnapshotBytes = 16 << 20

// snapshotURL normalizes a node spec into its snapshot endpoint:
// "host:8081" → "http://host:8081/obs/v1/snapshot"; a spec that already
// carries a path is used as given.
func snapshotURL(node string) string {
	base, path := nodeBase(node)
	if path == "" {
		path = "/obs/v1/snapshot"
	}
	return base + path
}

// fetchSnapshot retrieves and validates one node's snapshot document.
func fetchSnapshot(ctx context.Context, client *http.Client, node string) (obs.NodeSnapshot, error) {
	var snap obs.NodeSnapshot
	if err := getJSON(ctx, client, snapshotURL(node), maxSnapshotBytes, &snap); err != nil {
		return snap, err
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

// Collect polls every node's /obs/v1/snapshot concurrently and merges
// the successful snapshots bucket-exactly. Nodes that are down, slow
// past the per-node timeout, or speaking a different schema become
// error rows and set Partial; they never fail the pass — a fleet
// dashboard that dies when one node does is useless exactly when it is
// needed. The source rows, error rows included, follow the order of
// nodes. Collect only errors when nodes is empty.
func Collect(ctx context.Context, nodes []string, opt Options) (obs.MergedSnapshot, error) {
	fetched, err := fanOut(ctx, nodes, opt, fetchSnapshot)
	if err != nil {
		return obs.MergedSnapshot{}, err
	}
	rows := make([]obs.SourceStatus, len(fetched))
	var good []obs.NodeSnapshot
	var at []int // at[j] is the row of good[j]
	for i, r := range fetched {
		if r.err != nil {
			rows[i] = obs.SourceStatus{Source: r.node, Err: r.err.Error()}
			continue
		}
		good = append(good, r.val)
		at = append(at, i)
	}
	merged, err := obs.Merge(good...)
	kept := at
	if err != nil {
		// Merge rejects a document fetchSnapshot accepted — a node
		// stamping the right schema version while shipping foreign
		// histogram buckets. Degrade node by node: keep the snapshots
		// that merge cleanly, turn the rest into per-source errors.
		merged = obs.MergedSnapshot{SchemaVersion: obs.SnapshotSchemaVersion}
		var accepted []obs.NodeSnapshot
		kept = nil
		for j, n := range good {
			m2, err2 := obs.Merge(append(accepted, n)...)
			if err2 != nil {
				rows[at[j]] = obs.SourceStatus{Source: n.Source, Err: err2.Error()}
				continue
			}
			accepted = append(accepted, n)
			kept = append(kept, at[j])
			merged = m2
		}
	}
	// Merge lists the accepted snapshots' rows in merge order.
	for j, i := range kept {
		rows[i] = merged.Sources[j]
	}
	merged.Sources = rows
	merged.Partial = len(kept) < len(rows)
	return merged, nil
}
