// Package fleet is the read plane of a pmtest fleet. A run's evidence
// (metrics snapshots, flight-recorder spans, section reports) lives on
// many engines and pmtestd nodes; reading it back is one operation: ask
// every node concurrently, each under its own timeout, keep what
// answered, and turn every node that did not into a provenance error row
// and a Partial flag instead of a failed pass. Collect, Search,
// SessionSpans and Reports are that operation with different fetch and
// merge functions, in the style of peterbourgon/trc's one searcher for
// every distributed query.
//
// cmd/pmtop is the interactive consumer; `pmtrace -remote` uses
// SessionSpans, Stitch and Reports to join a client session's spans with
// the node-side spans and reports its sections caused; pmbench's
// collect_fanout and search_fanout entries time Collect and Search.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// DefaultTimeout bounds each node's request when Options.Timeout is zero.
const DefaultTimeout = 2 * time.Second

// Options configures one fan-out pass.
type Options struct {
	// Timeout bounds each node's request independently — one slow node
	// costs its own slot, never the whole pass (default DefaultTimeout).
	Timeout time.Duration
	// Client overrides the HTTP client (tests inject one); the default
	// is a plain &http.Client{} with per-request context deadlines.
	Client *http.Client
}

// outcome is one node's answer, or its failure, in a fan-out pass.
type outcome[T any] struct {
	node string
	val  T
	err  error
}

// fanOut runs fetch against every node concurrently, each under its own
// timeout, and returns the outcomes in the caller's node order. It
// errors only when nodes is empty.
func fanOut[T any](ctx context.Context, nodes []string, opt Options,
	fetch func(ctx context.Context, client *http.Client, node string) (T, error)) ([]outcome[T], error) {
	if len(nodes) == 0 {
		return nil, errors.New("fleet: no nodes to query")
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	out := make([]outcome[T], len(nodes))
	var wg sync.WaitGroup
	wg.Add(len(nodes))
	for i, node := range nodes {
		go func() {
			defer wg.Done()
			nodeCtx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			val, err := fetch(nodeCtx, client, node)
			out[i] = outcome[T]{node: node, val: val, err: err}
		}()
	}
	wg.Wait()
	return out, nil
}

// nodeBase splits a node spec into its scheme://host[:port] base and
// the path it carries, if any: "host:8081" → ("http://host:8081", "");
// explicit http(s) URLs keep their scheme.
func nodeBase(node string) (base, path string) {
	if !strings.Contains(node, "://") {
		node = "http://" + node
	}
	host := strings.Index(node, "://") + 3
	if i := strings.IndexByte(node[host:], '/'); i >= 0 {
		return node[:host+i], node[host+i:]
	}
	return node, ""
}

// getJSON GETs url and decodes its JSON body, at most limit bytes of it,
// into out. A non-200 answer is an error carrying the node's
// {"error": ...} message when it sent one, else the start of its body.
func getJSON(ctx context.Context, client *http.Client, url string, limit int64, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("status %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(out); err != nil {
		return fmt.Errorf("decode %T: %w", out, err)
	}
	return nil
}
