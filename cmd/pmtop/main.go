// Command pmtop is the fleet dashboard of the observability plane: it
// polls the /obs/v1/snapshot endpoint of every named node concurrently,
// merges the results bucket-exactly, and renders a live terminal view —
// or, with -once, prints the merged document as JSON for scripts and CI.
//
// Usage:
//
//	pmtop [flags] node [node...]
//	pmtop spans [flags] node [node...]
//
// Each node is a host:port (the -obs-listen address of a repro, crashmc
// or bughunt run) or a full http(s) URL. Nodes that are down or slow
// only mark the merged snapshot partial; the dashboard keeps rendering
// from whoever answered.
//
// The spans subcommand searches the fleet's flight recorders instead of
// its metrics: the same node list, fanned out to /flight/v1/search with
// the filters given as flags, merged newest-first. Both run through one
// poll loop (poll).
//
// Exit status: 0 when at least one node responded to -once, 1 when
// every node failed or on usage errors (including a non-positive
// -interval in live mode).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pmtest/internal/fleet"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
)

const (
	snapshotUsage = "usage: pmtop [flags] node [node...]\n" +
		"       pmtop spans [flags] node [node...]\n\n" +
		"Polls each node's /obs/v1/snapshot and renders the merged fleet view;\n" +
		"the spans subcommand searches the fleet's flight recorders instead.\n\n"
	spansUsage = "usage: pmtop spans [flags] node [node...]\n\n" +
		"Fans a span query out to each node's /flight/v1/search and renders\n" +
		"the merged newest-first view. Down nodes mark the result partial.\n\n"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line and polls the fleet's snapshots, or with
// the spans subcommand its flight recorders.
func run(args []string, stdout, stderr io.Writer) int {
	spans := len(args) > 0 && args[0] == "spans"
	name, usage := "pmtop", snapshotUsage
	if spans {
		name, usage, args = "pmtop spans", spansUsage, args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := poller{stdout: stdout, stderr: stderr}
	fs.BoolVar(&p.once, "once", false, "run one merged query, print it as JSON, exit")
	fs.DurationVar(&p.interval, "interval", 2*time.Second, "refresh period of the live view")
	timeout := fs.Duration("timeout", fleet.DefaultTimeout, "per-node query timeout")
	var lo obs.LogOptions
	lo.RegisterFlags(fs)
	var q flight.Query
	var last time.Duration
	if spans {
		spanFlags(fs, &q, &last)
	}
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	nodes := fs.Args()
	if len(nodes) == 0 {
		fs.Usage()
		return 1
	}
	if !p.once && p.interval <= 0 {
		fmt.Fprintf(stderr, "pmtop: -interval must be positive in live mode, got %v\n", p.interval)
		return 1
	}
	var err error
	if p.logger, err = lo.Logger(stderr); err != nil {
		fmt.Fprintf(stderr, "pmtop: %v\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := fleet.Options{Timeout: *timeout}
	if spans {
		return poll(ctx, p, func(ctx context.Context) (fleet.Result, error) {
			q := q
			if last > 0 {
				q.Since = time.Now().Add(-last)
			}
			return fleet.Search(ctx, nodes, q, opt)
		}, spanRows, renderSpans)
	}
	return poll(ctx, p, func(ctx context.Context) (obs.MergedSnapshot, error) {
		return fleet.Collect(ctx, nodes, opt)
	}, snapshotRows, render)
}

// poller holds the settings of pmtop's one poll loop.
type poller struct {
	once           bool
	interval       time.Duration
	logger         *slog.Logger
	stdout, stderr io.Writer
}

// status is the part of a provenance row the poll loop reads.
type status struct{ node, err string }

// poll runs one fleet read per pass. With -once it prints the merged
// document as JSON, warns once per failed row and returns 1 when no
// node answered. Live, it redraws the view every interval until ctx is
// done; the first pass runs at once so the view is never blank.
func poll[T any](ctx context.Context, p poller, read func(context.Context) (T, error),
	rows func(T) []status, view func(doc T, up, total int) string) int {
	for {
		doc, err := read(ctx)
		if err != nil {
			fmt.Fprintf(p.stderr, "pmtop: %v\n", err)
			return 1
		}
		st := rows(doc)
		up := 0
		for _, s := range st {
			if s.err == "" {
				up++
			} else if p.once {
				p.logger.Warn("node query failed", "node", s.node, "err", s.err)
			}
		}
		if p.once {
			enc := json.NewEncoder(p.stdout)
			enc.SetIndent("", "  ")
			enc.Encode(doc)
			if up == 0 {
				fmt.Fprintf(p.stderr, "pmtop: no node responded\n")
				return 1
			}
			return 0
		}
		// ANSI home + clear-to-end keeps the redraw flicker-free without
		// dropping scrollback the way a full clear would.
		fmt.Fprint(p.stdout, "\x1b[H\x1b[2J", view(doc, up, len(st)))
		select {
		case <-ctx.Done():
			fmt.Fprintln(p.stdout)
			return 0
		case <-time.After(p.interval):
		}
	}
}

// snapshotRows lists a merged snapshot's provenance rows.
func snapshotRows(m obs.MergedSnapshot) []status {
	st := make([]status, len(m.Sources))
	for i, s := range m.Sources {
		st[i] = status{s.Source, s.Err}
	}
	return st
}

// render draws the fleet view: headline totals, latency quantiles, the
// per-source table (including failed nodes and their errors), and the
// flight-recorder span summary.
func render(m obs.MergedSnapshot, up, total int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pmtop — %d/%d nodes up — %s — schema v%d — %s\n\n",
		up, total, completeness(m.Partial), m.SchemaVersion, time.Now().Format("15:04:05"))

	s := m.Metrics
	fmt.Fprintf(&b, "fleet    %.0f ops/s, traces checked %d, ops checked %d\n",
		s.OpsPerSec, s.TracesChecked, s.OpsChecked)
	fmt.Fprintf(&b, "diags    FAIL %d, WARN %d, INFO %d\n",
		s.DiagsBySeverity["FAIL"], s.DiagsBySeverity["WARN"], s.DiagsBySeverity["INFO"])
	fmt.Fprintf(&b, "latency  check p50 %v / p99 %v, queue wait p50 %v / p99 %v\n",
		s.CheckDur.P50, s.CheckDur.P99, s.QueueWait.P50, s.QueueWait.P99)
	fmt.Fprintf(&b, "runtime  %d goroutines, heap %s, GC pause p99 %v (%d cycles)\n",
		m.Runtime.Goroutines, fmtBytes(m.Runtime.HeapBytes), m.Runtime.GCPause.P99, m.Runtime.GCCycles)
	if r := s.Resources; r.StatePoolGets > 0 {
		fmt.Fprintf(&b, "checker  state pool %.1f%% hit (%d gets), shadow intervals live %d / max %d\n",
			100*r.StatePoolHitRate, r.StatePoolGets, r.ShadowIntervalsLive, r.ShadowIntervalsMax)
	}
	if s.DistSectionsSent > 0 || s.DistRetries > 0 || s.DistFailovers > 0 || s.DistFallbacks > 0 {
		fmt.Fprintf(&b, "dist     %d sections sent, %d retries, %d failovers, %d fallbacks, rtt p50 %v p99 %v\n",
			s.DistSectionsSent, s.DistRetries, s.DistFailovers, s.DistFallbacks,
			s.DistRTT.P50, s.DistRTT.P99)
	}

	fmt.Fprintf(&b, "\n%-28s %-9s %-10s %12s %10s %8s %10s  %s\n",
		"SOURCE", "ROLE", "UPTIME", "TRACES", "OPS/S", "FAILS", "HEAP", "STATUS")
	for _, src := range m.Sources {
		role := src.Role
		if role == "" {
			role = "-"
		}
		if src.Err != "" {
			fmt.Fprintf(&b, "%-28s %-9s %-10s %12s %10s %8s %10s  DOWN: %s\n",
				clip(src.Source, 28), clip(role, 9), "-", "-", "-", "-", "-", src.Err)
			continue
		}
		fmt.Fprintf(&b, "%-28s %-9s %-10s %12d %10.0f %8d %10s  ok\n",
			clip(src.Source, 28), clip(role, 9), src.Uptime.Round(time.Second),
			src.TracesChecked, src.OpsPerSec, src.Fails, fmtBytes(src.HeapBytes))
	}

	if m.Flight != nil && len(m.Flight.Categories) > 0 {
		cats := append([]obs.FlightCategorySummary(nil), m.Flight.Categories...)
		sort.Slice(cats, func(i, j int) bool { return cats[i].Category < cats[j].Category })
		fmt.Fprintf(&b, "\nflight   ")
		for i, c := range cats {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%s %d spans (%d err, max %v", c.Category, c.Spans, c.Errs, c.MaxDur.Round(time.Microsecond))
			// Nodes that predate the duration histogram contribute a zero
			// Dur; only a populated merge has quantiles worth printing.
			if c.Dur.Count > 0 {
				fmt.Fprintf(&b, ", p99 %v", c.Dur.P99.Round(time.Microsecond))
			}
			b.WriteByte(')')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// completeness names a merge's state in the view's header line.
func completeness(partial bool) string {
	if partial {
		return "PARTIAL"
	}
	return "complete"
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
