// Command pmtrace dumps an annotated PM-operation trace with the persist
// intervals the checking engine deduces — a textual version of the
// paper's Fig. 7 walkthrough. It ships with the Fig. 4 and Fig. 7 traces
// built in and can visualize any of the microbenchmarks' first
// transactions.
//
// Usage:
//
//	go run ./cmd/pmtrace            # the paper's Fig. 7 trace
//	go run ./cmd/pmtrace -fig4      # the paper's Fig. 4 trace
//	go run ./cmd/pmtrace -store btree
//	go run ./cmd/pmtrace timeline flight.json   # text gantt of a -flight-out export
//	go run ./cmd/pmtrace -remote -session pmtest-5f1c09e2a4b7d836-1 -nodes host:8081,host:8082
//
// -remote stitches a cross-node session timeline: it fetches the
// client's spans and every node-side span the session caused (joined by
// the correlation IDs the wire protocol propagates) from the listed
// -obs-listen endpoints and prints one causally-ordered timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"pmtest/internal/core"
	"pmtest/internal/fleet"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
	"pmtest/internal/pmem"
	"pmtest/internal/trace"
	"pmtest/internal/whisper"
)

var (
	flagFig4   = flag.Bool("fig4", false, "dump the paper's Fig. 4 trace")
	flagStore  = flag.String("store", "", "dump the first transaction of a workload (ctree|btree|rbtree|hashmap-tx|hashmap-ll|echo|vacation)")
	flagModel  = flag.String("model", "x86", "persistency model (x86|arm|hops|epoch)")
	flagRecord = flag.String("record", "", "write the selected trace to a file (binary format) instead of dumping it")
	flagCheck  = flag.String("check", "", "load a recorded trace file and dump/check it offline")
	flagStats  = flag.Bool("stats", false, "run the selected trace(s) through the checking engine and print an observability snapshot")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		runTimeline(os.Args[2:])
		return
	}
	if hasFlag(os.Args[1:], "remote") {
		os.Exit(runRemote(os.Args[1:]))
	}
	flag.Parse()
	rules, ok := core.Models()[*flagModel]
	if !ok {
		fmt.Fprintf(os.Stderr, "pmtrace: unknown model %q\n", *flagModel)
		os.Exit(1)
	}
	var ops []trace.Op
	switch {
	case *flagCheck != "":
		f, err := os.Open(*flagCheck)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		traces, err := trace.DecodeAll(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err)
			os.Exit(1)
		}
		for _, tr := range traces {
			dump(rules, tr.Ops)
			fmt.Println()
		}
		if *flagStats {
			printStats(rules, traces)
		}
		return
	case *flagStore != "":
		ops = storeTrace(*flagStore)
	case *flagFig4:
		ops = fig4()
	default:
		ops = fig7()
	}
	if *flagRecord != "" {
		f, err := os.Create(*flagRecord)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.Encode(f, &trace.Trace{Ops: ops}); err != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d ops to %s\n", len(ops), *flagRecord)
		return
	}
	dump(rules, ops)
	if *flagStats {
		printStats(rules, []*trace.Trace{{Ops: ops}})
	}
}

// hasFlag reports whether args carries the named flag (with or without
// a value), so -remote can switch to its own flag set before the global
// one parses.
func hasFlag(args []string, name string) bool {
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			continue
		}
		a = strings.TrimLeft(a, "-")
		if a == name || strings.HasPrefix(a, name+"=") {
			return true
		}
	}
	return false
}

// runRemote is the cross-node session timeline: fetch the client's
// spans and the node-side spans its sections caused from every listed
// obs endpoint, stitch them by the propagated correlation IDs, and
// print one causally-ordered timeline. Optionally it also fans a
// report lookup out to the checker nodes' section-protocol addresses.
func runRemote(args []string) int {
	fs := flag.NewFlagSet("pmtrace -remote", flag.ExitOnError)
	fs.Bool("remote", true, "stitch a cross-node session timeline (this mode)")
	session := fs.String("session", "", "session id to stitch (see pmtest SID / pmtestd stream -session-file)")
	nodes := fs.String("nodes", "", "comma-separated -obs-listen endpoints to search (client and checker nodes)")
	reportNodes := fs.String("report-nodes", "", "comma-separated checker section-protocol addresses for a merged report lookup (optional). "+
		"It finds only sessions a node still holds: open ones, or ones left behind by a failover. "+
		"A cleanly closed session's reports are the client's Exit() result")
	timeout := fs.Duration("timeout", fleet.DefaultTimeout, "per-node query timeout")
	normalize := fs.Bool("normalize", false, "stable labels instead of addresses/durations (golden-comparable output)")
	var lo obs.LogOptions
	lo.RegisterFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pmtrace -remote -session SID -nodes host:port,host:port [-report-nodes host:port,...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *session == "" || *nodes == "" {
		fs.Usage()
		return 2
	}
	logger, err := lo.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtrace:", err)
		return 1
	}
	ctx := context.Background()
	opt := fleet.Options{Timeout: *timeout}
	nodeList := splitList(*nodes)

	res, err := fleet.SessionSpans(ctx, nodeList, *session, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtrace:", err)
		return 1
	}
	for _, s := range res.Sources {
		if s.Err != "" {
			logger.Warn("span fetch failed", "node", s.Source, "err", s.Err)
		}
	}
	if res.Partial {
		fmt.Fprintln(os.Stderr, "pmtrace: warning: partial result (some nodes unreachable); timeline may have gaps")
	}
	tl := fleet.Stitch(*session, res.Spans)
	fleet.WriteTimeline(os.Stdout, tl, *normalize)

	if *reportNodes != "" {
		reps, err := fleet.Reports(ctx, splitList(*reportNodes), *session, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err)
			return 1
		}
		fmt.Printf("\nreports: %d held by fleet", len(reps.Reports))
		if reps.Partial {
			fmt.Print(" (partial)")
		}
		fmt.Println()
		for _, r := range reps.Reports {
			fmt.Printf("  section %d: ops=%d tracked=%d fails=%d warns=%d\n",
				r.TraceID, r.Ops, r.TrackedOps, r.Fails(), r.Warns())
		}
	}
	return 0
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runTimeline renders a flight-recorder export (Chrome trace-event JSON
// written by repro/crashmc -flight-out) as a text gantt: one bar per
// span, errors marked with "!".
func runTimeline(args []string) {
	fs := flag.NewFlagSet("pmtrace timeline", flag.ExitOnError)
	width := fs.Int("width", 60, "gantt bar area width in columns")
	category := fs.String("category", "", "only spans of one category (session|tx|checker|engine|campaign)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pmtrace timeline [-width N] [-category C] <flight.json>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtrace:", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := flight.ReadChrome(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtrace:", err)
		os.Exit(1)
	}
	if err := flight.WriteTimeline(os.Stdout, tr, *width, *category); err != nil {
		fmt.Fprintln(os.Stderr, "pmtrace:", err)
		os.Exit(1)
	}
}

// printStats replays the traces through a fully instrumented checking
// engine and prints the observability snapshot — a one-shot view of the
// same numbers obs.Handler serves over HTTP.
func printStats(rules core.RuleSet, traces []*trace.Trace) {
	m := obs.NewMetrics(len(traces))
	e := core.NewEngine(core.Options{Rules: rules, Observer: m})
	for _, tr := range traces {
		e.Submit(tr)
	}
	e.Close()
	fmt.Println()
	fmt.Print(m.Snapshot().Format())
}

func fig7() []trace.Op {
	return []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x10, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x10, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindWrite, Addr: 0x50, Size: 64},
		{Kind: trace.KindIsPersist, Addr: 0x50, Size: 64},
		{Kind: trace.KindIsOrderedBefore, Addr: 0x10, Size: 64, Addr2: 0x50, Size2: 64},
	}
}

func fig4() []trace.Op {
	return []trace.Op{
		{Kind: trace.KindFence},
		{Kind: trace.KindWrite, Addr: 0xA0, Size: 8},
		{Kind: trace.KindFlush, Addr: 0xA0, Size: 8},
		{Kind: trace.KindWrite, Addr: 0xB0, Size: 8},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsOrderedBefore, Addr: 0xA0, Size: 8, Addr2: 0xB0, Size2: 8},
		{Kind: trace.KindIsPersist, Addr: 0xB0, Size: 8},
	}
}

func storeTrace(name string) []trace.Op {
	rec := &trace.Recorder{}
	dev := pmem.New(1<<24, rec)
	var s whisper.Store
	var err error
	switch name {
	case "ctree":
		s, err = whisper.NewCTree(dev, nil)
	case "btree":
		s, err = whisper.NewBTree(dev, nil)
	case "rbtree":
		s, err = whisper.NewRBTree(dev, nil)
	case "hashmap-tx":
		s, err = whisper.NewHashmapTX(dev, 64, nil)
	case "hashmap-ll":
		s, err = whisper.NewHashmapLL(dev, 256, 128, nil)
	case "echo":
		e, err2 := whisper.NewEcho(dev, 1<<16, nil)
		if err2 != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err2)
			os.Exit(1)
		}
		e.SetCheckers(true)
		rec.Ops = rec.Ops[:0]
		if err2 := e.Set(42, []byte("hello persistent world")); err2 != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err2)
			os.Exit(1)
		}
		return rec.Ops
	case "vacation":
		v, err2 := whisper.NewVacation(dev, 16, 8, 4)
		if err2 != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err2)
			os.Exit(1)
		}
		v.SetCheckers(true)
		rec.Ops = rec.Ops[:0]
		if err2 := v.MakeReservation(1, 0, 2); err2 != nil {
			fmt.Fprintln(os.Stderr, "pmtrace:", err2)
			os.Exit(1)
		}
		return rec.Ops
	default:
		fmt.Fprintf(os.Stderr, "pmtrace: unknown store %q\n", name)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtrace:", err)
		os.Exit(1)
	}
	if c, ok := s.(whisper.Checkered); ok {
		c.SetCheckers(true)
	}
	rec.Ops = rec.Ops[:0]
	if err := s.Insert(42, []byte("hello persistent world")); err != nil {
		fmt.Fprintln(os.Stderr, "pmtrace:", err)
		os.Exit(1)
	}
	return rec.Ops
}

// dump walks the trace one op at a time, printing the op, any diagnostics
// it raised and the shadow-memory persist intervals after it — the
// paper's Fig. 7 table.
func dump(rules core.RuleSet, ops []trace.Op) {
	fmt.Printf("model: %s\n\n", rules.Name())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "#\top\tshadow memory after op (range: PI / FI)")
	// One full-trace report, with diagnostics anchored to their ops.
	full := core.CheckTrace(rules, &trace.Trace{Ops: ops})
	byOp := map[int][]core.Diagnostic{}
	for _, d := range full.Diags {
		byOp[d.OpIndex] = append(byOp[d.OpIndex], d)
	}
	// Re-run the prefix for each step to show evolving state.
	for i := range ops {
		st := core.NewState()
		for j := 0; j <= i; j++ {
			rules.Apply(st, ops[j])
		}
		diags := byOp[i]
		shadow := ""
		for _, e := range st.Shadow() {
			if !e.HasPI && !e.HasFI {
				continue
			}
			shadow += fmt.Sprintf("[0x%x,0x%x): ", e.Lo, e.Hi)
			if e.HasPI {
				shadow += "PI" + e.PI.String()
			}
			if e.HasFI {
				shadow += " FI" + e.FI.String()
			}
			shadow += "  "
		}
		fmt.Fprintf(w, "%d\t%s\t%s\n", i, ops[i].String(), shadow)
		for _, d := range diags {
			fmt.Fprintf(w, "\t  → %s\t\n", d.String())
		}
	}
	w.Flush()
}
