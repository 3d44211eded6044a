// Command pmtestd is the distributed checking tier's node and test
// client. `pmtestd serve` hosts core-engine checking sessions behind
// the HTTP section protocol (internal/dist); programs under test reach
// it through pmtest.Config.Remote. A node checks each session under the
// spec the session's open carries, so it has no checking flags of its
// own. `pmtestd stream` drives a deterministic recorded workload
// through the remote tier — or, with no -nodes, through a local engine
// — and writes a normalized report dump, so a remote run (including one
// with a node killed mid-stream) can be diffed byte-for-byte against a
// local run. Its -shards and -epoch-gc choose the session's checker
// configuration, which its nodes and its local check then follow.
//
// Usage:
//
//	pmtestd serve -listen :9321 -obs-listen :8081
//	pmtestd stream -nodes 127.0.0.1:9321,127.0.0.1:9322 -store ctree \
//	    -sections 120 -shards 4 -epoch-gc -out remote.txt -snapshot snap.json
//	pmtestd stream -store ctree -sections 120 -out local.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pmtest"
	"pmtest/internal/dist"
	"pmtest/internal/flight"
	"pmtest/internal/harness"
	"pmtest/internal/obs"
	"pmtest/internal/obsserve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "stream":
		stream(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pmtestd serve|stream [flags]  (-h on a subcommand for its flags)")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmtestd:", err)
	os.Exit(1)
}

// serve runs one checker node until SIGINT/SIGTERM.
func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":9321", "section protocol listen address")
	obsListen := fs.String("obs-listen", "", "observability endpoint address (/metrics, /obs/v1/snapshot, /flight)")
	maxSessions := fs.Int("max-sessions", 256, "max concurrently hosted sessions")
	sessionTTL := fs.Duration("session-ttl", 5*time.Minute, "reap sessions idle longer than this")
	pprof := fs.Bool("pprof", false, "mount net/http/pprof on the -obs-listen address")
	var logOpts obs.LogOptions
	logOpts.RegisterFlags(fs)
	fs.Parse(args)

	logger, err := logOpts.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	metrics := obs.NewMetrics(64)
	rec := flight.NewRecorder(2048)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	addr := ln.Addr().String()

	if *obsListen != "" {
		srv, err := obsserve.Start(obsserve.Config{
			Addr: *obsListen, Source: addr, Role: "pmtestd",
			Metrics: metrics, Flight: rec, PProf: *pprof, Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability endpoint on http://%s/\n", srv.Addr())
	}

	node := dist.NewNode(dist.NodeConfig{
		Metrics: metrics, Flight: rec, Logger: logger,
		MaxSessions: *maxSessions, SessionTTL: *sessionTTL,
	})
	httpSrv := &http.Server{Handler: node}
	fmt.Printf("pmtestd serving on %s (pid %d)\n", addr, os.Getpid())

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != http.ErrServerClosed {
			fatal(err)
		}
	case s := <-sig:
		if logger != nil {
			logger.Info("pmtestd shutting down", "signal", s.String(), "sessions", node.Sessions())
		}
		httpSrv.Close()
		node.Close()
	}
}

// stream replays a recorded micro-store workload through the checking
// tier and writes artifacts for equivalence comparison.
func stream(args []string) {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	nodes := fs.String("nodes", "", "comma-separated pmtestd addresses; empty checks with a local engine")
	store := fs.String("store", "ctree", "micro store to record (see pmbench)")
	sections := fs.Int("sections", 60, "trace sections to stream")
	txSize := fs.Uint64("tx", 256, "bytes touched per transaction")
	interval := fs.Duration("interval", 0, "pause between sections (gives a chaos script time to kill a node mid-stream)")
	out := fs.String("out", "", "write the normalized report dump here (for diffing remote vs local)")
	snapshot := fs.String("snapshot", "", "write the final client obs snapshot JSON here")
	activeNodeFile := fs.String("active-node-file", "", "after the first ack, write the session's active node address here")
	sessionFile := fs.String("session-file", "", "write the session id here before streaming (feeds pmtop spans / pmtrace -remote)")
	expectFailovers := fs.Uint64("expect-failovers", 0, "exit 1 unless the run recorded at least this many failovers")
	rpcTimeout := fs.Duration("rpc-timeout", 5*time.Second, "deadline of each RPC, section write and wait for an ack")
	shards := fs.Int("shards", 1, "address stripes per check, on every node and in-process (sharded checking; 1 = serial; nodes allow at most 64)")
	epochGC := fs.Bool("epoch-gc", false, "retire long-closed shadow segments, on every node and in-process (bounds memory on streaming runs; can drop a FAIL over a retired range)")
	obsListen := fs.String("obs-listen", "", "observability endpoint for the streaming client itself")
	var logOpts obs.LogOptions
	logOpts.RegisterFlags(fs)
	fs.Parse(args)

	logger, err := logOpts.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	metrics := obs.NewMetrics(64)
	rec := flight.NewRecorder(2048)
	if *obsListen != "" {
		srv, err := obsserve.Start(obsserve.Config{
			Addr: *obsListen, Source: "pmtestd-stream", Role: "workload",
			Metrics: metrics, Flight: rec, Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
	}

	recorded, err := harness.RecordMicroSections(*store, *txSize, *sections)
	if err != nil {
		fatal(err)
	}

	cfg := pmtest.Config{Model: pmtest.X86, Shards: *shards, EpochGC: *epochGC,
		Metrics: metrics, Flight: rec, Logger: logger}
	if *nodes != "" {
		cfg.Remote = &pmtest.RemoteConfig{
			Nodes:      strings.Split(*nodes, ","),
			RPCTimeout: *rpcTimeout,
		}
	}
	sess := pmtest.Init(cfg)
	if *sessionFile != "" {
		if err := os.WriteFile(*sessionFile, []byte(sess.SID()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	th := sess.ThreadInit()
	th.Start()
	for i, ops := range recorded {
		for _, op := range ops {
			th.Record(op, 0)
		}
		th.SendTrace()
		if i == 0 && *activeNodeFile != "" {
			// Drain the first section so the session has landed somewhere,
			// then tell the chaos script which node to kill.
			sess.GetResult()
			if err := os.WriteFile(*activeNodeFile, []byte(sess.RemoteNode()+"\n"), 0o644); err != nil {
				fatal(err)
			}
		}
		if *interval > 0 {
			time.Sleep(*interval)
		}
	}
	reports := sess.Exit()
	snap := sess.Stats()

	if *out != "" {
		if err := os.WriteFile(*out, []byte(harness.DumpReports(reports)), 0o644); err != nil {
			fatal(err)
		}
	}
	if *snapshot != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*snapshot, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	fails, warns := 0, 0
	for _, r := range reports {
		fails += r.Fails()
		warns += r.Warns()
	}
	fmt.Printf("streamed %d sections (%s): %d reports, %d fails, %d warns\n",
		len(recorded), routeName(*nodes), len(reports), fails, warns)
	fmt.Printf("dist: sent=%d retries=%d failovers=%d breaker_opens=%d fallbacks=%d buffered_peak=%d\n",
		snap.DistSectionsSent, snap.DistRetries, snap.DistFailovers,
		snap.DistBreakerOpens, snap.DistFallbacks, snap.DistBufferedPeak)
	if err := sess.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "deferred session error:", err)
	}

	if len(reports) != len(recorded) {
		fmt.Fprintf(os.Stderr, "pmtestd: %d sections streamed but %d reports returned\n", len(recorded), len(reports))
		os.Exit(1)
	}
	if snap.DistFailovers < *expectFailovers {
		fmt.Fprintf(os.Stderr, "pmtestd: expected >= %d failovers, run recorded %d\n", *expectFailovers, snap.DistFailovers)
		os.Exit(1)
	}
}

func routeName(nodes string) string {
	if nodes == "" {
		return "local engine"
	}
	return "remote via " + nodes
}
