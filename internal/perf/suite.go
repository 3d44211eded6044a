package perf

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/dist"
	"pmtest/internal/faultinject"
	"pmtest/internal/fleet"
	"pmtest/internal/flight"
	"pmtest/internal/harness"
	"pmtest/internal/lint"
	"pmtest/internal/obs"
	"pmtest/internal/obsserve"
	"pmtest/internal/trace"
)

// Budget fixes how much work each suite entry does, so two runs of the
// same budget are directly comparable. "small" is the CI gate; "medium"
// and "large" are for local before/after measurement.
type Budget struct {
	Name string
	// Micro-suite shape: each store × tx size runs Inserts insertions
	// end-to-end under full PMTest checking.
	Stores  []string
	TxSizes []uint64
	Inserts int
	// CheckSections is how many recorded sections feed the engine and
	// direct-check entries.
	CheckSections int
	// CheckIters is the fixed iteration count for the direct
	// CheckTrace and codec entries.
	CheckIters int
	// Campaign bounds the crashmc entry.
	CampaignTargets int
	CampaignBudget  int
	CampaignOps     int
	// DistSections is how many recorded sections stream through the
	// loopback distributed-checking entries (healthy and degraded).
	DistSections int
	// Huge-trace shape: HugeOps total ops streamed through the sharded
	// checker in HugeSection-op sections, over a rotating window of
	// HugeWindow objects (0 skips the entry).
	HugeOps     int
	HugeWindow  int
	HugeSection int
}

// Budgets returns the named budget, or false.
func Budgets(name string) (Budget, bool) {
	switch name {
	case "tiny": // test-sized; not meant for checked-in baselines
		return Budget{Name: "tiny", Stores: []string{"ctree"}, TxSizes: []uint64{64},
			Inserts: 60, CheckSections: 40, CheckIters: 5,
			CampaignTargets: 1, CampaignBudget: 1, CampaignOps: 2,
			DistSections: 12,
			HugeOps:      20_000, HugeWindow: 64, HugeSection: 4_000}, true
	case "small": // the CI gate: ~seconds per pass
		return Budget{Name: "small", Stores: []string{"ctree", "hashmap-ll"}, TxSizes: []uint64{64, 256},
			Inserts: 400, CheckSections: 300, CheckIters: 20,
			CampaignTargets: 2, CampaignBudget: 2, CampaignOps: 2,
			DistSections: 80,
			HugeOps:      2_000_000, HugeWindow: 256, HugeSection: 65_536}, true
	case "medium":
		return Budget{Name: "medium", Stores: []string{"ctree", "btree", "hashmap-ll"},
			TxSizes: []uint64{64, 256, 1024},
			Inserts: 2000, CheckSections: 1000, CheckIters: 50,
			CampaignTargets: 3, CampaignBudget: 4, CampaignOps: 3,
			DistSections: 300,
			HugeOps:      4_000_000, HugeWindow: 256, HugeSection: 65_536}, true
	case "large":
		return Budget{Name: "large", Stores: harness.MicroStores, TxSizes: []uint64{64, 256, 1024, 4096},
			Inserts: 8000, CheckSections: 4000, CheckIters: 100,
			CampaignTargets: 5, CampaignBudget: 8, CampaignOps: 3,
			DistSections: 800,
			HugeOps:      10_000_000, HugeWindow: 512, HugeSection: 131_072}, true
	}
	return Budget{}, false
}

// Run executes the whole suite count times and returns the merged
// (best-of) result. progress, when non-nil, receives one line per suite
// entry.
func Run(b Budget, count int, seed int64, progress io.Writer) (*Result, error) {
	if count < 1 {
		count = 1
	}
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	res := &Result{SchemaVersion: SchemaVersion, Budget: b.Name, Count: count,
		Seed: seed, GoVersion: runtime.Version()}
	for pass := 0; pass < count; pass++ {
		logf("pass %d/%d", pass+1, count)
		one := &Result{SchemaVersion: SchemaVersion, Budget: b.Name}
		if err := runOnce(b, seed, one, logf); err != nil {
			return nil, err
		}
		res.merge(*one)
	}
	return res, nil
}

func runOnce(b Budget, seed int64, res *Result, logf func(string, ...any)) error {
	if err := runMicro(b, res, logf); err != nil {
		return err
	}
	if err := runCheckAndEngine(b, res, logf); err != nil {
		return err
	}
	if err := runHugeTrace(b, res, logf); err != nil {
		return err
	}
	if err := runCodec(b, res, logf); err != nil {
		return err
	}
	if err := runObsPlane(b, res, logf); err != nil {
		return err
	}
	if err := runSearchFanout(b, res, logf); err != nil {
		return err
	}
	if err := runLint(res, logf); err != nil {
		return err
	}
	if err := runDist(b, res, logf); err != nil {
		return err
	}
	return runCampaign(b, seed, res, logf)
}

// startDistNode hosts one checker node on a loopback listener, exactly
// as `pmtestd serve` does, and returns its dialable address.
func startDistNode() (string, func(), error) {
	node := dist.NewNode(dist.NodeConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: node}
	go srv.Serve(ln)
	shutdown := func() {
		srv.Close()
		node.Close()
	}
	return ln.Addr().String(), shutdown, nil
}

// runDist measures the distributed checking tier over loopback HTTP:
// section throughput and RTT against a healthy node, then the same
// stream with the active node killed mid-run — so the price of a
// failover (re-open, backlog replay, breaker bookkeeping) is gated like
// any other perf number.
func runDist(b Budget, res *Result, logf func(string, ...any)) error {
	if b.DistSections == 0 {
		return nil
	}
	sections, err := harness.RecordMicroSections(b.Stores[0], 256, b.DistSections)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	n := float64(len(sections))
	stream := func(s *dist.Session, secs [][]trace.Op) {
		for _, ops := range secs {
			s.Submit(&trace.Trace{Ops: ops})
		}
	}
	open := func(sid string, m *obs.Metrics, nodes ...string) *dist.Session {
		sess, err := dist.Open(sid, core.Options{}, dist.Options{Nodes: nodes, Metrics: m,
			Backoff: dist.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond}})
		if err != nil {
			panic(err) // Open only fails without nodes
		}
		return sess
	}

	// Healthy: one node absorbs the whole stream.
	addr, shutdown, err := startDistNode()
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	m := obs.NewMetrics(0)
	var elapsed time.Duration
	measure(1, func() {
		sess := open("pmbench-healthy", m, addr)
		start := time.Now()
		stream(sess, sections)
		reports := sess.Close()
		elapsed = time.Since(start)
		if len(reports) != len(sections) {
			panic(fmt.Sprintf("dist healthy: %d reports for %d sections", len(reports), len(sections)))
		}
	})
	shutdown()
	snap := m.Snapshot()
	res.add(Metric{Name: "dist/healthy_sections_per_sec",
		Value: n / elapsed.Seconds(), Unit: "sections/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	res.add(Metric{Name: "dist/healthy_rtt_p50_ns",
		Value: float64(snap.DistRTT.P50), Unit: "ns",
		Better: LowerIsBetter, Tolerance: TolLatency})
	logf("  dist healthy: %.0f sections/s, rtt p50 %v p99 %v",
		n/elapsed.Seconds(), snap.DistRTT.P50, snap.DistRTT.P99)

	// Degraded: two fresh nodes per pass, the active one killed a quarter
	// through, so the warm-up and the timed pass each time one failover.
	cut := len(sections) / 4
	var degElapsed time.Duration
	var dsnap obs.Snapshot
	var degErr error
	measure(1, func() {
		addrA, downA, err := startDistNode()
		if err != nil {
			degErr = err
			return
		}
		defer downA()
		addrB, downB, err := startDistNode()
		if err != nil {
			degErr = err
			return
		}
		defer downB()
		dm := obs.NewMetrics(0)
		sess := open("pmbench-degraded", dm, addrA, addrB)
		start := time.Now()
		stream(sess, sections[:cut])
		sess.Wait()
		if sess.Node() == addrA {
			downA()
		} else {
			downB()
		}
		stream(sess, sections[cut:])
		reports := sess.Close()
		degElapsed = time.Since(start)
		if len(reports) != len(sections) {
			panic(fmt.Sprintf("dist degraded: %d reports for %d sections", len(reports), len(sections)))
		}
		dsnap = dm.Snapshot()
	})
	if degErr != nil {
		return fmt.Errorf("dist: %w", degErr)
	}
	if dsnap.DistFailovers < 1 || dsnap.DistFallbacks != 0 {
		return fmt.Errorf("dist degraded: timed pass recorded %d failovers and %d fallbacks, want at least 1 and 0",
			dsnap.DistFailovers, dsnap.DistFallbacks)
	}
	res.add(Metric{Name: "dist/degraded_sections_per_sec",
		Value: n / degElapsed.Seconds(), Unit: "sections/s",
		Better: HigherIsBetter, Tolerance: TolLatency})
	logf("  dist degraded: %.0f sections/s (%d retries, %d failovers)",
		n/degElapsed.Seconds(), dsnap.DistRetries, dsnap.DistFailovers)
	return nil
}

// runLint measures the interprocedural analyzer over the repo's own
// source tree — the same packages CI lints — so a slowdown in parsing,
// call-graph construction, or the summary fixpoint gates like any other
// perf regression. The tree is a fixed workload independent of the
// budget, so a single wall-time metric with timing tolerance suffices.
func runLint(res *Result, logf func(string, ...any)) error {
	root, err := moduleRoot()
	if err != nil {
		return fmt.Errorf("pmlint_tree: %w", err)
	}
	dirs, err := goDirs(root)
	if err != nil {
		return fmt.Errorf("pmlint_tree: %w", err)
	}
	findings := 0
	s := measure(3, func() {
		findings = 0
		for _, d := range dirs {
			found, err := lint.LintDirOpt(d, false, lint.Options{})
			if err != nil {
				panic(fmt.Sprintf("pmlint_tree: %s: %v", d, err))
			}
			findings += len(found)
		}
	})
	res.add(Metric{Name: "pmlint_tree/ms_per_pass", Value: s.NsPerOp / 1e6, Unit: "ms/pass",
		Better: LowerIsBetter, Tolerance: TolTiming})
	logf("  pmlint_tree: %d dirs, %d findings, %.0f ms/pass", len(dirs), findings, s.NsPerOp/1e6)
	return nil
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod, so the suite lints the same tree no matter which subdirectory
// pmbench runs from.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// goDirs collects every directory under root holding non-test Go files,
// skipping testdata, hidden and underscore-prefixed directories — the
// same set `pmlint ./...` lints.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// runObsPlane measures the observability plane itself: building one
// node's versioned snapshot document from a warmed registry, and one
// pmtop-style fan-out collection over three live local endpoints. Both
// sit on monitoring paths (a scrape per poll interval), so they are
// gated like any other metric — a snapshot build that starts allocating
// per bucket or a collection that serializes node polls shows up here.
func runObsPlane(b Budget, res *Result, logf func(string, ...any)) error {
	m := obs.NewMetrics(64)
	for i := 0; i < 512; i++ {
		m.TraceSubmitted(i, i%4, 16)
		m.TraceDequeued(i, i%2, time.Duration(i)*time.Microsecond)
		m.TraceChecked(obs.TraceEvent{TraceID: i, Thread: i % 4, Worker: i % 2,
			Ops: 16, CheckDur: time.Duration(i) * 100 * time.Nanosecond})
	}
	src := &obs.SnapshotSource{Source: "pmbench", Metrics: m}
	sb := measure(b.CheckIters*10, func() { _ = src.Capture() })
	res.add(Metric{Name: "snapshot_build/ns_per_snapshot", Value: sb.NsPerOp, Unit: "ns/op",
		Better: LowerIsBetter, Tolerance: TolTiming})
	res.add(Metric{Name: "snapshot_build/allocs_per_snapshot", Value: sb.AllocsPerOp, Unit: "allocs/op",
		Better: LowerIsBetter, Tolerance: TolAllocs})

	var servers []*obsserve.Server
	var nodes []string
	for i := 0; i < 3; i++ {
		srv, err := obsserve.Start(obsserve.Config{Addr: "127.0.0.1:0", Metrics: m})
		if err != nil {
			return fmt.Errorf("obs plane: %w", err)
		}
		servers = append(servers, srv)
		nodes = append(nodes, srv.Addr())
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	client := &http.Client{}
	cf := measure(b.CheckIters, func() {
		merged, err := fleet.Collect(context.Background(), nodes,
			fleet.Options{Client: client})
		if err != nil {
			panic(err)
		}
		if merged.Partial {
			panic("obs plane: local collection came back partial")
		}
	})
	res.add(Metric{Name: "collect_fanout/ns_per_collect", Value: cf.NsPerOp, Unit: "ns/op",
		Better: LowerIsBetter, Tolerance: TolLatency})
	logf("  obs: snapshot %.0f ns (%.1f allocs), collect(3 nodes) %.0f ns",
		sb.NsPerOp, sb.AllocsPerOp, cf.NsPerOp)
	return nil
}

// runSearchFanout measures the fleet span-search read path: one merged
// two-node query through fleet.Search over live loopback
// endpoints — HTTP round trips, span JSON decode, and the newest-first
// cross-node merge. This is what every pmtop spans refresh costs, so
// its p50/p99 gate like any other monitoring-path latency.
func runSearchFanout(b Budget, res *Result, logf func(string, ...any)) error {
	if b.CheckIters == 0 {
		return nil
	}
	var servers []*obsserve.Server
	var nodes []string
	for i := 0; i < 2; i++ {
		rec := flight.NewRecorder(1024)
		for j := 0; j < 512; j++ {
			rec.Start(flight.CatRPC, "handle-section", 0).
				SetStr("remote_session_id", fmt.Sprintf("pmtest-%d", j%8)).
				SetInt("seq", int64(j)).
				Finish()
		}
		srv, err := obsserve.Start(obsserve.Config{Addr: "127.0.0.1:0",
			Metrics: obs.NewMetrics(0), Flight: rec})
		if err != nil {
			return fmt.Errorf("search fanout: %w", err)
		}
		servers = append(servers, srv)
		nodes = append(nodes, srv.Addr())
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	client := &http.Client{}
	query := flight.Query{Category: flight.CatRPC, HasCategory: true,
		AttrKey: "remote_session_id", AttrVal: "pmtest-3", Limit: 200}
	var durs []time.Duration
	measure(b.CheckIters*5, func() {
		start := time.Now()
		r, err := fleet.Search(context.Background(), nodes, query,
			fleet.Options{Client: client})
		if err != nil {
			panic(err)
		}
		if r.Partial {
			panic("search fanout: local query came back partial")
		}
		durs = append(durs, time.Since(start))
	})
	slices.Sort(durs)
	p50, p99 := nearestRank(durs, 50), nearestRank(durs, 99)
	res.add(Metric{Name: "search_fanout/p50_ns", Value: float64(p50), Unit: "ns",
		Better: LowerIsBetter, Tolerance: TolLatency})
	res.add(Metric{Name: "search_fanout/p99_ns", Value: float64(p99), Unit: "ns",
		Better: LowerIsBetter, Tolerance: TolLatency})
	logf("  search_fanout: merged query(2 nodes) p50 %v p99 %v", p50, p99)
	return nil
}

// nearestRank returns the p-th percentile (0 < p <= 100) of a non-empty
// ascending slice by nearest rank: the smallest value with at least p
// percent of the values at or below it.
func nearestRank(sorted []time.Duration, p int) time.Duration {
	return sorted[(len(sorted)*p+99)/100-1]
}

// runMicro measures the whisper micro stores end-to-end under full
// PMTest checking: wall-clock insert throughput plus the allocator cost
// of the whole tool stack per insert.
func runMicro(b Budget, res *Result, logf func(string, ...any)) error {
	for _, store := range b.Stores {
		for _, tx := range b.TxSizes {
			var mr harness.MicroResult
			var err error
			s := measure(1, func() {
				mr, err = harness.MicroBench(store, tx, b.Inserts, harness.ToolPMTest, 1)
			})
			if err != nil {
				return fmt.Errorf("micro %s/tx%d: %w", store, tx, err)
			}
			if mr.Fails > 0 {
				return fmt.Errorf("micro %s/tx%d: %d FAILs on a clean workload", store, tx, mr.Fails)
			}
			n := float64(b.Inserts)
			prefix := fmt.Sprintf("micro/%s/tx%d/", store, tx)
			res.add(Metric{Name: prefix + "inserts_per_sec",
				Value: n / mr.Elapsed.Seconds(), Unit: "inserts/s",
				Better: HigherIsBetter, Tolerance: TolTiming})
			res.add(Metric{Name: prefix + "allocs_per_insert",
				Value: s.AllocsPerOp / n, Unit: "allocs/op",
				Better: LowerIsBetter, Tolerance: TolAllocs})
			res.add(Metric{Name: prefix + "b_per_insert",
				Value: s.BytesPerOp / n, Unit: "B/op",
				Better: LowerIsBetter, Tolerance: TolTiming})
			logf("  %s: %.0f inserts/s, %.0f allocs/insert",
				prefix, n/mr.Elapsed.Seconds(), s.AllocsPerOp/n)
		}
	}
	return nil
}

// runCheckAndEngine records one store's sections once, then measures
// (a) the synchronous CheckTrace hot path and (b) the full engine
// Submit→Wait pipeline with the observability registry attached, which
// yields the p50/p99 per-trace check latency.
func runCheckAndEngine(b Budget, res *Result, logf func(string, ...any)) error {
	sections, err := harness.RecordMicroSections(b.Stores[0], 256, b.CheckSections)
	if err != nil {
		return err
	}
	traces := make([]*trace.Trace, len(sections))
	totalOps := 0
	for i, ops := range sections {
		traces[i] = &trace.Trace{Ops: ops}
		totalOps += len(ops)
	}

	s := measure(b.CheckIters, func() {
		for _, tr := range traces {
			core.CheckTrace(core.X86{}, tr)
		}
	})
	n := float64(len(traces))
	res.add(Metric{Name: "check/traces_per_sec",
		Value: n / (s.NsPerOp / 1e9), Unit: "traces/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	res.add(Metric{Name: "check/allocs_per_trace",
		Value: s.AllocsPerOp / n, Unit: "allocs/op",
		Better: LowerIsBetter, Tolerance: TolAllocs})
	res.add(Metric{Name: "check/ns_per_op",
		Value: s.NsPerOp / float64(totalOps), Unit: "ns/op",
		Better: LowerIsBetter, Tolerance: TolTiming})
	logf("  check: %.0f traces/s, %.1f allocs/trace", n/(s.NsPerOp/1e9), s.AllocsPerOp/n)

	m := obs.NewMetrics(0)
	var elapsed time.Duration
	measure(1, func() {
		eng := core.NewEngine(core.Options{Workers: 2, Observer: m})
		start := time.Now()
		for _, tr := range traces {
			eng.Submit(tr)
		}
		eng.Wait()
		elapsed = time.Since(start)
		eng.Close()
	})
	snap := m.Snapshot()
	res.add(Metric{Name: "engine/traces_per_sec",
		Value: n / elapsed.Seconds(), Unit: "traces/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	res.add(Metric{Name: "engine/check_p50_ns",
		Value: float64(snap.CheckDur.P50), Unit: "ns",
		Better: LowerIsBetter, Tolerance: TolLatency})
	res.add(Metric{Name: "engine/check_p99_ns",
		Value: float64(snap.CheckDur.P99), Unit: "ns",
		Better: LowerIsBetter, Tolerance: TolLatency})
	logf("  engine: %.0f traces/s, p50 %v, p99 %v",
		n/elapsed.Seconds(), snap.CheckDur.P50, snap.CheckDur.P99)

	// Same engine pipeline with the flight recorder observing: the
	// compare gate pins the recorder's overhead on the checking path
	// (span pooling should keep it within tolerance of engine/*).
	rec := flight.NewRecorder(256)
	fo := flight.EngineObserver(rec)
	var flElapsed time.Duration
	fl := measure(1, func() {
		eng := core.NewEngine(core.Options{Workers: 2, Observer: fo})
		start := time.Now()
		for _, tr := range traces {
			eng.Submit(tr)
		}
		eng.Wait()
		flElapsed = time.Since(start)
		eng.Close()
	})
	res.add(Metric{Name: "flight_on/traces_per_sec",
		Value: n / flElapsed.Seconds(), Unit: "traces/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	res.add(Metric{Name: "flight_on/allocs_per_trace",
		Value: fl.AllocsPerOp / n, Unit: "allocs/op",
		Better: LowerIsBetter, Tolerance: TolAllocs})
	logf("  flight_on: %.0f traces/s, %.1f allocs/trace",
		n/flElapsed.Seconds(), fl.AllocsPerOp/n)
	return nil
}

// runCodec measures trace wire encode and decode on a representative
// recorded section.
func runCodec(b Budget, res *Result, logf func(string, ...any)) error {
	sections, err := harness.RecordMicroSections(b.Stores[0], 256, 8)
	if err != nil {
		return err
	}
	tr := &trace.Trace{Ops: sections[len(sections)-1]}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		return err
	}
	wire := buf.Bytes()

	iters := b.CheckIters * 50
	enc := measure(iters, func() {
		if err := trace.Encode(io.Discard, tr); err != nil {
			panic(err)
		}
	})
	res.add(Metric{Name: "encode/ns_per_trace", Value: enc.NsPerOp, Unit: "ns/op",
		Better: LowerIsBetter, Tolerance: TolTiming})
	res.add(Metric{Name: "encode/allocs_per_trace", Value: enc.AllocsPerOp, Unit: "allocs/op",
		Better: LowerIsBetter, Tolerance: TolAllocs})

	dec := measure(iters, func() {
		if _, err := trace.Decode(bytes.NewReader(wire)); err != nil {
			panic(err)
		}
	})
	res.add(Metric{Name: "decode/ns_per_trace", Value: dec.NsPerOp, Unit: "ns/op",
		Better: LowerIsBetter, Tolerance: TolTiming})
	logf("  codec: encode %.0f ns (%.1f allocs), decode %.0f ns",
		enc.NsPerOp, enc.AllocsPerOp, dec.NsPerOp)
	return nil
}

// runCampaign runs a bounded crashmc fault-injection campaign — the
// heaviest consumer of the checking engine — and reports schedule and
// crash-state throughput.
func runCampaign(b Budget, seed int64, res *Result, logf func(string, ...any)) error {
	cfg := faultinject.Defaults()
	cfg.Seed = seed
	cfg.Budget = b.CampaignBudget
	cfg.Ops = b.CampaignOps
	targets := faultinject.Targets()
	if len(targets) > b.CampaignTargets {
		targets = targets[:b.CampaignTargets]
	}
	var cr *faultinject.Result
	var err error
	s := measure(1, func() {
		cr, err = faultinject.Run(cfg, targets)
	})
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	sec := s.Elapsed.Seconds()
	res.add(Metric{Name: "crashmc/schedules_per_sec",
		Value: float64(cr.SchedulesRun) / sec, Unit: "schedules/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	res.add(Metric{Name: "crashmc/states_per_sec",
		Value: float64(cr.StatesExplored) / sec, Unit: "states/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	logf("  crashmc: %d schedules, %d states in %v", cr.SchedulesRun, cr.StatesExplored, s.Elapsed)
	return nil
}
