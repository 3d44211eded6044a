// Command repro regenerates the paper's evaluation tables and figures
// (PMTest, ASPLOS 2019, §6). Each flag reproduces one artifact; -all runs
// everything. Absolute numbers differ from the paper (software PM
// simulator vs NVDIMM testbed); the shapes are the reproduction target —
// see EXPERIMENTS.md.
//
// Usage:
//
//	go run ./cmd/repro -all
//	go run ./cmd/repro -fig10a -n 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"pmtest/internal/bugdb"
	"pmtest/internal/flight"
	"pmtest/internal/harness"
	"pmtest/internal/obs"
	"pmtest/internal/obsserve"
)

var (
	flagAll    = flag.Bool("all", false, "run every experiment")
	fig10a     = flag.Bool("fig10a", false, "Fig. 10a: PMTest vs Pmemcheck slowdown across transaction sizes")
	fig10b     = flag.Bool("fig10b", false, "Fig. 10b: PMTest overhead breakdown (framework vs checkers)")
	fig11      = flag.Bool("fig11", false, "Fig. 11: real-workload slowdown under PMTest")
	fig12      = flag.Bool("fig12", false, "Fig. 12: scalability with Memcached threads and PMTest workers")
	table4     = flag.Bool("table4", false, "Table 4: real workloads and clients")
	table5     = flag.Bool("table5", false, "Table 5: synthetic bug detection sweep")
	table6     = flag.Bool("table6", false, "Table 6: known and new real-world bugs")
	flagYat    = flag.Bool("yat", false, "Yat state-space estimate (§2.2 motivation)")
	flagHost   = flag.Bool("host", false, "print host configuration (Table 3 analog)")
	flagN      = flag.Int("n", 10000, "insertions per microbenchmark point (paper: 100k)")
	flagNReal  = flag.Int("nreal", 20000, "operations per real workload")
	flagSizes  = flag.String("sizes", "64,128,256,512,1024,2048,4096", "transaction sizes for Fig. 10")
	flagStores = flag.String("stores", "", "comma-separated store subset (default: all five)")
	flagCSV    = flag.String("csv", "", "path prefix for machine-readable CSV output (writes <prefix>-fig10a.csv and <prefix>-fig11.csv)")
	flagStats  = flag.Bool("stats", false, "print an observability snapshot (throughput, check-latency quantiles, diag histogram) after the run")
	flagObs    = flag.String("obs-listen", "", "serve the live observability endpoint (Prometheus text + JSON at /, versioned snapshot at /obs/v1/snapshot, span browse at /flight) at this address, e.g. :8081")
	flagPProf  = flag.Bool("pprof", false, "additionally mount net/http/pprof under /debug/pprof/ on the -obs-listen address")
	flagFlight = flag.String("flight-out", "", "write the run's span timeline as Chrome trace-event JSON (Perfetto-loadable; browse with 'pmtrace timeline') to this file")
	logOpts    obs.LogOptions
)

func init() { logOpts.RegisterFlags(flag.CommandLine) }

// csvOut opens a CSV file for one figure when -csv is set; the returned
// emit function is a no-op otherwise.
func csvOut(figure, header string) (emit func(format string, args ...any), done func()) {
	if *flagCSV == "" {
		return func(string, ...any) {}, func() {}
	}
	f, err := os.Create(*flagCSV + "-" + figure + ".csv")
	if err != nil {
		die(err)
	}
	fmt.Fprintln(f, header)
	return func(format string, args ...any) {
			fmt.Fprintf(f, format+"\n", args...)
		}, func() {
			f.Close()
			fmt.Printf("(csv written to %s-%s.csv)\n", *flagCSV, figure)
		}
}

func main() {
	flag.Parse()
	any := false
	for _, f := range []*bool{fig10a, fig10b, fig11, fig12, table4, table5, table6, flagYat, flagHost} {
		if *f {
			any = true
		}
	}
	if *flagAll || !any {
		*fig10a, *fig10b, *fig11, *fig12 = true, true, true, true
		*table4, *table5, *table6, *flagYat, *flagHost = true, true, true, true, true
	}
	logger, err := logOpts.Logger(os.Stderr)
	die(err)
	harness.LogWith(logger)
	// The bug catalog checks sections synchronously (no engine), so it has
	// its own observer seam; point it at the same registry and recorder so
	// the Table 5/6 sweeps count their traces and produce checker spans.
	var metrics *obs.Metrics
	if *flagStats || *flagObs != "" {
		metrics = obs.NewMetrics(256)
		harness.ObserveWith(metrics)
	}
	var rec *flight.Recorder
	if *flagFlight != "" || *flagObs != "" {
		rec = flight.NewRecorder(1024)
		harness.FlightWith(rec)
	}
	bugdb.ObserveChecks(obs.Multi(metrics, flight.EngineObserver(rec)))
	var srv *obsserve.Server
	if *flagObs != "" {
		srv, err = obsserve.Start(obsserve.Config{
			Addr: *flagObs, Source: "repro", Metrics: metrics,
			Flight: rec, PProf: *flagPProf, Logger: logger,
		})
		die(err)
		fmt.Printf("observability endpoint on http://%s/ (versioned snapshot at /obs/v1/snapshot; span browse at /flight)\n", srv.Addr())
	}
	if *flagHost {
		printHost()
	}
	if *table4 {
		printTable4()
	}
	if *fig10a {
		runFig10a()
	}
	if *fig10b {
		runFig10b()
	}
	if *fig11 {
		runFig11()
	}
	if *fig12 {
		runFig12()
	}
	if *table5 {
		runTable5()
	}
	if *table6 {
		runTable6()
	}
	if *flagYat {
		runYat()
	}
	if *flagStats {
		fmt.Print(metrics.Snapshot().Format())
	}
	if *flagFlight != "" {
		f, err := os.Create(*flagFlight)
		die(err)
		if err := flight.WriteChrome(f, rec); err != nil {
			f.Close()
			die(err)
		}
		die(f.Close())
		fmt.Printf("(flight timeline written to %s — load in Perfetto or run 'pmtrace timeline %s')\n",
			*flagFlight, *flagFlight)
	}
	// The run is over: shut the endpoint down cleanly rather than letting
	// process exit tear down the listener mid-request. Nil-safe.
	srv.Close()
}

func tab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func printHost() {
	fmt.Println("== Host configuration (Table 3 analog) ==")
	w := tab()
	fmt.Fprintf(w, "Go\t%s\n", runtime.Version())
	fmt.Fprintf(w, "OS/Arch\t%s/%s\n", runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "CPUs\t%d\n", runtime.NumCPU())
	fmt.Fprintf(w, "PM\tsimulated device (internal/pmem), %d-byte cache lines\n", 64)
	w.Flush()
	fmt.Println()
}

func printTable4() {
	fmt.Println("== Table 4: real workloads ==")
	w := tab()
	fmt.Fprintln(w, "Workload\tLibrary\tClient")
	fmt.Fprintln(w, "Memcached\tMnemosyne\tMemslap (5% set), YCSB (50% update, zipfian)")
	fmt.Fprintln(w, "Redis\tPMDK\tredis-cli LRU test")
	fmt.Fprintln(w, "PMFS\tlow-level primitives\tFilebench, OLTP-complex")
	w.Flush()
	fmt.Println()
}

func parseSizes() []uint64 {
	var sizes []uint64
	var v uint64
	s := *flagSizes
	for len(s) > 0 {
		v = 0
		i := 0
		for i < len(s) && s[i] != ',' {
			v = v*10 + uint64(s[i]-'0')
			i++
		}
		sizes = append(sizes, v)
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return sizes
}

func selectedStores() []string {
	if *flagStores == "" {
		return harness.MicroStores
	}
	var out []string
	s := *flagStores
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func runFig10a() {
	fmt.Printf("== Fig. 10a: slowdown vs transaction size (%d insertions/point) ==\n", *flagN)
	fmt.Println("   (paper: PMTest 5.2–8.9x faster than Pmemcheck, 7.1x average;")
	fmt.Println("    PMTest overhead decreases as transaction size grows)")
	w := tab()
	emit, done := csvOut("fig10a", "store,txsize,native_ns,pmtest_ns,pmemcheck_ns,pmtest_x,pmemcheck_x")
	fmt.Fprintln(w, "store\ttxsize\tnative\tPMTest\tPmemcheck\tPMTest x\tPmemcheck x\tratio")
	sumRatio, points := 0.0, 0
	for _, store := range selectedStores() {
		for _, size := range parseSizes() {
			base, err := harness.MicroBench(store, size, *flagN, harness.ToolNone, 1)
			die(err)
			pm, err := harness.MicroBench(store, size, *flagN, harness.ToolPMTest, 1)
			die(err)
			pc, err := harness.MicroBench(store, size, *flagN, harness.ToolPmemcheck, 1)
			die(err)
			ratio := float64(pc.Elapsed) / float64(pm.Elapsed)
			sumRatio += ratio
			points++
			fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%.2f\t%.2f\t%.1fx\n",
				harness.StoreDisplayName(store), size,
				base.Elapsed.Round(10_000), pm.Elapsed.Round(10_000), pc.Elapsed.Round(10_000),
				harness.Slowdown(pm, base), harness.Slowdown(pc, base), ratio)
			emit("%s,%d,%d,%d,%d,%.3f,%.3f", store, size,
				base.Elapsed.Nanoseconds(), pm.Elapsed.Nanoseconds(), pc.Elapsed.Nanoseconds(),
				harness.Slowdown(pm, base), harness.Slowdown(pc, base))
		}
	}
	w.Flush()
	done()
	fmt.Printf("average PMTest-vs-Pmemcheck speedup: %.1fx (paper: 7.1x)\n\n", sumRatio/float64(points))
}

func runFig10b() {
	fmt.Printf("== Fig. 10b: PMTest overhead breakdown (%d insertions/point) ==\n", *flagN)
	fmt.Println("   (paper: checking contributes 18.9%–37.8% of total overhead)")
	w := tab()
	fmt.Fprintln(w, "store\ttxsize\tframework x\tchecker x\tchecker share")
	for _, store := range selectedStores() {
		for _, size := range []uint64{64, 512, 4096} {
			base, err := harness.MicroBench(store, size, *flagN, harness.ToolNone, 1)
			die(err)
			track, err := harness.MicroBench(store, size, *flagN, harness.ToolPMTestTrack, 1)
			die(err)
			full, err := harness.MicroBench(store, size, *flagN, harness.ToolPMTest, 1)
			die(err)
			fw := harness.Slowdown(track, base) - 1
			ck := harness.Slowdown(full, base) - harness.Slowdown(track, base)
			if ck < 0 {
				ck = 0
			}
			share := 0.0
			if fw+ck > 0 {
				share = ck / (fw + ck) * 100
			}
			fmt.Fprintf(w, "%s\t%d\t+%.2f\t+%.2f\t%.1f%%\n",
				harness.StoreDisplayName(store), size, fw, ck, share)
		}
	}
	w.Flush()
	fmt.Println()
}

func runFig11() {
	fmt.Printf("== Fig. 11: real workloads (%d ops each) ==\n", *flagNReal)
	fmt.Println("   (paper: 1.33–1.98x slowdown, 1.69x average; Pmemcheck 22.3x on Redis)")
	w := tab()
	emit, done := csvOut("fig11", "workload,native_ns,pmtest_ns,slowdown")
	fmt.Fprintln(w, "workload\tnative\tPMTest\tslowdown")
	sum, n := 0.0, 0
	for _, wl := range harness.RealWorkloads {
		base, err := harness.RealBench(wl, *flagNReal, harness.ToolNone)
		die(err)
		pm, err := harness.RealBench(wl, *flagNReal, harness.ToolPMTest)
		die(err)
		sd := float64(pm.Elapsed) / float64(base.Elapsed)
		sum += sd
		n++
		fmt.Fprintf(w, "%s\t%v\t%v\t%.2fx\n", wl,
			base.Elapsed.Round(10_000), pm.Elapsed.Round(10_000), sd)
		emit("%s,%d,%d,%.3f", wl, base.Elapsed.Nanoseconds(), pm.Elapsed.Nanoseconds(), sd)
	}
	w.Flush()
	done()
	// The paper also measures Pmemcheck on Redis for contrast.
	base, err := harness.RealBench("redis+lru", *flagNReal, harness.ToolNone)
	die(err)
	pc, err := harness.RealBench("redis+lru", *flagNReal, harness.ToolPmemcheck)
	die(err)
	fmt.Printf("average PMTest slowdown: %.2fx (paper: 1.69x)\n", sum/float64(n))
	fmt.Printf("Pmemcheck on redis+lru: %.1fx (paper: 22.3x)\n\n",
		float64(pc.Elapsed)/float64(base.Elapsed))
}

func runFig12() {
	ops := *flagNReal / 2
	fmt.Printf("== Fig. 12: Memcached scalability (%d ops/client) ==\n", ops)
	fmt.Println("   (paper: slowdown grows with threads at 1 worker, shrinks with more")
	fmt.Println("    workers, and stays roughly flat scaling both together)")
	for _, client := range []string{"memslap", "ycsb"} {
		w := tab()
		fmt.Fprintf(w, "client=%s\tthreads\tworkers\tslowdown\n", client)
		// Fig. 12a: threads scale, single worker.
		for _, th := range []int{1, 2, 4} {
			r, err := harness.ScaleBench(client, th, 1, ops)
			die(err)
			fmt.Fprintf(w, "12a\t%d\t1\t%.2fx\n", th, r.Slowdown)
		}
		// Fig. 12b: workers scale, four threads.
		for _, wk := range []int{1, 2, 4} {
			r, err := harness.ScaleBench(client, 4, wk, ops)
			die(err)
			fmt.Fprintf(w, "12b\t4\t%d\t%.2fx\n", wk, r.Slowdown)
		}
		// Fig. 12c: both scale together.
		for _, k := range []int{1, 2, 4} {
			r, err := harness.ScaleBench(client, k, k, ops)
			die(err)
			fmt.Fprintf(w, "12c\t%d\t%d\t%.2fx\n", k, k, r.Slowdown)
		}
		w.Flush()
		fmt.Println()
	}
}

func runTable5() {
	fmt.Println("== Table 5: synthetic bug sweep ==")
	bugs := bugdb.ByOrigin(bugdb.Catalog(), bugdb.OriginSynthetic)
	w := tab()
	fmt.Fprintln(w, "category\tcases\tdetected")
	cats := []bugdb.Category{
		bugdb.CatOrdering, bugdb.CatWriteback, bugdb.CatPerfWriteback,
		bugdb.CatBackup, bugdb.CatCompletion, bugdb.CatPerfLog,
	}
	total, detected := 0, 0
	for _, cat := range cats {
		cases := bugdb.ByCategory(bugs, cat)
		det := 0
		for _, b := range cases {
			reports, err := b.Execute()
			die(err)
			if b.Detected(reports) {
				det++
			}
		}
		total += len(cases)
		detected += det
		fmt.Fprintf(w, "%s\t%d\t%d\n", cat, len(cases), det)
	}
	w.Flush()
	fmt.Printf("total: %d/%d synthetic bugs detected (paper: all of 42)\n\n", detected, total)
}

func runTable6() {
	fmt.Println("== Table 6: known and new real-world bugs ==")
	w := tab()
	fmt.Fprintln(w, "origin\tbug\tpaper ref\tdetected as\tresult")
	for _, origin := range []bugdb.Origin{bugdb.OriginKnown, bugdb.OriginNew} {
		for _, b := range bugdb.ByOrigin(bugdb.Catalog(), origin) {
			reports, err := b.Execute()
			die(err)
			verdict := "MISSED"
			if b.Detected(reports) {
				verdict = "detected"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", origin, b.ID, b.PaperRef, b.Expect, verdict)
		}
	}
	w.Flush()
	fmt.Println()
}

func runYat() {
	fmt.Println("== Yat state-space estimate (§2.2 motivation) ==")
	fmt.Println("   (paper: >5 years for a PMFS trace of ~100k PM operations)")
	w := tab()
	fmt.Fprintln(w, "trace\tops\tcrash states\tat 1M states/s")
	// Fence-dense library traces: transactional protocols fence every few
	// writes, so each crash point has a small window.
	for _, n := range []int{10, 100, 1000} {
		est, err := harness.EstimateYat("ctree", n, 128)
		die(err)
		years := est.StateSpace / 1e6 / (3600 * 24 * 365)
		fmt.Fprintf(w, "C-Tree (%d tx, fence-dense)\t%d\t%.3g\t%.3g years\n",
			est.Inserts, est.TraceOps, est.StateSpace, years)
	}
	// Fence-sparse traces are where exhaustive testing explodes: PMFS-style
	// code batches many line writes between fences (the paper's >5 years).
	for _, window := range []int{16, 32, 48} {
		space, ops := harness.SparseFenceStateSpace(100_000, window)
		years := space / 1e6 / (3600 * 24 * 365)
		fmt.Fprintf(w, "synthetic (fence every %d writes)\t%d\t%.3g\t%.3g years\n",
			window, ops, space, years)
	}
	w.Flush()
	fmt.Println()
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}
