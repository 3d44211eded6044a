// Command crashmc runs a fault-injection campaign with crash-recovery
// ground truth: it perturbs the primitive stream of each workload
// (dropped writebacks, dropped/weakened fences, torn stores, delayed
// writebacks, spurious evictions), checks that the engine flags every
// bug-class fault, hunts the reachable crash states for one whose
// recovery fails, and delta-debugs each confirmed finding to a minimal
// reproducer. Everything is reproducible from -seed.
//
// Usage:
//
//	go run ./cmd/crashmc                          # full suite, defaults
//	go run ./cmd/crashmc -seed 7 -budget 16       # wider exploration
//	go run ./cmd/crashmc -workload echo,pmfs      # subset of targets
//	go run ./cmd/crashmc -classes drop-flush      # one fault class
//	go run ./cmd/crashmc -static-rank internal/pmfs,internal/whisper
//	                                              # pmlint findings order the classes
//	go run ./cmd/crashmc -json                    # machine-readable result
//	go run ./cmd/crashmc -strict                  # exit 1 on soundness violations
//	go run ./cmd/crashmc -obs-listen :8081        # live observability endpoint (pmtop-pollable)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"pmtest/internal/faultinject"
	"pmtest/internal/flight"
	"pmtest/internal/lint"
	"pmtest/internal/obs"
	"pmtest/internal/obsserve"
)

var (
	flagSeed       = flag.Int64("seed", 1, "campaign seed; same seed, same results, bit for bit")
	flagBudget     = flag.Int("budget", 8, "max schedules per (workload, fault class); site counts at or below it are explored exhaustively")
	flagOps        = flag.Int("ops", 3, "workload operations per schedule")
	flagWorkload   = flag.String("workload", "", "comma-separated workloads (default: all; see -list)")
	flagClasses    = flag.String("classes", "", "comma-separated fault classes (default: all)")
	flagRank       = flag.String("static-rank", "", "comma-separated package dirs to lint; pmlint's findings rank the fault classes so statically suspicious ones spend the budget first")
	flagStateLimit = flag.Int("state-limit", 64, "exhaustively enumerate crash states when 2^dirty fits this limit")
	flagSamples    = flag.Int("samples", 12, "sampled crash states per fault beyond the enumeration limit")
	flagTear       = flag.Bool("tear", true, "let sampled crash states tear lines at 8-byte granularity")
	flagDeadline   = flag.Duration("deadline", 0, "campaign deadline (0 = none); on expiry partial results are reported")
	flagJSON       = flag.Bool("json", false, "emit the full result as JSON")
	flagStrict     = flag.Bool("strict", false, "exit non-zero on soundness violations")
	flagList       = flag.Bool("list", false, "list workloads and fault classes, then exit")
	flagFlight     = flag.String("flight-out", "", "write the campaign's span timeline (one span per schedule) as Chrome trace-event JSON to this file")
	flagObs        = flag.String("obs-listen", "", "serve the live observability endpoint (versioned snapshot at /obs/v1/snapshot, span browse at /flight) at this address, e.g. :8081")
	flagPProf      = flag.Bool("pprof", false, "additionally mount net/http/pprof under /debug/pprof/ on the -obs-listen address")
	flagV          = flag.Bool("v", false, "print every schedule outcome")
	logOpts        obs.LogOptions
)

func init() { logOpts.RegisterFlags(flag.CommandLine) }

func main() {
	flag.Parse()
	if *flagList {
		fmt.Println("workloads: ", strings.Join(faultinject.TargetNames(), ", "))
		var classes []string
		for _, c := range faultinject.AllClasses() {
			classes = append(classes, c.String())
		}
		fmt.Println("classes:   ", strings.Join(classes, ", "))
		return
	}

	targets, err := pickTargets(*flagWorkload)
	if err != nil {
		fatal(err)
	}
	classes, err := pickClasses(*flagClasses)
	if err != nil {
		fatal(err)
	}
	rank, err := staticRank(*flagRank)
	if err != nil {
		fatal(err)
	}

	logger, err := logOpts.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	metrics := obs.NewMetrics(1)
	var rec *flight.Recorder
	if *flagFlight != "" || *flagObs != "" {
		rec = flight.NewRecorder(4096)
	}
	var srv *obsserve.Server
	if *flagObs != "" {
		srv, err = obsserve.Start(obsserve.Config{
			Addr: *flagObs, Source: "crashmc", Metrics: metrics,
			Flight: rec, PProf: *flagPProf, Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability endpoint on http://%s/\n", srv.Addr())
	}
	cfg := faultinject.Config{
		Seed: *flagSeed, Budget: *flagBudget, Ops: *flagOps,
		StateLimit: *flagStateLimit, Samples: *flagSamples,
		TearLines: *flagTear, Deadline: *flagDeadline,
		Classes: classes, Rank: rank, Metrics: metrics, Flight: rec,
		Logger: logger,
	}
	start := time.Now()
	res, err := faultinject.Run(cfg, targets)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if *flagFlight != "" {
		if err := writeFlight(*flagFlight, rec); err != nil {
			fatal(err)
		}
	}

	if *flagJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	} else {
		printHuman(res, elapsed)
	}

	if bad := res.Soundness(); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "\nsoundness violations:\n")
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "  %s\n", b)
		}
		if *flagStrict {
			os.Exit(1)
		}
	}
}

func pickTargets(spec string) ([]faultinject.Target, error) {
	if spec == "" {
		return faultinject.Targets(), nil
	}
	var out []faultinject.Target
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		tgt, ok := faultinject.TargetByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %s)",
				name, strings.Join(faultinject.TargetNames(), ", "))
		}
		out = append(out, tgt)
	}
	return out, nil
}

// staticRank lints the given package dirs with the interprocedural
// analyzer and folds the per-rule finding counts into a class rank.
func staticRank(spec string) (*faultinject.StaticRank, error) {
	if spec == "" {
		return nil, nil
	}
	byRule := map[string]int{}
	total := 0
	for _, dir := range strings.Split(spec, ",") {
		dir = strings.TrimSpace(dir)
		census, err := lint.Census(dir, false)
		if err != nil {
			return nil, fmt.Errorf("static-rank %s: %w", dir, err)
		}
		for rule, n := range census.ByRule {
			byRule[rule] += n
			total += n
		}
	}
	fmt.Fprintf(os.Stderr, "static rank: %d findings across %s\n", total, spec)
	return faultinject.RankFromFindings(byRule), nil
}

func pickClasses(spec string) ([]faultinject.Class, error) {
	if spec == "" {
		return nil, nil
	}
	var out []faultinject.Class
	for _, name := range strings.Split(spec, ",") {
		c, err := faultinject.ParseClass(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func printHuman(res *faultinject.Result, elapsed time.Duration) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tclass\tschedules\tinjected\tflagged\tdemonstrated")
	for _, tr := range res.Targets {
		if tr.Err != "" {
			fmt.Fprintf(w, "%s\t(error: %s)\n", tr.Workload, tr.Err)
			continue
		}
		for _, s := range tr.Summaries {
			mark := ""
			if !s.Bug {
				mark = " (legal)"
			}
			fmt.Fprintf(w, "%s\t%s%s\t%d\t%d\t%d\t%d\n",
				tr.Workload, s.Class, mark, s.Schedules, s.Injected, s.Flagged, s.Demonstrated)
		}
	}
	w.Flush()

	if *flagV {
		fmt.Println()
		for _, tr := range res.Targets {
			for _, o := range tr.Outcomes {
				fmt.Printf("  %s/%s@%d: injected=%v flagged=%v demonstrated=%v states=%d/%d codes=%v\n",
					tr.Workload, o.Class, o.Site, o.Injected, o.Flagged, o.Demonstrated,
					o.StatesExplored, o.StatesPossible, o.Codes)
			}
		}
	}

	fmt.Printf("\n%d/%d schedules, %d faults injected, %d crash states explored (of %d reachable), %d recovery failures, discovery AUC %.3f, %v\n",
		res.SchedulesRun, res.SchedulesPlanned, res.FaultsInjected,
		res.StatesExplored, res.StatesPossible, res.RecoveryFailures,
		res.DiscoveryAUC, elapsed.Round(time.Millisecond))
	if res.DeadlineExpired {
		fmt.Println("DEADLINE EXPIRED — results above are partial")
	}
	if len(res.Repros) > 0 {
		fmt.Printf("\n%d minimized reproducers:\n", len(res.Repros))
		for _, r := range res.Repros {
			fmt.Printf("  %s\n", r)
		}
	}
}

func writeFlight(path string, rec *flight.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := flight.WriteChrome(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crashmc:", err)
	os.Exit(1)
}
