// Command bench is PMTest's end-to-end benchmark: the slowdown,
// throughput and tail latency a PM program sees under PMTest, on four
// workloads that each stress a different layer, plus a traced run that
// charges the cost to each layer. See README.md.
//
//	bash bench/run.sh --seed 1                        # all workloads
//	bash bench/run.sh --workload micro_ctree --seed 3 --trace 0
//	bash bench/run.sh --seed 1 --trace 1 --spans spans.json
//	bash bench/run.sh compare A/*.json -- B/*.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// hardware identifies the machine a result was measured on.
type hardware struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func currentHardware() hardware {
	return hardware{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultDoc is the file -o writes and `compare` reads: one run.
type resultDoc struct {
	Seed      int64                      `json:"seed"`
	Trace     bool                       `json:"trace"`
	Hardware  hardware                   `json:"hardware"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workloadName := fs.String("workload", "", "run one workload (default: all)")
	seed := fs.Int64("seed", 1, "seed of every input generator")
	// Benchmark harnesses pass a time budget; the run length is set by the
	// fixed round counts instead, so the flag is accepted and not used.
	fs.Int("seconds", 0, "ignored: every workload runs a fixed number of rounds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write spans as Chrome trace-event JSON here")
	out := fs.String("o", "", "write the run's result document (for compare) here")
	fs.Parse(os.Args[1:])
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	opts := options{seed: *seed, traced: *traceFlag == 1}

	run := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		run = []workload{w}
	}

	doc := resultDoc{Seed: opts.seed, Trace: opts.traced,
		Hardware: currentHardware(), Workloads: map[string]*workloadResult{}}
	hw := doc.Hardware
	fmt.Printf("# seed=%d trace=%v cpu=%q num_cpu=%d gomaxprocs=%d go=%s\n",
		opts.seed, opts.traced, hw.CPUModel, hw.NumCPU, hw.GOMAXPROCS, hw.GoVersion)
	sum := summaryLine{Correct: true, Metrics: map[string]summaryItem{}}
	var events []chromeEvent
	for pid, w := range run {
		fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.name)
		res, ev, err := runWorkload(w, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for i := range ev {
			ev[i].Pid = pid
		}
		events = append(events, ev...)
		doc.Workloads[w.name] = res
		printWorkload(w.name, res)
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for name, v := range res.Metrics {
			key := name
			if len(run) > 1 {
				key = w.name + "/" + name
			}
			sum.Metrics[key] = summaryItem{Value: v.Value, Unit: v.Unit}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *spans != "" && opts.traced {
		if err := writeChrome(*spans, events); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(sum)
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// printWorkload prints every metric by name and unit with its samples.
func printWorkload(name string, res *workloadResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return order(names[i]) < order(names[j]) })
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%s: %d sections checked, failed_share=%g\n", name, res.Attempted, share)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("  %-32s %16.4f %-10s n=%d\n", n, v.Value, v.Unit, v.Samples)
	}
}

// order ranks a metric by its position in the declaration lists.
func order(name string) int {
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return i
		}
	}
	return -1
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}
