package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain implements `bench compare A/*.json -- B/*.json`: for every
// workload × metric it prints each side's median and quartiles and
// judges B against A (the parent) by the metric's bound:
//
//   - unresolved: either side's quartile spread is wider than the bound,
//     unless every B run reads better than every A run;
//   - REGRESSION: B's median is worse than A's by more than the bound;
//   - gain: B wins at least 9 in 10 of the pairs (A[i], B[i]), ties
//     counting for neither, and the medians differ by more than A's
//     quartile spread;
//   - within bound: anything else.
//
// Per-layer metrics have no bound and are only listed. It exits 1 on a
// regression or when a B run failed its oracle.
func compareMain(args []string, w io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json... -- B.json...")
		return 2
	}
	a, err := loadDocs(args[:sep])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadDocs(args[sep+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if hw := distinctHardware(append(append([]resultDoc(nil), a...), b...)); len(hw) > 1 {
		fmt.Fprintf(w, "WARNING: runs come from different hardware: %v\n", hw)
	}
	bad := false
	for _, wl := range workloadNames(a, b) {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			av, bv := values(a, wl, d.Name), values(b, wl, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict := judge(d, av, bv)
			if verdict == "REGRESSION" {
				bad = true
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			fmt.Fprintf(w, "%-15s %-30s A %12.4g [%.4g, %.4g]  B %12.4g [%.4g, %.4g] %-9s %+7.1f%%  %s\n",
				wl, d.Name, am, a1, a3, bm, b1, b3, d.Unit, 100*(bm-am)/math.Abs(am), verdict)
		}
		for _, doc := range b {
			if r := doc.Workloads[wl]; r != nil && r.Failed > 0 {
				fmt.Fprintf(w, "%-15s B run with seed %d failed %d of %d sections\n", wl, doc.Seed, r.Failed, r.Attempted)
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// judge applies the bound and the pair rule to one metric.
func judge(d metricDef, a, b []float64) string {
	if d.Bound == 0 {
		return "(no bound)"
	}
	// better(x, y): x reads better than y.
	better := func(x, y float64) bool {
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	a1, am, a3 := quartiles(a)
	_, bm, _ := quartiles(b)
	if spread(a) > d.Bound || spread(b) > d.Bound {
		minB, maxB := minMax(b)
		minA, maxA := minMax(a)
		if (d.Better == "higher" && minB > maxA) || (d.Better == "lower" && maxB < minA) {
			return "better in every run"
		}
		return "unresolved"
	}
	worse := (bm - am) / math.Abs(am)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "REGRESSION"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if better(bm, am) && 10*wins >= 9*pairs && math.Abs(bm-am) > a3-a1 {
		return "gain"
	}
	return "within bound"
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func loadDocs(paths []string) ([]resultDoc, error) {
	var docs []resultDoc
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d resultDoc
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// values collects one metric of one workload across runs, in file order.
func values(docs []resultDoc, wl, name string) []float64 {
	var out []float64
	for _, d := range docs {
		if r := d.Workloads[wl]; r != nil {
			if v, ok := r.Metrics[name]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

func workloadNames(sets ...[]resultDoc) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range workloads {
		for _, docs := range sets {
			for _, d := range docs {
				if d.Workloads[w.name] != nil && !seen[w.name] {
					seen[w.name] = true
					out = append(out, w.name)
				}
			}
		}
	}
	return out
}

func distinctHardware(docs []resultDoc) []hardware {
	var out []hardware
	for _, d := range docs {
		found := false
		for _, h := range out {
			found = found || h == d.Hardware
		}
		if !found {
			out = append(out, d.Hardware)
		}
	}
	return out
}
