package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"pmtest/internal/trace"
)

// options are the run's command-line settings.
type options struct {
	seed   int64
	traced bool
}

// setupReps is how many times a run sets up, reporting the median.
const setupReps = 3

// tracedGroups is the number of measured quads in a traced run: two, so
// the order alternates once (ABBA).
const tracedGroups = 2

// metricValue is one reported number with its sample count.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// workloadResult is one workload's outcome in a run.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload sets the workload up, discards a warm-up pair, then runs a
// fixed number of groups and computes its metrics: end-to-end ones from
// w.rounds native/PMTest pairs (w.natives native rounds each), or,
// traced, per-layer ones from tracedGroups native/track-only/traced/PMTest
// quads. Each group's order is reversed on every other group.
func runWorkload(w workload, opts options) (*workloadResult, []chromeEvent, error) {
	reps := setupReps
	if opts.traced {
		reps = 1
	}
	var f *fixture
	var setups []float64
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = setup(w, opts.seed); err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()

	for _, k := range []roundKind{native, full} {
		if _, err := f.runRound(k); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}

	group, groups := []roundKind{full}, w.rounds
	for i := 0; i < max(w.natives, 1); i++ {
		group = append([]roundKind{native}, group...)
	}
	if opts.traced {
		group, groups = []roundKind{native, trackOnly, traced, full}, tracedGroups
	}
	res := &workloadResult{Correct: true, Metrics: map[string]metricValue{}}
	byKind := map[roundKind][]*roundResult{}
	for g := 0; g < groups; g++ {
		order := append([]roundKind(nil), group...)
		if g%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, k := range order {
			r, err := f.runRound(k)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if r.verifyErr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %s round: %v\n", w.name, k, r.verifyErr)
				res.Correct = false
			}
			res.Attempted += r.sections
			res.Failed += r.failed
			byKind[k] = append(byKind[k], r)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	var events []chromeEvent
	if opts.traced {
		if err := f.layerMetrics(res.Metrics, byKind); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		trs := byKind[traced]
		events = trs[len(trs)-1].tr.chrome(w.name, f.node == nil)
	} else {
		f.endToEndMetrics(res.Metrics, setups, byKind[native], byKind[full])
	}
	return res, events, nil
}

func put(m map[string]metricValue, name string, v float64, samples int) {
	d, ok := metricByName(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m[name] = metricValue{Value: v, Unit: d.Unit, Samples: samples}
}

// perRound maps rounds to one value each.
func perRound(rs []*roundResult, fn func(r *roundResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = fn(r)
	}
	return out
}

// perPair maps the i-th rounds of two kinds to one value each.
func perPair(a, b []*roundResult, fn func(a, b *roundResult) float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = fn(a[i], b[i])
	}
	return out
}

func putMedian(m map[string]metricValue, name string, xs []float64) {
	put(m, name, median(xs), len(xs))
}

const mib = 1 << 20

// fastest is the least value of one duration over rounds.
func fastest(rs []*roundResult, of func(r *roundResult) time.Duration) float64 {
	best := of(rs[0])
	for _, r := range rs[1:] {
		best = min(best, of(r))
	}
	return float64(best)
}

func wallOf(r *roundResult) time.Duration { return r.wall }
func cpuOf(r *roundResult) time.Duration  { return r.cpu }

// endToEndMetrics computes the user-facing numbers. Each ratio compares
// the run's fastest PMTest round with its fastest native round. On a
// shared host, interference from other work only slows a round down and
// comes and goes within a round or two; in four ten-run trials the
// fastest rounds gave the smallest worst-case spread between runs of any
// estimator tried. The round counts are fixed, so both sides of a
// comparison take the minimum over the same number of rounds.
func (f *fixture) endToEndMetrics(m map[string]metricValue, setups []float64, nat, pm []*roundResult) {
	putMedian(m, "setup_s", setups)
	put(m, "slowdown_x", fastest(pm, wallOf)/fastest(nat, wallOf), len(pm)+len(nat))
	put(m, "cpu_x", fastest(pm, cpuOf)/fastest(nat, cpuOf), len(pm)+len(nat))
}

// latencies returns a round's latency samples: the app ops that record
// PM ops.
func (f *fixture) latencies(r *roundResult) []int64 {
	if f.prog.writesPM == nil {
		return append([]int64(nil), r.lat...)
	}
	var out []int64
	for i, d := range r.lat {
		if f.prog.writesPM(i) {
			out = append(out, d)
		}
	}
	return out
}

// layerMetrics computes the per-layer ledger from a traced run's quads.
func (f *fixture) layerMetrics(m map[string]metricValue, by map[roundKind][]*roundResult) error {
	nat, trk, trc, pm := by[native], by[trackOnly], by[traced], by[full]
	ops := float64(f.prog.appOps)
	lts := make([]layerTimes, len(trc))
	for i, r := range trc {
		lts[i] = r.tr.analyze(f.node == nil)
	}
	perTraced := func(fn func(lt layerTimes, r *roundResult) float64) []float64 {
		out := make([]float64, len(trc))
		for i := range trc {
			out[i] = fn(lts[i], trc[i])
		}
		return out
	}
	series := func(fn func(lt layerTimes) []int64) []int64 {
		var out []int64
		for _, lt := range lts {
			out = append(out, fn(lt)...)
		}
		return out
	}
	putPct := func(name string, xs []int64, p, scale float64) {
		put(m, name, percentile(xs, p)/scale, len(xs))
	}

	putMedian(m, "whisper.native_ns_per_op", perRound(nat, func(r *roundResult) float64 { return float64(r.wall) / ops }))
	put(m, "whisper.pm_ops_per_op", float64(f.pmOps)/ops, 1)
	putMedian(m, "whisper.self_ns_per_op", perTraced(func(lt layerTimes, _ *roundResult) float64 { return float64(lt.whisperSelf) / ops }))

	putMedian(m, "pmtest.framework_ns_per_pm_op", perPair(trk, nat, func(t, n *roundResult) float64 {
		return float64(t.wall-n.wall) / float64(f.pmOps)
	}))
	shares := make([]float64, min(len(nat), len(trk), len(pm)))
	for i := range shares {
		shares[i] = float64(trk[i].wall-nat[i].wall) / float64(pm[i].wall-nat[i].wall)
	}
	putMedian(m, "pmtest.framework_share", shares)
	sends := series(func(lt layerTimes) []int64 { return lt.sendDur })
	putPct("pmtest.send_us_p50", sends, 50, 1e3)
	putPct("pmtest.send_us_p99", sends, 99, 1e3)
	put(m, "pmtest.ops_per_section", float64(f.allOps)/float64(f.sections), 1)
	putMedian(m, "pmtest.getresult_ms", perRound(pm, func(r *roundResult) float64 { return float64(r.getResult) / 1e6 }))
	putMedian(m, "pmtest.self_ns_per_op", perTraced(func(lt layerTimes, _ *roundResult) float64 { return float64(lt.sendSelf) / ops }))
	// Absolute rate and latency move with the host's speed by more than an
	// end-to-end bound allows, so they are reported here, from the
	// untraced PMTest rounds, latency pooled over them.
	putMedian(m, "pmtest.app_ops_per_s", perRound(pm, func(r *roundResult) float64 { return ops / r.wall.Seconds() }))
	var lat []int64
	for _, r := range pm {
		lat = append(lat, f.latencies(r)...)
	}
	putPct("pmtest.op_latency_p50_us", lat, 50, 1e3)
	putPct("pmtest.op_latency_p99_us", lat, 99, 1e3)
	putMedian(m, "pmtest.extra_heap_mib", perPair(pm, nat, func(p, n *roundResult) float64 {
		return (float64(p.heapPeak) - float64(n.heapPeak)) / mib
	}))

	enc, dec, bpo, sections, err := codecCost(f.sample)
	if err != nil {
		return err
	}
	put(m, "trace.encode_ns_per_section", enc, sections)
	put(m, "trace.decode_ns_per_section", dec, sections)
	put(m, "trace.bytes_per_op", bpo, sections)

	qw := series(func(lt layerTimes) []int64 { return lt.queueWait })
	putPct("core.queue_wait_us_p50", qw, 50, 1e3)
	putPct("core.queue_wait_us_p99", qw, 99, 1e3)
	cd := series(func(lt layerTimes) []int64 { return lt.checkDur })
	putPct("core.check_us_p50", cd, 50, 1e3)
	putPct("core.check_us_p99", cd, 99, 1e3)
	putMedian(m, "core.check_ns_per_op", perTraced(func(lt layerTimes, _ *roundResult) float64 {
		return float64(lt.checkSelf) / float64(f.allOps)
	}))
	putMedian(m, "core.busy_share", perTraced(func(lt layerTimes, r *roundResult) float64 {
		return float64(lt.checkSelf) / float64(r.wall)
	}))
	putMedian(m, "core.stalls", perTraced(func(_ layerTimes, r *roundResult) float64 { return float64(r.tr.stalls.Load()) }))
	putMedian(m, "core.stall_ms", perTraced(func(_ layerTimes, r *roundResult) float64 { return float64(r.tr.stallNs.Load()) / 1e6 }))
	putMedian(m, "core.stripe_skew", perTraced(func(lt layerTimes, _ *roundResult) float64 { return lt.skew }))
	// The shadow-interval high-water mark is process-wide: with every
	// workload in one process it covers the workloads run before this one.
	last := trc[len(trc)-1]
	put(m, "core.peak_intervals", float64(last.stats.Resources.ShadowIntervalsMax), 1)
	putMedian(m, "core.gc_retired_intervals", perTraced(func(_ layerTimes, r *roundResult) float64 {
		return float64(r.stats.Resources.GCRetiredIntervals - r.statsBefore.Resources.GCRetiredIntervals)
	}))
	var gets, misses uint64
	for _, r := range trc {
		gets += r.stats.Resources.StatePoolGets - r.statsBefore.Resources.StatePoolGets
		misses += r.stats.Resources.StatePoolMisses - r.statsBefore.Resources.StatePoolMisses
	}
	hit := 0.0
	if gets > 0 {
		hit = float64(gets-misses) / float64(gets)
	}
	put(m, "core.state_pool_hit_rate", hit, int(gets))
	putMedian(m, "core.self_ns_per_op", perTraced(func(lt layerTimes, _ *roundResult) float64 { return float64(lt.checkSelf) / ops }))

	putMedian(m, "dist.rtt_us_p50", perTraced(func(_ layerTimes, r *roundResult) float64 { return float64(r.stats.DistRTT.P50) / 1e3 }))
	putMedian(m, "dist.rtt_us_p99", perTraced(func(_ layerTimes, r *roundResult) float64 { return float64(r.stats.DistRTT.P99) / 1e3 }))
	var retries, fallbacks uint64
	var bufPeak int64
	for _, r := range trc {
		retries += r.stats.DistRetries
		fallbacks += r.stats.DistFallbacks
		bufPeak = max(bufPeak, r.stats.DistBufferedPeak)
	}
	put(m, "dist.retries", float64(retries), len(trc))
	put(m, "dist.fallbacks", float64(fallbacks), len(trc))
	put(m, "dist.buffered_peak_mib", float64(bufPeak)/mib, len(trc))
	nd := series(func(lt layerTimes) []int64 { return lt.nodeDur })
	putPct("dist.node_us_p50", nd, 50, 1e3)
	putPct("dist.node_us_p99", nd, 99, 1e3)
	putMedian(m, "dist.node_growth_x", perTraced(func(lt layerTimes, _ *roundResult) float64 { return lt.nodeGrowth }))
	putMedian(m, "dist.self_ns_per_op", perTraced(func(lt layerTimes, _ *roundResult) float64 { return float64(lt.nodeSelf) / ops }))

	putMedian(m, "runtime.allocs_per_op", perRound(pm, func(r *roundResult) float64 { return float64(r.rt.allocs) / ops }))
	putMedian(m, "runtime.bytes_per_op", perRound(pm, func(r *roundResult) float64 { return float64(r.rt.bytes) / ops }))
	putMedian(m, "runtime.gc_cpu_share", perRound(pm, func(r *roundResult) float64 {
		if r.rt.totalCPU <= 0 {
			return 0
		}
		return r.rt.gcCPU / r.rt.totalCPU
	}))

	rate := func(r *roundResult) float64 { return ops / r.wall.Seconds() }
	put(m, "bench.trace_overhead_share", 1-median(perRound(trc, rate))/median(perRound(pm, rate)), len(trc)+len(pm))
	return nil
}

// codecReps is how often the codec sample is timed; the median counts.
const codecReps = 3

// codecCost times trace.Decode and trace.Encode over the workload's own
// recorded sections, per section, and reports the wire bytes per op.
func codecCost(sample []byte) (encNs, decNs, bytesPerOp float64, sections int, err error) {
	var encs, decs []float64
	var traces []*trace.Trace
	for rep := 0; rep < codecReps; rep++ {
		traces = traces[:0]
		br := bufio.NewReader(bytes.NewReader(sample))
		t0 := time.Now()
		for {
			if _, err := br.Peek(1); errors.Is(err, io.EOF) {
				break
			}
			t, err := trace.Decode(br)
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("decoding the recorded sample: %w", err)
			}
			traces = append(traces, t)
		}
		decs = append(decs, float64(time.Since(t0).Nanoseconds()))
		var out bytes.Buffer
		out.Grow(len(sample))
		t0 = time.Now()
		for _, t := range traces {
			if err := trace.Encode(&out, t); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("encoding the recorded sample: %w", err)
			}
		}
		encs = append(encs, float64(time.Since(t0).Nanoseconds()))
	}
	n := float64(len(traces))
	if n == 0 {
		return 0, 0, 0, 0, errors.New("empty recorded sample")
	}
	ops := 0
	for _, t := range traces {
		ops += len(t.Ops)
	}
	return median(encs) / n, median(decs) / n, float64(len(sample)) / float64(ops), len(traces), nil
}
