package perf

import (
	"fmt"
	"runtime"

	"pmtest/internal/core"
	"pmtest/internal/trace"
)

// hugeTraceGen streams a synthetic long-running workload in sections
// without ever materializing the whole trace: a rotating window of
// Window 64-byte objects, each in its own 4 KiB chunk so address
// striping distributes them, written and flushed every round and closed
// by one fence. The window then advances, so the live working set stays
// at Window objects while the address footprint — and an unbounded
// checker's shadow memory — grows with the run. The ops buffer is
// reused across sections; callers must finish checking a section before
// asking for the next.
type hugeTraceGen struct {
	window  int
	section int
	round   int // next round index, carried across sections
	ops     []trace.Op
	tr      trace.Trace
}

// next fills the reused section trace with roughly g.section ops (whole
// rounds only) and returns it along with the number of ops generated.
func (g *hugeTraceGen) next() (*trace.Trace, int) {
	g.ops = g.ops[:0]
	for len(g.ops)+2*g.window+1 <= g.section {
		base := uint64(g.round) * uint64(g.window) * 4096
		for w := 0; w < g.window; w++ {
			a := base + uint64(w)*4096
			g.ops = append(g.ops,
				trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
				trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
		}
		g.ops = append(g.ops, trace.Op{Kind: trace.KindFence})
		g.round++
	}
	g.tr.Ops = g.ops
	return &g.tr, len(g.ops)
}

// runHugeTrace measures the sharded streaming checker on a trace too
// large to check as one unit: b.HugeOps ops streamed through a
// persistent checker in b.HugeSection-op sections, with epoch GC
// keeping shadow memory near the window size. Three stripe counts are
// measured — 1 (the serial baseline), 4 (the CI-gated configuration)
// and NumCPU — plus the GC'd peak interval count, which is gated
// LowerIsBetter so a GC regression that lets shadow memory grow with
// the trace again fails the compare step.
func runHugeTrace(b Budget, res *Result, logf func(string, ...any)) error {
	if b.HugeOps == 0 {
		return nil
	}
	shardCounts := []int{1, 4, runtime.NumCPU()}
	opsPerSec := make([]float64, len(shardCounts))
	var peak int
	for i, shards := range shardCounts {
		c := core.NewChecker(core.X86{}, core.Config{Shards: shards, EpochGC: true})
		gen := &hugeTraceGen{window: b.HugeWindow, section: b.HugeSection}
		done := 0
		var maxPeak int
		// measure's warm-up call streams the whole budget once (priming
		// stripe lists and tree freelists); the closure resets the stream
		// so the timed run repeats identical work.
		s := measure(1, func() {
			done, gen.round, maxPeak = 0, 0, 0
			for done < b.HugeOps {
				tr, n := gen.next()
				rep, stats := c.Check(tr, nil)
				if !rep.Clean() {
					panic(fmt.Sprintf("huge-trace: clean streaming section flagged at %d ops", done))
				}
				if shards > 1 && !stats.Sharded {
					panic("huge-trace: striped section fell back to serial")
				}
				if stats.PeakIntervals > maxPeak {
					maxPeak = stats.PeakIntervals
				}
				done += n
			}
		})
		c.Close()
		opsPerSec[i] = float64(done) / s.Elapsed.Seconds()
		if shards == runtime.NumCPU() {
			peak = maxPeak
		}
		logf("  huge_trace: shards=%d %.2fM ops/s (peak %d intervals)",
			shards, opsPerSec[i]/1e6, maxPeak)
	}
	res.add(Metric{Name: "huge_trace/ops_per_sec_shards1",
		Value: opsPerSec[0], Unit: "ops/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	res.add(Metric{Name: "huge_trace/ops_per_sec_shards4",
		Value: opsPerSec[1], Unit: "ops/s",
		Better: HigherIsBetter, Tolerance: TolTiming})
	// The speedup ratio divides out machine speed, but still moves with
	// scheduler noise and core count, so it gets the widest tolerance.
	res.add(Metric{Name: "huge_trace/speedup_numcpu",
		Value: opsPerSec[2] / opsPerSec[0], Unit: "x",
		Better: HigherIsBetter, Tolerance: TolLatency})
	// Peak live shadow intervals with GC on: per-section working set plus
	// the GC lag, independent of total trace length. Gated upward.
	res.add(Metric{Name: "huge_trace/peak_intervals",
		Value: float64(peak), Unit: "intervals",
		Better: LowerIsBetter, Tolerance: TolTiming})
	return nil
}
