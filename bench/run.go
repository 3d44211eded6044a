package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"pmtest"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// roundKind is the tool attached to one round of a workload's program.
type roundKind int

const (
	native    roundKind = iota // no tool: the baseline
	full                       // PMTest, untraced: the end-to-end numbers
	trackOnly                  // PMTest with Config.TrackOnly (Fig. 10b)
	traced                     // PMTest with the benchmark's tracer attached
)

// roundResult is one timed round.
type roundResult struct {
	kind roundKind
	// wall runs from the first app op until GetResult returns; cpu is the
	// process's user plus system time over the same interval.
	wall, cpu time.Duration
	// heapPeak is the highest /gc/heap/live:bytes sampled during the round.
	heapPeak uint64
	// lat is each app op's wall time in ns, its section cut included.
	lat       []int64
	getResult time.Duration
	rt        runtimeDelta
	// sections shipped and how many of them failed the oracle.
	sections, failed int
	verifyErr        error
	// Traced rounds only.
	tr                 *tracer
	statsBefore, stats pmtest.Stats
}

// runRound builds fresh program state, attaches the round's tool, runs
// every app op back to back on this goroutine (a closed loop with one
// client), waits for every report, and checks them against the oracle.
func (f *fixture) runRound(kind roundKind) (*roundResult, error) {
	res := &roundResult{kind: kind}
	var (
		sess *pmtest.Session
		th   *pmtest.Thread
		sink trace.Sink
		cut  func()
		tr   *tracer
	)
	if kind != native {
		cfg := f.w.config
		cfg.TrackOnly = kind == trackOnly
		if f.node != nil {
			cfg.Remote = &pmtest.RemoteConfig{Nodes: []string{f.node.addr}}
		}
		if kind == traced {
			tr = newTracer(f.sections, f.prog.appOps)
			cfg.Observer = tr
			cfg.Metrics = obs.NewMetrics(0)
		}
		sess = pmtest.Init(cfg)
		th = sess.ThreadInit()
		sink, cut = th, th.SendTrace
		if tr != nil {
			cut = tr.cut(th)
		}
	}
	rd, err := f.prog.start(sink, cut)
	if err != nil {
		if sess != nil {
			sess.Exit()
		}
		return nil, err
	}
	if th != nil {
		th.Start()
	}
	if tr != nil {
		res.statsBefore = sess.Stats()
	}
	lat := make([]int64, f.prog.appOps)

	runtime.GC()
	heap := startHeapSampler()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	origin := time.Now()
	if f.node != nil {
		f.node.reset(origin)
	}
	if tr != nil {
		tr.origin = origin
	}
	var last int64
	for i := range lat {
		if tr != nil {
			tr.curOp = i
		}
		if err := rd.step(i); err != nil {
			heap.finish()
			if sess != nil {
				sess.Exit()
			}
			return nil, fmt.Errorf("%s round, app op %d: %w", kind, i, err)
		}
		now := time.Since(origin).Nanoseconds()
		lat[i] = now - last
		last = now
		if tr != nil {
			tr.opEnd[i] = now
		}
	}
	var reports []pmtest.Report
	if sess != nil {
		th.SendTrace()
		g0 := time.Since(origin)
		reports = sess.GetResult()
		g1 := time.Since(origin)
		res.getResult = g1 - g0
		if tr != nil {
			tr.getResult = [2]int64{g0.Nanoseconds(), g1.Nanoseconds()}
		}
	}
	res.wall = time.Since(origin)
	res.cpu = cpuTime() - cpu0
	res.rt = readRuntime().sub(rt0)
	res.heapPeak = heap.finish()
	res.lat = lat

	if sess != nil {
		var nodeSpans []nodeSpan
		if f.node != nil {
			if nodeSpans, err = f.node.take(f.sections); err != nil {
				sess.Exit()
				return nil, fmt.Errorf("%s round: %w", kind, err)
			}
		}
		if tr != nil {
			res.stats = sess.Stats()
			tr.node = nodeSpans
			res.tr = tr
		}
		sess.Exit()
		res.sections = f.sections
		res.failed = f.checkReports(reports, kind == trackOnly)
		if err := sess.Err(); err != nil {
			// A refused or dropped section: counted even when a fallback
			// still produced its report.
			fmt.Fprintf(os.Stderr, "bench: %s: %s round: %v\n", f.w.name, kind, err)
			res.failed++
		}
	}
	res.verifyErr = rd.verify()
	return res, nil
}

func (k roundKind) String() string {
	return [...]string{"native", "pmtest", "track-only", "traced"}[k]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak of the live heap, sampled every 10 ms.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		sample := func() {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sample()
		for {
			select {
			case <-h.stop:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runtimeDelta is the Go runtime's work over a round.
type runtimeDelta struct {
	allocs, bytes   uint64
	gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{r.allocs - o.allocs, r.bytes - o.bytes, r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU}
}
