// Package harness drives the paper's evaluation (§6): it runs the
// WHISPER workloads under no tool / PMTest / tracking-only PMTest /
// pmemcheck and measures execution time, regenerating the data behind
// Fig. 10 (microbenchmark slowdown and overhead breakdown), Fig. 11
// (real-workload slowdown), Fig. 12 (scalability), and the Yat
// state-space estimates that motivate interval inference (§2.2).
package harness

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"pmtest"
	"pmtest/internal/core"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
	"pmtest/internal/pmem"
	"pmtest/internal/pmemcheck"
	"pmtest/internal/pmfs"
	"pmtest/internal/trace"
	"pmtest/internal/whisper"
	"pmtest/internal/yat"
)

// metrics, when set via ObserveWith, is installed into every PMTest
// session the harness creates, so cmd/repro's -stats / -obs-listen flags
// can aggregate observability across a whole experiment run.
var metrics *obs.Metrics

// ObserveWith installs an observability registry for all subsequent
// harness runs (nil uninstalls). Not safe to call concurrently with a
// running benchmark.
func ObserveWith(m *obs.Metrics) { metrics = m }

// flightRec, when set via FlightWith, is installed into every PMTest
// session the harness creates, so cmd/repro's -flight-out / -obs-listen
// flags capture a span timeline across a whole experiment run.
var flightRec *flight.Recorder

// FlightWith installs a flight recorder for all subsequent harness runs
// (nil uninstalls). Not safe to call concurrently with a running
// benchmark.
func FlightWith(r *flight.Recorder) { flightRec = r }

// logger, when set via LogWith, is installed into every PMTest session
// the harness creates, so cmd/repro's -log-level flag correlates
// session/engine log records across a whole experiment run.
var logger *slog.Logger

// LogWith installs a structured logger for all subsequent harness runs
// (nil uninstalls). Not safe to call concurrently with a running
// benchmark.
func LogWith(lg *slog.Logger) { logger = lg }

// Tool selects the testing tool attached to a run.
type Tool int

// Tools.
const (
	// ToolNone runs the workload with no testing tool (the baseline the
	// paper normalizes against).
	ToolNone Tool = iota
	// ToolPMTest runs with full PMTest checking (1 worker by default).
	ToolPMTest
	// ToolPMTestTrack runs PMTest in tracking-only mode: operations are
	// recorded and shipped but checkers are not validated — the
	// "PMTest Framework" bar of Fig. 10b.
	ToolPMTestTrack
	// ToolPmemcheck runs the synchronous byte-granular baseline checker.
	ToolPmemcheck
	// ToolPMTestInline checks each section synchronously on the program
	// thread instead of on decoupled workers (ablation: the design choice
	// of §3.2 / Fig. 8).
	ToolPMTestInline
	// ToolPMTestMonolithic never cuts the trace: one giant section is
	// checked at the end (ablation: PMTest_SEND_TRACE sectioning, §4.2).
	ToolPMTestMonolithic
)

// String names the tool for table headers.
func (t Tool) String() string {
	switch t {
	case ToolPMTest:
		return "PMTest"
	case ToolPMTestTrack:
		return "PMTest (framework only)"
	case ToolPmemcheck:
		return "Pmemcheck"
	case ToolPMTestInline:
		return "PMTest (inline checking)"
	case ToolPMTestMonolithic:
		return "PMTest (monolithic trace)"
	default:
		return "none"
	}
}

// MicroResult is one microbenchmark measurement.
type MicroResult struct {
	Store   string
	TxSize  uint64
	Inserts int
	Tool    Tool
	Elapsed time.Duration
	Fails   int
	Warns   int
}

// MicroStores lists the five Fig. 10 microbenchmarks in paper order.
var MicroStores = []string{"ctree", "btree", "rbtree", "hashmap-tx", "hashmap-ll"}

// StoreDisplayName maps harness ids to the paper's names.
func StoreDisplayName(id string) string {
	switch id {
	case "ctree":
		return "C-Tree"
	case "btree":
		return "B-Tree"
	case "rbtree":
		return "RB-Tree"
	case "hashmap-tx":
		return "HashMap (w/ TX)"
	case "hashmap-ll":
		return "HashMap (w/o TX)"
	}
	return id
}

// deviceSize estimates the PM capacity a run needs.
func deviceSize(n int, txSize uint64) uint64 {
	per := (txSize+512+pmem.LineSize-1)&^uint64(pmem.LineSize-1) + 512
	sz := uint64(16<<20) + uint64(n)*per
	if ll := whisper.HashmapLLSpace(llSlots(n), txSize) + (1 << 20); ll > sz {
		sz = ll
	}
	return sz
}

// llSlots sizes the open-addressed table for n insertions.
func llSlots(n int) uint64 {
	s := uint64(1024)
	for s < uint64(n)*2 {
		s <<= 1
	}
	return s
}

func newStore(id string, dev *pmem.Device, txSize uint64, n int) (whisper.Store, error) {
	switch id {
	case "ctree":
		return whisper.NewCTree(dev, nil)
	case "btree":
		return whisper.NewBTree(dev, nil)
	case "rbtree":
		return whisper.NewRBTree(dev, nil)
	case "hashmap-tx":
		return whisper.NewHashmapTX(dev, 1<<14, nil)
	case "hashmap-ll":
		return whisper.NewHashmapLL(dev, llSlots(n), txSize, nil)
	}
	return nil, fmt.Errorf("harness: unknown store %q", id)
}

// run attaches one tool to a workload's program threads and times the
// workload under it. Every driver builds thread i's PM device on
// sinks[i], hooks cut(i) where thread i's sections end, calls track
// where tracking starts and brackets its timed loop with begin and end,
// so each tool is attached, cut and timed in one place.
type run struct {
	tool Tool
	// checkers is true under the PMTest variants: the workload emits the
	// paper's checkers and annotations.
	checkers bool
	// sinks[i] is program thread i's trace sink; nil under ToolNone.
	sinks   []trace.Sink
	sess    *pmtest.Session
	threads []*pmtest.Thread
	pmcheck []*pmemcheck.Checker
	inline  []*inlineChecker
	start   time.Time
}

// newRun attaches tool to threads program threads: the PMTest session
// tools share one session with workers checking goroutines and a Thread
// per program thread, pmemcheck and the inline ablation get a checker
// per thread, and ToolNone attaches nothing. Defer close.
func newRun(tool Tool, threads, workers int) *run {
	r := &run{tool: tool, checkers: tool != ToolNone && tool != ToolPmemcheck,
		sinks: make([]trace.Sink, threads)}
	switch tool {
	case ToolPMTest, ToolPMTestTrack, ToolPMTestMonolithic:
		r.sess = pmtest.Init(pmtest.Config{
			Workers:   workers,
			TrackOnly: tool == ToolPMTestTrack,
			Metrics:   metrics,
			Flight:    flightRec,
			Logger:    logger,
		})
	}
	for i := range r.sinks {
		switch {
		case r.sess != nil:
			th := r.sess.ThreadInit()
			r.threads, r.sinks[i] = append(r.threads, th), th
		case tool == ToolPmemcheck:
			c := pmemcheck.New()
			r.pmcheck, r.sinks[i] = append(r.pmcheck, c), c
		case tool == ToolPMTestInline:
			c := &inlineChecker{}
			r.inline, r.sinks[i] = append(r.inline, c), c
		}
	}
	return r
}

// cut returns what ends program thread i's section: ship it to the
// session (PMTest_SEND_TRACE) or check it inline. It is nil for the tools
// that cut no sections: none, pmemcheck, and the monolithic ablation,
// whose one section per thread end ships.
func (r *run) cut(i int) func() {
	switch {
	case r.inline != nil:
		return r.inline[i].check
	case r.sess != nil && r.tool != ToolPMTestMonolithic:
		return r.threads[i].SendTrace
	}
	return nil
}

// track starts tracking on every program thread (PMTest_START); an
// inline checker drops what it recorded before. Microbenchmarks call it
// once the store is built, real workloads before their setup, so the
// setup lands in each thread's first section.
func (r *run) track() {
	for _, th := range r.threads {
		th.Start()
	}
	for _, c := range r.inline {
		c.Ops = c.Ops[:0]
	}
}

// begin starts the clock.
func (r *run) begin() { r.start = time.Now() }

// end stops the clock once the tool's work is done (after GetResult for
// the PMTest session tools, after Finish for pmemcheck, at once
// otherwise) and returns the elapsed time and the FAIL and WARN tallies;
// pmemcheck's findings count as WARNs. The monolithic ablation ships each
// thread's one section first.
func (r *run) end() (elapsed time.Duration, fails, warns int) {
	var reports []pmtest.Report
	switch {
	case r.sess != nil:
		if r.tool == ToolPMTestMonolithic {
			for _, th := range r.threads {
				th.SendTrace()
			}
		}
		reports = r.sess.GetResult() // PMTest_GET_RESULT
	case r.pmcheck != nil:
		for _, c := range r.pmcheck {
			warns += len(c.Finish())
		}
	}
	elapsed = time.Since(r.start)
	for _, rep := range reports {
		fails += rep.Fails()
		warns += rep.Warns()
	}
	for _, c := range r.inline {
		fails += c.fails
		warns += c.warns
	}
	return elapsed, fails, warns
}

// close ends the session, if any (PMTest_EXIT), on every return path.
func (r *run) close() {
	if r.sess != nil {
		r.sess.Exit()
	}
}

// inlineChecker is one program thread's sink under the inline ablation:
// it checks each section synchronously on the thread that cut it (no
// master/worker decoupling, §3.2 / Fig. 8) and keeps its own tallies.
type inlineChecker struct {
	trace.Recorder
	fails, warns int
}

func (c *inlineChecker) check() {
	if len(c.Ops) == 0 {
		return
	}
	rep := core.CheckTrace(core.X86{}, &trace.Trace{Ops: c.Ops})
	c.fails += rep.Fails()
	c.warns += rep.Warns()
	c.Ops = c.Ops[:0]
}

// microDraw is the seed-42 draw of MicroBench and RecordMicroSections:
// n keys and one txSize-byte value.
func microDraw(n int, txSize uint64) ([]uint64, []byte) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() >> 16
	}
	val := make([]byte, txSize)
	rng.Read(val)
	return keys, val
}

// MicroBench runs n insertions of txSize-byte values into the named store
// under the given tool and returns the measurement. workers sets the
// PMTest checking-thread count (Fig. 12b); <=0 means 1, the paper default.
func MicroBench(store string, txSize uint64, n int, tool Tool, workers int) (MicroResult, error) {
	res := MicroResult{Store: store, TxSize: txSize, Inserts: n, Tool: tool}
	keys, val := microDraw(n, txSize)
	r := newRun(tool, 1, workers)
	defer r.close()
	s, err := newStore(store, pmem.New(deviceSize(n, txSize), r.sinks[0]), txSize, n)
	if err != nil {
		return res, err
	}
	if c, ok := s.(whisper.Checkered); ok {
		c.SetCheckers(r.checkers)
	}
	cut := r.cut(0)
	r.track()
	r.begin()
	for _, k := range keys {
		if err := s.Insert(k, val); err != nil {
			return res, err
		}
		if cut != nil {
			cut() // one section per transaction (§4.2)
		}
	}
	res.Elapsed, res.Fails, res.Warns = r.end()
	return res, nil
}

// Slowdown computes tool time over baseline time.
func Slowdown(tool, base MicroResult) float64 {
	if base.Elapsed == 0 {
		return 0
	}
	return float64(tool.Elapsed) / float64(base.Elapsed)
}

// RealResult is one real-workload measurement (Fig. 11).
type RealResult struct {
	Workload string
	Tool     Tool
	Elapsed  time.Duration
	Fails    int
	Warns    int
}

// RealWorkloads lists the Fig. 11 configurations in paper order.
var RealWorkloads = []string{
	"memcached+memslap", "memcached+ycsb", "redis+lru", "pmfs+oltp", "pmfs+filebench",
}

// RealBench runs the named Table 4 workload with nOps operations.
func RealBench(workload string, nOps int, tool Tool) (RealResult, error) {
	switch workload {
	case "memcached+memslap":
		return memcachedBench("memcached+memslap", whisper.MemslapOps(nOps, 5000, 128, 7), 1, 1, tool)
	case "memcached+ycsb":
		return memcachedBench("memcached+ycsb", whisper.YCSBOps(nOps, 5000, 128, 7), 1, 1, tool)
	case "redis+lru":
		return redisBench(nOps, tool)
	case "pmfs+oltp":
		return pmfsBench("pmfs+oltp", whisper.OLTPOps(nOps, 4, 512, 7), tool)
	case "pmfs+filebench":
		return pmfsBench("pmfs+filebench", whisper.FilebenchOps(nOps, 16, 2048, 7), tool)
	}
	return RealResult{}, fmt.Errorf("harness: unknown workload %q", workload)
}

// memcachedBench runs clients against a sharded memcached; threads =
// server shards = concurrent clients (Fig. 12 uses threads/workers > 1).
func memcachedBench(name string, ops []whisper.KVOp, threads, workers int, tool Tool) (RealResult, error) {
	res := RealResult{Workload: name, Tool: tool}
	r := newRun(tool, threads, workers)
	defer r.close()
	r.track()
	devs := make([]*pmem.Device, threads)
	for i := range devs {
		devs[i] = pmem.New(whisper.MemcachedShardSpace(1<<14, 256), r.sinks[i])
	}
	m, err := whisper.NewMemcached(devs, 1<<14, 256)
	if err != nil {
		return res, err
	}
	m.SetCheckers(r.checkers)
	for i := range devs {
		m.SetSectionHook(i, r.cut(i))
	}

	// Partition ops across client goroutines (one per server thread).
	r.begin()
	var wg sync.WaitGroup
	chunk := (len(ops) + threads - 1) / threads
	var firstErr error
	var mu sync.Mutex
	for c := 0; c < threads; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > len(ops) {
			hi = len(ops)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(ops []whisper.KVOp, seed int64) {
			defer wg.Done()
			if err := whisper.RunKV(m.Set, m.Get, ops, seed); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(ops[lo:hi], int64(c))
	}
	wg.Wait()
	if firstErr != nil {
		return res, firstErr
	}
	res.Elapsed, res.Fails, res.Warns = r.end()
	return res, nil
}

func redisBench(nOps int, tool Tool) (RealResult, error) {
	res := RealResult{Workload: "redis+lru", Tool: tool}
	ops := whisper.LRUOps(nOps, uint64(nOps), 128, 7)
	r := newRun(tool, 1, 1)
	defer r.close()
	r.track()
	db, err := whisper.NewRedis(pmem.New(deviceSize(nOps, 128), r.sinks[0]), 1<<14, nOps/2+1)
	if err != nil {
		return res, err
	}
	db.SetCheckers(r.checkers)
	set := db.Set
	if cut := r.cut(0); cut != nil {
		set = func(k uint64, v []byte) error {
			err := db.Set(k, v)
			cut()
			return err
		}
	}
	r.begin()
	if err := whisper.RunKV(set, db.Get, ops, 7); err != nil {
		return res, err
	}
	res.Elapsed, res.Fails, res.Warns = r.end()
	return res, nil
}

func pmfsBench(name string, ops []whisper.FSOp, tool Tool) (RealResult, error) {
	res := RealResult{Workload: name, Tool: tool}
	r := newRun(tool, 1, 1)
	defer r.close()
	r.track()
	fs, err := pmfs.Mkfs(pmem.New(1<<26, r.sinks[0]), 256, 512)
	if err != nil {
		return res, err
	}
	fs.SetAnnotations(r.checkers)
	fs.SetSectionHook(r.cut(0))
	r.begin()
	if err := whisper.RunFS(fs, ops, 7); err != nil {
		return res, err
	}
	res.Elapsed, res.Fails, res.Warns = r.end()
	return res, nil
}

// ScaleResult is one Fig. 12 cell.
type ScaleResult struct {
	Threads  int
	Workers  int
	Client   string
	Tool     Tool
	Elapsed  time.Duration
	Slowdown float64
}

// ScaleBench measures memcached with the given server-thread and
// PMTest-worker counts, returning the slowdown over the untested run
// (Fig. 12a/b/c).
func ScaleBench(client string, threads, workers, opsPerClient int) (ScaleResult, error) {
	var gen func(n int, keySpace uint64, valSize int, seed int64) []whisper.KVOp
	switch client {
	case "memslap":
		gen = whisper.MemslapOps
	case "ycsb":
		gen = whisper.YCSBOps
	default:
		return ScaleResult{}, fmt.Errorf("harness: unknown client %q", client)
	}
	ops := gen(opsPerClient*threads, 5000, 128, 11)
	base, err := memcachedBench("scale", ops, threads, 1, ToolNone)
	if err != nil {
		return ScaleResult{}, err
	}
	tested, err := memcachedBench("scale", ops, threads, workers, ToolPMTest)
	if err != nil {
		return ScaleResult{}, err
	}
	return ScaleResult{
		Threads: threads, Workers: workers, Client: client, Tool: ToolPMTest,
		Elapsed:  tested.Elapsed,
		Slowdown: float64(tested.Elapsed) / float64(base.Elapsed),
	}, nil
}

// YatEstimate replays a PMTest-traced microbenchmark run and reports the
// crash-state space an exhaustive tool would face (§2.2's "five years").
type YatEstimate struct {
	Store      string
	Inserts    int
	TraceOps   int
	StateSpace float64
}

// EstimateYat records a short run of the store and sizes Yat's search
// space for it.
func EstimateYat(store string, n int, txSize uint64) (YatEstimate, error) {
	rec := &trace.Recorder{}
	dev := pmem.New(deviceSize(n, txSize), rec)
	s, err := newStore(store, dev, txSize, n)
	if err != nil {
		return YatEstimate{}, err
	}
	rng := rand.New(rand.NewSource(3))
	val := make([]byte, txSize)
	for i := 0; i < n; i++ {
		if err := s.Insert(rng.Uint64()>>16, val); err != nil {
			return YatEstimate{}, err
		}
	}
	initial := make([]byte, dev.Size())
	space := yat.EstimateStateSpace(initial, rec.Ops)
	return YatEstimate{Store: store, Inserts: n, TraceOps: len(rec.Ops), StateSpace: space}, nil
}

// RecordMicroSections runs n checkered insertions of txSize-byte values
// into the named store and returns the recorded operations of each
// per-transaction section (the cut points PMTest_SEND_TRACE would use).
// The run is deterministic: same arguments, same sections. It is the raw
// material for offline checking, the pooled-state golden tests, and the
// perf suite's check/encode benchmarks.
func RecordMicroSections(store string, txSize uint64, n int) ([][]trace.Op, error) {
	rec := &trace.Recorder{}
	dev := pmem.New(deviceSize(n, txSize), rec)
	s, err := newStore(store, dev, txSize, n)
	if err != nil {
		return nil, err
	}
	if c, ok := s.(whisper.Checkered); ok {
		c.SetCheckers(true)
	}
	keys, val := microDraw(n, txSize)
	sections := make([][]trace.Op, 0, n)
	for _, k := range keys {
		rec.Ops = nil
		if err := s.Insert(k, val); err != nil {
			return nil, err
		}
		sections = append(sections, rec.Ops)
	}
	return sections, nil
}

// SparseFenceStateSpace sizes Yat's crash-state space for a synthetic
// trace of nWrites line writes with a fence every `window` writes —
// the fence-sparse pattern (PMFS-style batched metadata updates) whose
// exhaustive exploration the paper quotes at more than five years. It is
// computed analytically: each crash point with d dirty lines contributes
// 2^d reachable durable states.
func SparseFenceStateSpace(nWrites, window int) (space float64, ops int) {
	perWindow := 0.0
	for d := 1; d <= window; d++ {
		w := 1.0
		for i := 0; i < d; i++ {
			w *= 2
		}
		perWindow += w
	}
	windows := nWrites / window
	return perWindow * float64(windows), nWrites + windows
}
