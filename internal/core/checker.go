package core

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmtest/internal/trace"
)

// Config sets a Checker's address stripes and its epoch GC. The zero
// value checks each trace on one stripe with no GC.
type Config struct {
	// Shards is the number of address stripes checked concurrently.
	// <= 1 checks each trace on one stripe, on the caller's goroutine.
	Shards int
	// EpochGC retires shadow-memory segments whose persist and flush
	// intervals both closed at least GCLag epochs before the current one,
	// bounding live intervals over long streaming runs. A later checker
	// or flush over a retired range sees it as never written, so reports
	// can differ from GC off: a FAIL can be dropped.
	EpochGC bool
	// GCLag is the retirement age in epochs; default 2. A larger lag
	// keeps more history for late flush/order checks of old ranges.
	GCLag uint64

	// chunkBits is log2 of the minimum stripe chunk size: addresses are
	// assigned to stripes by (addr >> bits) % Shards, so consecutive
	// chunks of 1<<bits bytes rotate across stripes. Default 12 (4 KiB
	// pages); tests set smaller chunks so short traces spread. Splitting
	// one operation's range across stripes would change segment
	// boundaries and with them diagnostic bytes, so the planner coarsens
	// the chunk size per trace until no op spans a chunk (stripe state is
	// reset per trace, making the geometry free to vary).
	chunkBits uint
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.chunkBits == 0 {
		c.chunkBits = 12
	}
	if c.GCLag == 0 {
		c.GCLag = 2
	}
	return c
}

// CheckStats is per-trace resource accounting from a Checker:
// shadow-memory pressure and GC work.
type CheckStats struct {
	// Sharded reports whether the stripes checked the trace; false means
	// it ran on one stripe (one configured, a custom rule set, or a trace
	// the stripes cannot finish exactly).
	Sharded bool
	// PeakIntervals is the high-water mark of live shadow-memory
	// segments, sampled at every fence and at the end of the trace
	// (summed across stripes).
	PeakIntervals int
	// RetiredIntervals counts segments retired by epoch GC.
	RetiredIntervals uint64
}

// maxChunkBits caps per-trace chunk coarsening at 16 MiB chunks: an op
// range that straddles even that line (a >16 MiB single object, or a
// wildly misaligned giant range) sends the trace to one stripe.
const maxChunkBits = 24

// shardable reports whether the rule set is a built-in whose
// isOrderedBefore flavor the stripe coordinator can replicate for
// cross-stripe checks. Custom rule sets run on one stripe: their Apply
// may carry semantics the router cannot see.
func shardable(rules RuleSet) (byStart, ok bool) {
	switch rules.(type) {
	case X86, ARM:
		return false, true
	case HOPS, Epoch:
		return true, true
	}
	return false, false
}

// stripeCmd asks a stripe worker to apply its op-index list entries in
// [from, to).
type stripeCmd struct {
	from, to int32
}

// cut marks a cross-stripe isOrderedBefore op: every stripe must drain
// its list up to pos before the coordinator can read two stripes' shadow
// memories consistently.
type cut struct {
	op  int32
	pos []int32 // per-stripe list position at the cut
}

// Checker checks traces against shadow memory split into address
// stripes. With one stripe it runs CheckTraceInto on a pooled State on
// the caller's goroutine. With N > 1 each stripe owns the interval maps
// for its address chunks and applies its ops on a dedicated goroutine,
// while trace-global ops (fences, transaction boundaries, scope control)
// are broadcast to every stripe so each replays the same epoch and
// transaction structure. Per-stripe diagnostics are merged back into the
// serial emission order, so reports are byte-identical to the one-stripe
// check's. A trace the stripes cannot finish exactly (a range wider than
// 16 MiB, a panic, or diagnostics reaching the per-trace cap) re-runs on
// one stripe.
//
// A checker is NOT safe for concurrent Check calls; each engine worker
// owns one. Close releases the stripe goroutines.
type Checker struct {
	cfg       Config
	rules     RuleSet
	byStart   bool
	chunkBits uint // effective bits for the current trace (>= cfg.chunkBits)

	// Timed enables per-stripe duration accounting in stripeDurs, which
	// a Worker copies into its observer event. Set it before the first
	// Check; it must not be flipped concurrently.
	Timed bool

	// The stripe machinery below is nil with one stripe.
	states []*State
	coord  *State // holds cross-stripe isOrderedBefore diagnostics

	ops     []trace.Op // current trace, visible to workers via cmds
	lists   [][]int32  // per-stripe op-index lists, reused
	cuts    []cut
	starts  []int32
	ends    []int32
	tracked int

	stripeDurs []time.Duration
	pending    []atomic.Int64
	cmds       []chan stripeCmd
	wg         sync.WaitGroup
	// bail is set by a stripe that panicked or reached the diagnostic
	// cap: the trace then re-runs on one stripe.
	bail atomic.Bool
}

// NewChecker builds a checker for the given rules and config. It starts
// one goroutine per stripe when the config asks for more than one and
// the rule set is a built-in; otherwise it starts none.
func NewChecker(rules RuleSet, cfg Config) *Checker {
	cfg = cfg.withDefaults()
	byStart, ok := shardable(rules)
	c := &Checker{cfg: cfg, rules: rules, byStart: byStart}
	if !ok || cfg.Shards <= 1 {
		return c
	}
	n := cfg.Shards
	c.states = make([]*State, n)
	c.coord = &State{}
	c.lists = make([][]int32, n)
	c.starts = make([]int32, n)
	c.ends = make([]int32, n)
	c.stripeDurs = make([]time.Duration, n)
	c.pending = make([]atomic.Int64, n)
	c.cmds = make([]chan stripeCmd, n)
	for i := 0; i < n; i++ {
		c.states[i] = NewState()
		c.cmds[i] = make(chan stripeCmd)
		go c.stripeWorker(i)
	}
	return c
}

// Close stops the stripe workers. The checker must not be used after.
func (c *Checker) Close() {
	for _, ch := range c.cmds {
		close(ch)
	}
}

// AddStripeDepths accumulates the live number of ops assigned to each
// stripe worker into dst (which must have at least Shards entries);
// engines sum across their workers.
func (c *Checker) AddStripeDepths(dst []int64) {
	for i := range c.pending {
		dst[i] += c.pending[i].Load()
	}
}

// stripeOf maps an address range to its owning stripe under the current
// trace's chunk geometry. ok is false when the range still crosses a
// chunk boundary, which cannot happen after plan's coarsening pass.
func (c *Checker) stripeOf(addr, size uint64) (int, bool) {
	lo := addr >> c.chunkBits
	hi := lo
	if size > 0 {
		hi = (addr + size - 1) >> c.chunkBits
	}
	if hi != lo {
		return 0, false
	}
	return int(lo % uint64(len(c.states))), true
}

// spanBits returns the smallest chunk-bit width under which [addr,
// addr+size) fits inside one chunk: the bit length of addr XOR (end-1),
// i.e. the position of the highest bit where the two endpoints differ.
func spanBits(addr, size uint64) uint {
	if size == 0 {
		return 0
	}
	return uint(bits.Len64(addr ^ (addr + size - 1)))
}

// addCut records a phase boundary at op index opIdx, snapshotting every
// stripe's current list length. Cut entries (and their pos slices) are
// reused across traces.
func (c *Checker) addCut(opIdx int32) {
	n := len(c.cuts)
	if n < cap(c.cuts) {
		c.cuts = c.cuts[:n+1]
	} else {
		c.cuts = append(c.cuts, cut{})
	}
	cc := &c.cuts[n]
	cc.op = opIdx
	if cc.pos == nil {
		cc.pos = make([]int32, len(c.lists))
	}
	for i, l := range c.lists {
		cc.pos[i] = int32(len(l))
	}
}

// plan routes every op of the trace: addressed ops (writes, flushes,
// log backups, isPersist) go to their owning stripe; trace-global ops
// are broadcast to all stripes; a cross-stripe isOrderedBefore becomes a
// phase cut handled by the coordinator. A pre-pass coarsens the chunk
// size until no op's range spans a chunk — real workloads allocate the
// occasional object across a page line, and splitting such a range
// across stripes would change segment boundaries and with them
// diagnostic bytes. plan returns false only when an op spans more than
// 1<<maxChunkBits bytes, which sends the whole trace to one stripe.
func (c *Checker) plan(ops []trace.Op) bool {
	c.chunkBits = c.cfg.chunkBits
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case trace.KindWrite, trace.KindWriteNT, trace.KindFlush,
			trace.KindTxAdd, trace.KindIsPersist:
			if b := spanBits(op.Addr, op.Size); b > c.chunkBits {
				c.chunkBits = b
			}
		case trace.KindIsOrderedBefore:
			if b := spanBits(op.Addr, op.Size); b > c.chunkBits {
				c.chunkBits = b
			}
			if b := spanBits(op.Addr2, op.Size2); b > c.chunkBits {
				c.chunkBits = b
			}
		}
	}
	if c.chunkBits > maxChunkBits {
		return false
	}
	for i := range c.lists {
		c.lists[i] = c.lists[i][:0]
	}
	c.cuts = c.cuts[:0]
	c.tracked = 0
	for i := range ops {
		op := &ops[i]
		if !op.Kind.IsChecker() {
			c.tracked++
		}
		switch op.Kind {
		case trace.KindWrite, trace.KindWriteNT, trace.KindFlush,
			trace.KindTxAdd, trace.KindIsPersist:
			st, ok := c.stripeOf(op.Addr, op.Size)
			if !ok {
				return false
			}
			c.lists[st] = append(c.lists[st], int32(i))
		case trace.KindIsOrderedBefore:
			sa, okA := c.stripeOf(op.Addr, op.Size)
			sb, okB := c.stripeOf(op.Addr2, op.Size2)
			if !okA || !okB {
				return false
			}
			if sa == sb {
				c.lists[sa] = append(c.lists[sa], int32(i))
			} else {
				c.addCut(int32(i))
			}
		default:
			// Fences, transaction boundaries, checker scopes, exclude /
			// include: every stripe replays them, keeping epoch counters,
			// nesting depth and exclusion scope identical everywhere.
			for s := range c.lists {
				c.lists[s] = append(c.lists[s], int32(i))
			}
		}
	}
	return true
}

// Check runs one trace through the checker and returns its report plus
// resource stats, which it also publishes to ResourceStats. The report
// is the one-stripe check's, byte for byte, whichever path produces it.
func (c *Checker) Check(t *trace.Trace, excludes []Range) (Report, CheckStats) {
	if c.states != nil && c.plan(t.Ops) {
		if rep, stats, ok := c.checkStriped(t, excludes); ok {
			publishStats(stats)
			return rep, stats
		}
	}
	return checkOne(c.rules, c.cfg, t, excludes)
}

// checkOne is the one-stripe check: CheckTraceInto on a pooled State on
// the caller's goroutine, with the config's epoch GC.
func checkOne(rules RuleSet, cfg Config, t *trace.Trace, excludes []Range) (Report, CheckStats) {
	statePoolGets.Add(1)
	s := statePool.Get().(*State)
	s.gcOn, s.gcLag = cfg.EpochGC, cfg.GCLag
	rep := CheckTraceInto(s, rules, t, excludes)
	stats := CheckStats{PeakIntervals: max(s.peakIntervals, s.Mem.Len()), RetiredIntervals: s.gcRetired}
	s.Reset() // detaches rep's diagnostics before the state is reused
	statePool.Put(s)
	publishStats(stats)
	return rep, stats
}

// checkStriped runs the stripe path. ok is false when any stripe (or the
// coordinator itself) panicked or the diagnostics reached the cap; the
// caller then re-checks on one stripe, which produces the canonical
// CodeCheckerPanic or truncated report. The stripe workers always reach
// wg.Done (their recover is inside the per-command handler), so a
// bailed-out trace leaves no stuck state.
func (c *Checker) checkStriped(t *trace.Trace, excludes []Range) (rep Report, stats CheckStats, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	c.ops = t.Ops
	for i, s := range c.states {
		s.Reset()
		s.muted = i != 0
		s.gcOn, s.gcLag = c.cfg.EpochGC, c.cfg.GCLag
		for _, r := range excludes {
			s.Excluded.Set(r.Addr, r.Addr+r.Size, struct{}{})
		}
		c.starts[i] = 0
		c.ends[i] = int32(len(c.lists[i]))
		c.stripeDurs[i] = 0
	}
	c.coord.diags = nil
	c.coord.opIndex = 0
	c.bail.Store(false)

	for ci := range c.cuts {
		cu := &c.cuts[ci]
		if !c.runPhase(c.starts, cu.pos) {
			return rep, stats, false
		}
		c.coord.opIndex = int(cu.op)
		c.crossCheck(t.Ops[cu.op])
		copy(c.starts, cu.pos)
	}
	if !c.runPhase(c.starts, c.ends) {
		return rep, stats, false
	}
	if rep, ok = c.mergeReport(t); !ok {
		return rep, stats, false
	}
	stats.Sharded = true
	for _, s := range c.states {
		stats.PeakIntervals += max(s.peakIntervals, s.Mem.Len())
		stats.RetiredIntervals += s.gcRetired
	}
	return rep, stats, true
}

// runPhase dispatches each stripe's list slice [from[i], to[i]) to its
// worker and waits for all of them — a barrier, entered only at trace
// start and at cross-stripe cuts. It reports whether every stripe
// finished its slice without setting the bail flag.
func (c *Checker) runPhase(from, to []int32) bool {
	n := 0
	for i := range c.states {
		if from[i] < to[i] {
			n++
		}
	}
	if n == 0 {
		return true
	}
	c.wg.Add(n)
	for i := range c.states {
		if from[i] < to[i] {
			c.pending[i].Store(int64(to[i] - from[i]))
			c.cmds[i] <- stripeCmd{from: from[i], to: to[i]}
		}
	}
	c.wg.Wait()
	return !c.bail.Load()
}

func (c *Checker) stripeWorker(i int) {
	s := c.states[i]
	for cmd := range c.cmds[i] {
		c.runStripe(i, s, cmd)
		c.pending[i].Store(0)
		c.wg.Done()
	}
}

func (c *Checker) runStripe(i int, s *State, cmd stripeCmd) {
	defer func() {
		if r := recover(); r != nil {
			c.bail.Store(true)
		}
	}()
	var t0 time.Time
	if c.Timed {
		t0 = time.Now()
	}
	ops := c.ops
	for _, idx := range c.lists[i][cmd.from:cmd.to] {
		s.opIndex = int(idx)
		c.rules.Apply(s, ops[idx])
		if len(s.diags) >= maxDiagsPerTrace {
			// The whole trace reaches the cap too; one stripe truncates
			// it where the serial check does.
			c.bail.Store(true)
			break
		}
	}
	if c.Timed {
		c.stripeDurs[i] += time.Since(t0)
	}
}

// crossCheck validates an isOrderedBefore whose operands live on
// different stripes. All stripes are quiesced at the cut, so reading two
// shadow memories from the coordinator is race-free; the diagnostic (at
// most one) lands on the coordinator's diag list and is merged by op
// index like any other.
func (c *Checker) crossCheck(op trace.Op) {
	sa, _ := c.stripeOf(op.Addr, op.Size)
	sb, _ := c.stripeOf(op.Addr2, op.Size2)
	co := c.coord
	co.segScratch = c.states[sa].persistIntervals(co.segScratch[:0], op.Addr, op.Addr+op.Size)
	co.segScratch2 = c.states[sb].persistIntervals(co.segScratch2[:0], op.Addr2, op.Addr2+op.Size2)
	co.orderedBeforeSegs(op, c.byStart, co.segScratch, co.segScratch2)
}

// openCheckerWarn is the trailing diagnostic CheckTraceInto emits when a
// trace ends inside an open TX_CHECKER scope.
func openCheckerWarn(opIndex int) Diagnostic {
	return Diagnostic{
		Severity: SeverityWarn,
		Code:     CodeUnbalancedTx,
		Message:  "trace ended with an open TX_CHECKER scope",
		Site:     "?",
		OpIndex:  opIndex,
	}
}

// mergeReport reassembles per-stripe diagnostics into the exact sequence
// the serial checker emits. Every addressed op reports from exactly one
// stripe; broadcast ops report only from stripe 0 (others are muted)
// except TX_CHECKER_END, whose per-stripe injected checks carry the
// written segment's address as their sort key — a stable sort by
// (OpIndex, sortKey) therefore reproduces the serial address-order walk.
// ok is false when the diagnostics reach the per-trace cap: the trace
// then re-runs on one stripe, which truncates it.
func (c *Checker) mergeReport(t *trace.Trace) (rep Report, ok bool) {
	lastOp := max(len(t.Ops)-1, 0)
	total := len(c.coord.diags)
	for _, s := range c.states {
		total += len(s.diags)
	}
	if total >= maxDiagsPerTrace {
		return rep, false
	}
	rep = Report{TraceID: t.ID, Thread: t.Thread, Ops: len(t.Ops), TrackedOps: c.tracked}
	if total == 0 {
		// Clean fast path: no merge, no allocation.
		if c.states[0].TxCheckActive {
			rep.Diags = []Diagnostic{openCheckerWarn(lastOp)}
		}
		return rep, true
	}
	merged := make([]Diagnostic, 0, total+1)
	for _, s := range c.states {
		merged = append(merged, s.diags...)
	}
	merged = append(merged, c.coord.diags...)
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].OpIndex != merged[j].OpIndex {
			return merged[i].OpIndex < merged[j].OpIndex
		}
		return merged[i].sortKey < merged[j].sortKey
	})
	if c.states[0].TxCheckActive {
		merged = append(merged, openCheckerWarn(lastOp))
	}
	rep.Diags = merged
	return rep, true
}

// CheckTraceCfg checks one trace under an explicit stripe/GC config.
// It is the one-shot form used by golden-equivalence tests; engines and
// benchmarks hold a persistent Checker instead.
func CheckTraceCfg(rules RuleSet, t *trace.Trace, excludes []Range, cfg Config) (Report, CheckStats) {
	c := NewChecker(rules, cfg)
	defer c.Close()
	return c.Check(t, excludes)
}
