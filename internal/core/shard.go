package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmtest/internal/trace"
)

// Config selects the sharded streaming checker and its epoch GC. The zero
// value is today's behavior: one serial State per trace, no GC.
type Config struct {
	// Shards is the number of address stripes checked concurrently.
	// <= 1 keeps the single-state serial path.
	Shards int
	// ChunkBits is log2 of the minimum stripe chunk size: addresses are
	// assigned to stripes by (addr >> bits) % Shards, so consecutive
	// chunks of 1<<bits bytes rotate across stripes. Default 12 (4 KiB
	// pages). Splitting one operation's range across stripes would change
	// segment boundaries and with them diagnostic bytes, so the planner
	// coarsens the chunk size per trace until no op spans a chunk
	// (stripe state is reset per trace, making the geometry free to
	// vary); only a range wider than maxChunkBits forces the whole trace
	// onto the serial path.
	ChunkBits uint
	// EpochGC retires shadow-memory segments whose persist and flush
	// intervals both closed at least GCLag epochs before the current one,
	// bounding live intervals over long streaming runs. A later checker
	// or flush over a retired range sees it as never written, so reports
	// can differ from GC off: a FAIL can be dropped.
	EpochGC bool
	// GCLag is the retirement age in epochs; default 2. A larger lag
	// keeps more history for late flush/order checks of old ranges.
	GCLag uint64
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ChunkBits == 0 {
		c.ChunkBits = 12
	}
	if c.GCLag == 0 {
		c.GCLag = 2
	}
	return c
}

// Sharded reports whether the config asks for the striped path.
func (c Config) Sharded() bool { return c.Shards > 1 }

// active reports whether the config changes anything relative to the
// plain pooled serial path (striping or GC).
func (c Config) active() bool { return c.Shards > 1 || c.EpochGC }

// CheckStats is per-trace resource accounting from the configured
// checker: shadow-memory pressure and GC work, plus per-stripe checking
// time when timing is enabled.
type CheckStats struct {
	// Sharded reports whether the stripe path actually ran; false means
	// the trace took the serial path (Shards<=1, a custom rule set, or a
	// range crossing a chunk boundary forced the fallback).
	Sharded bool
	// PeakIntervals is the high-water mark of live shadow-memory
	// segments, sampled at every fence (summed across stripes).
	PeakIntervals int
	// RetiredIntervals counts segments retired by epoch GC.
	RetiredIntervals uint64
	// StripeDurs is per-stripe time spent applying ops, non-nil only
	// when the checker's Timed flag is set. The slice is reused across
	// traces; observers must copy it.
	StripeDurs []time.Duration
}

// maxChunkBits caps per-trace chunk coarsening at 16 MiB chunks: an op
// range that straddles even that line (a >16 MiB single object, or a
// wildly misaligned giant range) sends the trace to the serial path.
const maxChunkBits = 24

// shardable reports whether the rule set is a built-in whose
// isOrderedBefore flavor the stripe coordinator can replicate for
// cross-stripe checks. Custom rule sets check serially: their Apply may
// carry semantics the router cannot see.
func shardable(rules RuleSet) (byStart, ok bool) {
	switch rules.(type) {
	case X86, ARM:
		return false, true
	case HOPS, Epoch:
		return true, true
	}
	return false, false
}

// gcRetiredTotal is the process-global count of GC-retired shadow
// segments, exported through ResourceStats.
var gcRetiredTotal atomic.Uint64

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

// ShardedChecker checks traces against address-striped shadow memory:
// each stripe owns the interval maps for its address chunks and applies
// its ops on a dedicated persistent worker goroutine, while trace-global
// ops (fences, transaction boundaries, scope control) are broadcast to
// every stripe so each replays the same epoch and transaction structure.
// Per-stripe diagnostics are merged deterministically back into the
// serial emission order, so reports are byte-identical to CheckTrace.
//
// A checker is NOT safe for concurrent Check calls; each engine worker
// owns one. Close releases the stripe goroutines.
type ShardedChecker struct {
	cfg       Config
	rules     RuleSet
	byStart   bool
	striped   bool // Shards > 1 and rules shardable
	chunkBits uint // effective bits for the current trace (>= cfg.ChunkBits)

	// Timed enables per-stripe duration accounting in CheckStats. Set it
	// before the first Check; it must not be flipped concurrently.
	Timed bool

	states []*State
	serial *State // fallback / serial-config state, lazily created
	coord  *State // holds cross-stripe isOrderedBefore diagnostics

	ops        []trace.Op // current trace, visible to workers via cmds
	lists      [][]int32  // per-stripe op-index lists, reused
	cuts       []cut
	starts     []int32
	ends       []int32
	stopped    []bool
	trackedAll int

	stripeDurs []time.Duration
	pending    []atomic.Int64
	cmds       []chan stripeCmd
	wg         sync.WaitGroup
	panicked   atomic.Bool
}

// NewShardedChecker builds a checker for the given rules and config and
// starts one worker goroutine per stripe (none when the config or rule
// set forces the serial path).
func NewShardedChecker(rules RuleSet, cfg Config) *ShardedChecker {
	cfg = cfg.withDefaults()
	byStart, ok := shardable(rules)
	c := &ShardedChecker{
		cfg:     cfg,
		rules:   rules,
		byStart: byStart,
		striped: ok && cfg.Shards > 1,
	}
	if !c.striped {
		return c
	}
	n := cfg.Shards
	c.states = make([]*State, n)
	c.coord = &State{}
	c.lists = make([][]int32, n)
	c.starts = make([]int32, n)
	c.ends = make([]int32, n)
	c.stopped = make([]bool, n)
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
func (c *ShardedChecker) Close() {
	for _, ch := range c.cmds {
		close(ch)
	}
}

// StripeDepths returns the number of ops currently assigned to each
// stripe worker — the live imbalance gauge for the observability plane.
// Nil when the checker runs serially.
func (c *ShardedChecker) StripeDepths() []int64 {
	if !c.striped {
		return nil
	}
	out := make([]int64, len(c.pending))
	c.AddStripeDepths(out)
	return out
}

// AddStripeDepths accumulates the live per-stripe depths into dst (which
// must have at least Shards entries); engines sum across their workers.
func (c *ShardedChecker) AddStripeDepths(dst []int64) {
	for i := range c.pending {
		dst[i] += c.pending[i].Load()
	}
}

// stripeOf maps an address range to its owning stripe under the current
// trace's chunk geometry. ok is false when the range still crosses a
// chunk boundary, which cannot happen after plan's coarsening pass.
func (c *ShardedChecker) stripeOf(addr, size uint64) (int, bool) {
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
func (c *ShardedChecker) addCut(opIdx int32) {
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
// 1<<maxChunkBits bytes, which sends the whole trace to the serial path.
func (c *ShardedChecker) plan(ops []trace.Op) bool {
	c.chunkBits = c.cfg.ChunkBits
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
	c.trackedAll = 0
	for i := range ops {
		op := &ops[i]
		if !op.Kind.IsChecker() {
			c.trackedAll++
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

// Check runs one trace through the configured checker and returns its
// report plus resource stats. Reports are byte-identical to
// CheckTrace(rules, t) regardless of path taken.
func (c *ShardedChecker) Check(t *trace.Trace, excludes []Range) (Report, CheckStats) {
	if c.striped && c.plan(t.Ops) {
		if rep, stats, ok := c.checkStriped(t, excludes); ok {
			return rep, stats
		}
	}
	return c.checkSerial(t, excludes)
}

// checkStriped runs the stripe path. ok is false when any stripe (or the
// coordinator itself) panicked; the caller then re-checks serially, and
// the serial recovery produces the canonical CodeCheckerPanic report.
// The stripe workers always reach wg.Done (their recover is inside the
// per-command handler), so a bailed-out trace leaves no stuck state.
func (c *ShardedChecker) checkStriped(t *trace.Trace, excludes []Range) (rep Report, stats CheckStats, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	c.ops = t.Ops
	for i, s := range c.states {
		s.Reset()
		s.muted = i != 0
		s.gcOn = c.cfg.EpochGC
		s.gcLag = c.cfg.GCLag
		for _, r := range excludes {
			s.Excluded.Set(r.Addr, r.Addr+r.Size, struct{}{})
		}
		c.stopped[i] = false
		c.starts[i] = 0
		c.ends[i] = int32(len(c.lists[i]))
		if c.Timed {
			c.stripeDurs[i] = 0
		}
	}
	c.coord.diags = nil
	c.coord.opIndex = 0
	c.panicked.Store(false)

	for ci := range c.cuts {
		cu := &c.cuts[ci]
		c.runPhase(c.starts, cu.pos)
		if c.panicked.Load() {
			return rep, stats, false
		}
		c.coord.opIndex = int(cu.op)
		c.crossCheck(t.Ops[cu.op])
		copy(c.starts, cu.pos)
	}
	c.runPhase(c.starts, c.ends)
	if c.panicked.Load() {
		return rep, stats, false
	}

	rep = c.mergeReport(t)
	stats.Sharded = true
	for _, s := range c.states {
		if n := s.Mem.Len(); n > s.peakIntervals {
			s.peakIntervals = n
		}
		stats.PeakIntervals += s.peakIntervals
		stats.RetiredIntervals += s.gcRetired
	}
	if c.Timed {
		stats.StripeDurs = c.stripeDurs
	}
	gcRetiredTotal.Add(stats.RetiredIntervals)
	return rep, stats, true
}

// checkSerial is the single-state path: Shards<=1 configs, custom rule
// sets, chunk-crossing traces, and panic recovery all land here. Epoch
// GC still applies when configured.
func (c *ShardedChecker) checkSerial(t *trace.Trace, excludes []Range) (Report, CheckStats) {
	if c.serial == nil {
		c.serial = NewState()
	}
	s := c.serial
	s.Reset()
	s.gcOn = c.cfg.EpochGC
	s.gcLag = c.cfg.GCLag
	rep := CheckTraceInto(s, c.rules, t, excludes)
	if n := s.Mem.Len(); n > s.peakIntervals {
		s.peakIntervals = n
	}
	stats := CheckStats{PeakIntervals: s.peakIntervals, RetiredIntervals: s.gcRetired}
	gcRetiredTotal.Add(s.gcRetired)
	return rep, stats
}

// runPhase dispatches each stripe's list slice [from[i], to[i]) to its
// worker and waits for all of them — a barrier, entered only at trace
// start and at cross-stripe cuts.
func (c *ShardedChecker) runPhase(from, to []int32) {
	n := 0
	for i := range c.states {
		if from[i] < to[i] && !c.stopped[i] {
			n++
		}
	}
	if n == 0 {
		return
	}
	c.wg.Add(n)
	for i := range c.states {
		if from[i] < to[i] && !c.stopped[i] {
			c.pending[i].Store(int64(to[i] - from[i]))
			c.cmds[i] <- stripeCmd{from: from[i], to: to[i]}
		}
	}
	c.wg.Wait()
}

func (c *ShardedChecker) stripeWorker(i int) {
	s := c.states[i]
	for cmd := range c.cmds[i] {
		c.runStripe(i, s, cmd)
		c.pending[i].Store(0)
		c.wg.Done()
	}
}

func (c *ShardedChecker) runStripe(i int, s *State, cmd stripeCmd) {
	defer func() {
		if r := recover(); r != nil {
			c.panicked.Store(true)
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
			// Bound per-stripe memory. The serial truncation point can
			// never precede this op (see mergeReport), so the merged
			// output is unaffected by stopping here.
			c.stopped[i] = true
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
func (c *ShardedChecker) crossCheck(op trace.Op) {
	sa, _ := c.stripeOf(op.Addr, op.Size)
	sb, _ := c.stripeOf(op.Addr2, op.Size2)
	co := c.coord
	co.segScratch = c.states[sa].persistIntervals(co.segScratch[:0], op.Addr, op.Addr+op.Size)
	co.segScratch2 = c.states[sb].persistIntervals(co.segScratch2[:0], op.Addr2, op.Addr2+op.Size2)
	co.orderedBeforeSegs(op, c.byStart, co.segScratch, co.segScratch2)
}

// trackedThrough counts non-checker ops in ops[:j+1].
func trackedThrough(ops []trace.Op, j int) int {
	n := 0
	for i := 0; i <= j && i < len(ops); i++ {
		if !ops[i].Kind.IsChecker() {
			n++
		}
	}
	return n
}

// txCheckActiveAfter replays only the checker-scope kinds of ops[:j+1]
// to reconstruct TxCheckActive as the serial checker would have left it
// at the truncation point. Scope state is a pure function of the kind
// sequence: START sets it, END clears it (an unmatched END leaves it
// clear either way).
func txCheckActiveAfter(ops []trace.Op, j int) bool {
	active := false
	for i := 0; i <= j && i < len(ops); i++ {
		switch ops[i].Kind {
		case trace.KindTxCheckerStart:
			active = true
		case trace.KindTxCheckerEnd:
			active = false
		}
	}
	return active
}

// openCheckerWarn is the trailing diagnostic CheckTraceInto emits when a
// trace ends (or truncates) inside an open TX_CHECKER scope.
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
// The diagnostic cap and the trailing open-scope warning are
// reconstructed from the merged sequence.
func (c *ShardedChecker) mergeReport(t *trace.Trace) Report {
	ops := t.Ops
	lastOp := len(ops) - 1
	if lastOp < 0 {
		lastOp = 0
	}
	total := len(c.coord.diags)
	for _, s := range c.states {
		total += len(s.diags)
	}
	rep := Report{TraceID: t.ID, Thread: t.Thread, Ops: len(ops), TrackedOps: c.trackedAll}
	if total == 0 {
		// Clean fast path: no merge, no allocation.
		if c.states[0].TxCheckActive {
			rep.Diags = []Diagnostic{openCheckerWarn(lastOp)}
		}
		return rep
	}
	merged := make([]Diagnostic, 0, total+2)
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
	if total >= maxDiagsPerTrace {
		// The serial checker truncates after the first op j whose
		// cumulative diagnostic count reaches the cap — j is the op index
		// of the cap-th merged diagnostic. Each stripe is provably
		// complete through op j: its own count before j is bounded by the
		// serial cumulative count, which is below the cap there.
		j := merged[maxDiagsPerTrace-1].OpIndex
		keep := len(merged)
		for keep > 0 && merged[keep-1].OpIndex > j {
			keep--
		}
		merged = merged[:keep]
		merged = append(merged, Diagnostic{
			Severity: SeverityInfo,
			Code:     CodeTruncated,
			Message: fmt.Sprintf("diagnostics capped at %d; %d of %d ops checked",
				maxDiagsPerTrace, j+1, len(ops)),
			Site:    "?",
			OpIndex: j,
		})
		if txCheckActiveAfter(ops, j) {
			merged = append(merged, openCheckerWarn(j))
		}
		rep.TrackedOps = trackedThrough(ops, j)
		rep.Diags = merged
		return rep
	}
	if c.states[0].TxCheckActive {
		merged = append(merged, openCheckerWarn(lastOp))
	}
	rep.Diags = merged
	return rep
}

// CheckTraceCfg checks one trace under an explicit sharding/GC config.
// It is the one-shot form used by golden-equivalence tests; engines and
// benchmarks hold a persistent ShardedChecker instead.
func CheckTraceCfg(rules RuleSet, t *trace.Trace, excludes []Range, cfg Config) (Report, CheckStats) {
	c := NewShardedChecker(rules, cfg)
	defer c.Close()
	return c.Check(t, excludes)
}
