package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"pmtest"
	"pmtest/internal/pmem"
	"pmtest/internal/trace"
	"pmtest/internal/whisper"
)

// workload is one set of seeded inputs run through one program under one
// PMTest configuration. Each stresses a different layer; the comment on
// each entry of workloads names the layer and the workload that bypasses
// it.
type workload struct {
	name string
	why  string
	// size is the number of app ops per round.
	size int
	// rounds is the number of measured native/PMTest pairs in an untraced
	// run. It is fixed, so both sides of a comparison take the same number
	// of samples, and even, so the pair order alternates (ABBA).
	rounds int
	// natives is the number of native rounds in each pair (0: one). A
	// native round of tens of milliseconds varies by a fifth from round to
	// round on a shared host, so a short one is repeated.
	natives int
	// program builds size app ops of seeded inputs and the program that
	// consumes them.
	program func(seed int64, size int) *program
	// config is the PMTest configuration of the measured rounds.
	config pmtest.Config
	// remote sends sections to an in-process checker node over HTTP.
	remote bool
}

var workloads = []workload{
	// Dense in PM ops with small tx-checker sections: record, section cut,
	// the engine queue and per-section checking carry the time (Fig. 10a).
	// It bypasses striping, epoch GC and remote checking.
	{
		name:    "micro_ctree",
		why:     "WHISPER C-Tree inserts, one section each: record, cut, queue and per-section check dominate (Fig. 10a)",
		size:    60_000,
		rounds:  16,
		program: ctreeProgram,
	},
	// Gets emit no PM ops, so the program dominates and fixed per-op and
	// per-section framework costs show; a checking gain that adds record
	// cost shows up here as a loss.
	{
		name:    "kv_ycsb",
		why:     "Memcached on Mnemosyne under YCSB-A: half the ops emit no PM ops, so fixed per-op framework costs show",
		size:    300_000,
		rounds:  16,
		program: kvProgram,
	},
	// The only workload with huge sections, striping and epoch GC; its
	// bypass is micro_ctree.
	{
		name:    "stream_striped",
		why:     "fence-sparse 4M-op stream in 64Ki-op sections on 4 stripes with epoch GC: the sharded checker's path",
		size:    streamRounds,
		rounds:  8,
		program: streamProgram,
		config:  pmtest.Config{Shards: 4, EpochGC: true},
	},
	// micro_ctree's program through the client buffer, encode, one HTTP
	// connection and a node; the session is long enough that per-section
	// costs growing with session length show. The default 16 MiB client
	// buffer holds about 10 700 of its sections; past that every insert
	// waits for the node. At 15 000 inserts under a third of them wait, so
	// the median op stays clear of that cliff (at 20 000 it sat on it).
	{
		name:    "remote_ctree",
		why:     "micro_ctree's program checked by an in-process pmtestd node over HTTP: encode, RTT and node costs",
		size:    15_000,
		rounds:  8,
		natives: 4,
		program: ctreeProgram,
		remote:  true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// program is one round's worth of a workload: a fixed number of app ops
// over inputs generated from the seed.
type program struct {
	// appOps is the number of app ops per round: one insert, one KV op or
	// one window round.
	appOps int
	// recordOps is how many app ops setup records for the oracle and the
	// trace codec sample (appOps unless a serial oracle is too slow).
	recordOps int
	// sectionOps, when non-zero, replaces the serial oracle: every report
	// must be clean and cover exactly this many ops.
	sectionOps int
	// expectFail reports whether recorded section k must FAIL.
	expectFail func(k int) bool
	// writesPM reports whether app op i records PM ops (nil: every op
	// does). Only these ops are latency samples: a KV get records nothing,
	// and mixing it in puts the median on the cliff between two modes.
	writesPM func(i int) bool
	// start builds fresh program state on a new device whose PM ops go to
	// sink (nil: no tool attached). cut, when non-nil, is called wherever
	// the program ends a trace section.
	start func(sink trace.Sink, cut func()) (*round, error)
}

// round is live program state for one round.
type round struct {
	// step runs app op i, including the section cut that follows it.
	step func(i int) error
	// verify checks the program's own output after the round.
	verify func() error
}

// seededBytes returns n bytes drawn from rng.
func seededBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

const (
	ctreeValSize = 256
	// ctreeFaultEvery is the period of inserts whose value writeback is
	// dropped; the seed picks the phase.
	ctreeFaultEvery = 256
)

// clwbDropper is a pmem.FaultHook that, while armed, drops the first clwb
// of exactly size bytes. In a C-Tree insert the only clwb of the value's
// size is the commit writeback of the new value, so the insert's TX
// checker must report that value as not persisted.
type clwbDropper struct {
	size    uint64
	armed   bool
	dropped uint64 // address of the dropped clwb, valid while !armed
}

func (d *clwbDropper) BeforeStore(_ uint64, data []byte) int { return len(data) }
func (d *clwbDropper) BeforeFence() bool                     { return true }
func (d *clwbDropper) AfterFence()                           {}

func (d *clwbDropper) BeforeFlush(addr, size uint64) bool {
	if d.armed && size == d.size {
		d.armed, d.dropped = false, addr
		return false
	}
	return true
}

// evictDropped lets the cache evict the lines whose writeback was
// dropped, as hardware eventually does (it emits no trace op). Left
// dirty, they would stay in the simulated cache for the rest of the
// round and every later sfence would rescan them.
func (d *clwbDropper) evictDropped(dev *pmem.Device) {
	for base := d.dropped &^ (pmem.LineSize - 1); base < d.dropped+d.size; base += pmem.LineSize {
		dev.EvictLine(base)
	}
}

// ctreeProgram inserts n seeded keys with 256-byte values into a WHISPER
// C-Tree, one PMDK transaction and one section per insert. One insert in
// every ctreeFaultEvery loses its value writeback.
func ctreeProgram(seed int64, n int) *program {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	last := make(map[uint64]int, n)
	for i := range keys {
		keys[i] = rng.Uint64() >> 16
		last[keys[i]] = i
	}
	pool := seededBytes(rng, 64<<10)
	val := func(i int) []byte {
		off := (i * 61) % (len(pool) - ctreeValSize)
		return pool[off : off+ctreeValSize]
	}
	phase := rng.Intn(ctreeFaultEvery)
	faulty := func(i int) bool { return i%ctreeFaultEvery == phase }
	// Values and nodes are line-aligned allocations; the rest is the pool
	// header and its 1 MiB undo log.
	devSize := uint64(n)*(ctreeValSize+pmem.LineSize) + 2<<20

	return &program{
		appOps:     n,
		recordOps:  n,
		expectFail: faulty,
		start: func(sink trace.Sink, cut func()) (*round, error) {
			dev := pmem.New(devSize, sink)
			hook := &clwbDropper{size: ctreeValSize}
			dev.SetFaultHook(hook)
			t, err := whisper.NewCTree(dev, nil)
			if err != nil {
				return nil, err
			}
			t.SetCheckers(sink != nil)
			step := func(i int) error {
				fault := faulty(i)
				hook.armed = fault
				err := t.Insert(keys[i], val(i))
				if fault && !hook.armed {
					hook.evictDropped(dev)
				}
				hook.armed = false
				if cut != nil {
					cut()
				}
				return err
			}
			verify := func() error {
				// A sample of keys, each must hold its last inserted value.
				for i := 0; i < n; i += 59 {
					k := keys[i]
					got, ok := t.Get(k)
					if want := val(last[k]); !ok || string(got) != string(want) {
						return fmt.Errorf("ctree: key %d lost its value", k)
					}
				}
				return nil
			}
			return &round{step: step, verify: verify}, nil
		},
	}
}

const (
	kvKeys    = 5000
	kvValSize = 128
	kvSlots   = 1 << 14
	kvValCap  = 256
)

// kvProgram drives a one-shard WHISPER Memcached (Mnemosyne redo log)
// with n YCSB-A ops: 50 % get, 50 % update, zipfian keys. The server's
// section hook cuts a section after every op; gets record nothing, so
// only updates ship sections.
func kvProgram(seed int64, n int) *program {
	ops := whisper.YCSBOps(n, kvKeys, kvValSize, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pool := seededBytes(rng, 64<<10)
	val := func(i int) []byte {
		off := (i * 37) % (len(pool) - kvValSize)
		return pool[off : off+kvValSize]
	}
	last := map[uint64]int{}
	for i, op := range ops {
		if op.IsSet {
			last[op.Key] = i
		}
	}
	return &program{
		appOps:     n,
		recordOps:  n,
		expectFail: func(int) bool { return false },
		writesPM:   func(i int) bool { return ops[i].IsSet },
		start: func(sink trace.Sink, cut func()) (*round, error) {
			dev := pmem.New(whisper.MemcachedShardSpace(kvSlots, kvValCap), sink)
			m, err := whisper.NewMemcached([]*pmem.Device{dev}, kvSlots, kvValCap)
			if err != nil {
				return nil, err
			}
			m.SetCheckers(sink != nil)
			if cut != nil {
				m.SetSectionHook(0, cut)
			}
			step := func(i int) error {
				op := ops[i]
				if op.IsSet {
					return m.Set(op.Key, val(i))
				}
				m.Get(op.Key)
				return nil
			}
			verify := func() error {
				for k, i := range last {
					got, ok := m.Get(k)
					if want := val(i); !ok || string(got) != string(want) {
						return fmt.Errorf("kv: key %d lost its value", k)
					}
				}
				return nil
			}
			return &round{step: step, verify: verify}, nil
		},
	}
}

const (
	streamWindow = 256     // objects written per window round
	streamStride = 4 << 10 // one object per 4 KiB chunk, so stripes spread
	streamSlots  = 4096    // the window rotates over a 16 MiB device
	// streamRounds window rounds of 2*streamWindow+1 PM ops make 4.0M ops
	// in sections of streamSectionRounds rounds (65 664 ops, ~64 Ki); a
	// round count must be a multiple of streamSectionRounds.
	streamSectionRounds = 128
	streamRounds        = 61 * streamSectionRounds
	streamRoundOps      = 2*streamWindow + 1
)

// streamProgram is a long-running, fence-sparse program: every window
// round writes and writes back 256 64-byte objects and ends with one
// sfence, then the window advances. Setup records two sections at most:
// a serial oracle over the whole 4M-op stream would dominate setup.
func streamProgram(seed int64, rounds int) *program {
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(streamSlots)
	obj := seededBytes(rng, 64)
	addr := func(i, w int) uint64 {
		return uint64((first+i*streamWindow+w)%streamSlots) * streamStride
	}
	return &program{
		appOps:     rounds,
		recordOps:  min(rounds, 2*streamSectionRounds),
		sectionOps: streamSectionRounds * streamRoundOps,
		expectFail: func(int) bool { return false },
		start: func(sink trace.Sink, cut func()) (*round, error) {
			dev := pmem.New(streamSlots*streamStride, sink)
			data := append([]byte(nil), obj...)
			step := func(i int) error {
				binary.LittleEndian.PutUint64(data, uint64(i))
				for w := 0; w < streamWindow; w++ {
					a := addr(i, w)
					dev.Store(a, data)
					dev.CLWB(a, uint64(len(data)))
				}
				dev.SFence()
				if cut != nil && (i+1)%streamSectionRounds == 0 {
					cut()
				}
				return nil
			}
			verify := func() error {
				if n := dev.DirtyLines(); n != 0 {
					return fmt.Errorf("stream: %d lines still dirty after the last fence", n)
				}
				lastRound := rounds - 1
				for w := 0; w < streamWindow; w++ {
					if got := dev.Load64(addr(lastRound, w)); got != uint64(lastRound) {
						return fmt.Errorf("stream: object %d of the last round holds %d", w, got)
					}
				}
				return nil
			}
			return &round{step: step, verify: verify}, nil
		},
	}
}
