package pmtest_test

// Benchmarks regenerating every figure and table of the paper's
// evaluation (§6), plus ablations of PMTest's design choices. Run with
//
//	go test -bench=. -benchmem
//
// or a single artifact, e.g. -bench=BenchmarkFig10a. The cmd/repro tool
// prints the same data as formatted tables with slowdown columns.

import (
	"fmt"
	"testing"

	pmtestpkg "pmtest"
	"pmtest/internal/core"
	"pmtest/internal/harness"
	"pmtest/internal/interval"
	"pmtest/internal/mnemosyne"
	"pmtest/internal/obs"
	"pmtest/internal/pmdk"
	"pmtest/internal/pmem"
	tracepkg "pmtest/internal/trace"
	"pmtest/internal/whisper"
)

// benchN is the insertions per iteration for microbenchmarks: small
// enough for testing.B calibration, large enough to amortize setup.
const benchN = 2000

func runMicro(b *testing.B, store string, txSize uint64, tool harness.Tool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := harness.MicroBench(store, txSize, benchN, tool, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Fails > 0 {
			b.Fatalf("clean workload reported %d FAILs", res.Fails)
		}
	}
	b.ReportMetric(float64(benchN)*float64(b.N)/b.Elapsed().Seconds(), "inserts/s")
}

// BenchmarkFig10a: the five microbenchmarks across transaction sizes
// under no tool, PMTest and Pmemcheck — the slowdown comparison of
// Fig. 10a. Compare "none" vs "PMTest" vs "Pmemcheck" times per
// sub-benchmark to obtain the figure's y-axis.
func BenchmarkFig10a(b *testing.B) {
	tools := []struct {
		name string
		tool harness.Tool
	}{
		{"none", harness.ToolNone},
		{"PMTest", harness.ToolPMTest},
		{"Pmemcheck", harness.ToolPmemcheck},
	}
	for _, store := range harness.MicroStores {
		for _, size := range []uint64{64, 256, 1024, 4096} {
			for _, tl := range tools {
				b.Run(fmt.Sprintf("%s/tx%d/%s", store, size, tl.name), func(b *testing.B) {
					runMicro(b, store, size, tl.tool)
				})
			}
		}
	}
}

// BenchmarkFig10b: PMTest tracking-only vs full checking — the overhead
// breakdown of Fig. 10b (framework = track-only − none; checker = full −
// track-only).
func BenchmarkFig10b(b *testing.B) {
	for _, store := range harness.MicroStores {
		for _, size := range []uint64{64, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/tx%d/framework", store, size), func(b *testing.B) {
				runMicro(b, store, size, harness.ToolPMTestTrack)
			})
			b.Run(fmt.Sprintf("%s/tx%d/full", store, size), func(b *testing.B) {
				runMicro(b, store, size, harness.ToolPMTest)
			})
		}
	}
}

// BenchmarkFig11: the real workloads of Table 4 under no tool and PMTest
// — Fig. 11's slowdown bars.
func BenchmarkFig11(b *testing.B) {
	const nOps = 4000
	for _, wl := range harness.RealWorkloads {
		for _, tl := range []struct {
			name string
			tool harness.Tool
		}{{"none", harness.ToolNone}, {"PMTest", harness.ToolPMTest}} {
			b.Run(fmt.Sprintf("%s/%s", wl, tl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := harness.RealBench(wl, nOps, tl.tool)
					if err != nil {
						b.Fatal(err)
					}
					if res.Fails > 0 {
						b.Fatalf("clean workload reported %d FAILs", res.Fails)
					}
				}
			})
		}
	}
}

// BenchmarkFig12: Memcached with scaled server threads and PMTest
// workers — Fig. 12a (threads), 12b (workers) and 12c (both).
func BenchmarkFig12(b *testing.B) {
	const opsPerClient = 1500
	run := func(b *testing.B, threads, workers int) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.ScaleBench("memslap", threads, workers, opsPerClient); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, th := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("12a/threads%d-workers1", th), func(b *testing.B) { run(b, th, 1) })
	}
	for _, wk := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("12b/threads4-workers%d", wk), func(b *testing.B) { run(b, 4, wk) })
	}
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("12c/threads%d-workers%d", k, k), func(b *testing.B) { run(b, k, k) })
	}
}

// BenchmarkTable5: the cost of one full synthetic-bug sweep — Table 5's
// detection run (time dominated by the 42 instrumented workload runs).
func BenchmarkTable5(b *testing.B) {
	// Import cycle note: bugdb depends only on internal packages; the
	// sweep itself is executed via cmd/bughunt or the bugdb tests. Here
	// we benchmark the engine-side cost of a representative buggy trace.
	ops := buggyTxTrace(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CheckTrace(core.X86{}, &tracepkg.Trace{Ops: ops})
	}
}

// buggyTxTrace builds a transaction trace with a missing TX_ADD.
func buggyTxTrace(writes int) []tracepkg.Op {
	ops := []tracepkg.Op{{Kind: tracepkg.KindTxCheckerStart}, {Kind: tracepkg.KindTxBegin}}
	for i := 0; i < writes; i++ {
		addr := uint64(0x1000 + i*64)
		if i%2 == 0 {
			ops = append(ops, tracepkg.Op{Kind: tracepkg.KindTxAdd, Addr: addr, Size: 64})
		}
		ops = append(ops, tracepkg.Op{Kind: tracepkg.KindWrite, Addr: addr, Size: 64})
		ops = append(ops, tracepkg.Op{Kind: tracepkg.KindFlush, Addr: addr, Size: 64})
	}
	ops = append(ops, tracepkg.Op{Kind: tracepkg.KindFence},
		tracepkg.Op{Kind: tracepkg.KindTxEnd}, tracepkg.Op{Kind: tracepkg.KindTxCheckerEnd})
	return ops
}

// --- Ablations of PMTest's design choices (DESIGN.md §6) --------------------

// BenchmarkAblationDecoupled vs Inline: checking on worker goroutines
// (the paper's Fig. 8 pipeline) vs synchronously on the program thread.
func BenchmarkAblationDecoupled(b *testing.B) {
	b.Run("decoupled", func(b *testing.B) { runMicro(b, "ctree", 512, harness.ToolPMTest) })
	b.Run("inline", func(b *testing.B) { runMicro(b, "ctree", 512, harness.ToolPMTestInline) })
}

// BenchmarkAblationSectioning: per-transaction trace sections vs one
// monolithic end-of-run trace (PMTest_SEND_TRACE granularity, §4.2).
func BenchmarkAblationSectioning(b *testing.B) {
	b.Run("per-tx-sections", func(b *testing.B) { runMicro(b, "ctree", 512, harness.ToolPMTest) })
	b.Run("monolithic", func(b *testing.B) { runMicro(b, "ctree", 512, harness.ToolPMTestMonolithic) })
}

// BenchmarkAblationGranularity: coarse range tracking (PMTest) vs
// byte-granular tracking (pmemcheck's model).
func BenchmarkAblationGranularity(b *testing.B) {
	b.Run("range-granular", func(b *testing.B) { runMicro(b, "hashmap-ll", 2048, harness.ToolPMTest) })
	b.Run("byte-granular", func(b *testing.B) { runMicro(b, "hashmap-ll", 2048, harness.ToolPmemcheck) })
}

// BenchmarkAblationShadow: the interval-tree shadow memory vs a flat
// per-byte map for identical operation streams (§4.4's O(log n) claim),
// and the treap vs interval.Map, the sorted slice the checker uses until
// a map holds more than 1 024 segments (EXPERIMENTS.md, "Flat shadow
// memory"). The front-insert arms hold n segments of the checker's size
// and time one Set in front of all of them plus the Delete that undoes
// it: the slice's worst case, and the reason the Map becomes a treap.
// The gc-stream arms check a section shaped like the end-to-end
// benchmark's stream_striped ones, where every flush edits the map in
// place and every fence closes and retires segments in one pass
// (EXPERIMENTS.md, "In-place shadow edits").
func BenchmarkAblationShadow(b *testing.B) {
	b.Run("interval-tree", func(b *testing.B) {
		ablateReplace(b, func() shadowMap[int] { return interval.New[int]() })
	})
	b.Run("interval-map", func(b *testing.B) {
		ablateReplace(b, func() shadowMap[int] { return interval.NewMap[int]() })
	})
	b.Run("byte-map", func(b *testing.B) {
		const ranges = 4096
		for i := 0; i < b.N; i++ {
			m := make(map[uint64]int)
			for j := 0; j < ranges; j++ {
				lo := uint64(j%1024) * 256
				for a := lo; a < lo+256; a++ {
					m[a] = j
				}
			}
			n := 0
			for range m {
				n++
			}
		}
	})
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("front-insert/tree/%d", n), func(b *testing.B) {
			ablateFrontInsert(b, interval.New[shadowStatus](), n)
		})
		b.Run(fmt.Sprintf("front-insert/map/%d", n), func(b *testing.B) {
			ablateFrontInsert(b, interval.NewMap[shadowStatus](), n)
		})
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("gc-stream/shards%d", shards), func(b *testing.B) {
			ablateGCStream(b, shards)
		})
	}
}

// shadowMap is the part of the interval-map API the shadow ablation
// drives; interval.Tree and interval.Map both have it.
type shadowMap[V any] interface {
	Set(lo, hi uint64, v V)
	Delete(lo, hi uint64)
	Visit(lo, hi uint64, f func(interval.Seg[V]) bool)
}

// shadowStatus is as large as the checker's per-segment status, so a
// slice of its segments moves as many bytes as the shadow memory's.
type shadowStatus [8]uint64

// ablateReplace sets 4096 ranges over 1024 slots of a fresh map, so three
// of every four Sets replace a segment exactly, then visits them all.
func ablateReplace(b *testing.B, newMap func() shadowMap[int]) {
	const ranges = 4096
	for i := 0; i < b.N; i++ {
		tr := newMap()
		for j := 0; j < ranges; j++ {
			lo := uint64(j%1024) * 256
			tr.Set(lo, lo+256, j)
		}
		tr.Visit(0, 1024*256, func(interval.Seg[int]) bool { return true })
	}
}

// ablateFrontInsert fills m with n-1 segments above address 64, then
// times inserting the n-th in front of them and deleting it again.
func ablateFrontInsert(b *testing.B, m shadowMap[shadowStatus], n int) {
	for k := 1; k < n; k++ {
		m.Set(uint64(k)*64, uint64(k)*64+32, shadowStatus{uint64(k)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(0, 32, shadowStatus{uint64(i)})
		m.Delete(0, 32)
	}
}

// ablateGCStream checks, on a warm checker with epoch GC and the given
// number of stripes, one section of stream_striped's shape: 128 rounds,
// each writing and writing back 256 64-byte objects at 4 KiB stride and
// ending with a fence, the window rotating over 4 096 slots (65 664 ops).
func ablateGCStream(b *testing.B, shards int) {
	const rounds, window, slots = 128, 256, 4096
	var ops []tracepkg.Op
	for r := 0; r < rounds; r++ {
		for w := 0; w < window; w++ {
			a := uint64((1000+r*window+w)%slots) * 4096
			ops = append(ops,
				tracepkg.Op{Kind: tracepkg.KindWrite, Addr: a, Size: 64},
				tracepkg.Op{Kind: tracepkg.KindFlush, Addr: a, Size: 64})
		}
		ops = append(ops, tracepkg.Op{Kind: tracepkg.KindFence})
	}
	tr := &tracepkg.Trace{Ops: ops}
	c := core.NewChecker(core.X86{}, core.Config{Shards: shards, EpochGC: true})
	defer c.Close()
	c.Check(tr, nil) // warm the segment slices
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, _ := c.Check(tr, nil); !rep.Clean() {
			b.Fatal("clean stream section flagged")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/pmop")
}

// BenchmarkEngineThroughput: raw checking-engine throughput on a
// realistic transaction trace (ops/s of the core contribution).
func BenchmarkEngineThroughput(b *testing.B) {
	ops := cleanTxTrace(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.CheckTrace(core.X86{}, &tracepkg.Trace{Ops: ops})
		if !r.Clean() {
			b.Fatal("clean trace flagged")
		}
	}
	b.ReportMetric(float64(len(ops))*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func cleanTxTrace(writes int) []tracepkg.Op {
	ops := []tracepkg.Op{{Kind: tracepkg.KindTxCheckerStart}, {Kind: tracepkg.KindTxBegin}}
	for i := 0; i < writes; i++ {
		addr := uint64(0x1000 + i*64)
		ops = append(ops,
			tracepkg.Op{Kind: tracepkg.KindTxAdd, Addr: addr, Size: 64},
			tracepkg.Op{Kind: tracepkg.KindWrite, Addr: addr, Size: 64},
			tracepkg.Op{Kind: tracepkg.KindFlush, Addr: addr, Size: 64})
	}
	ops = append(ops, tracepkg.Op{Kind: tracepkg.KindFence},
		tracepkg.Op{Kind: tracepkg.KindTxEnd}, tracepkg.Op{Kind: tracepkg.KindTxCheckerEnd})
	return ops
}

// BenchmarkWorkerScaling: engine throughput with 1, 2 and 4 checking
// workers fed from one producer (the master/worker pipeline of Fig. 8).
func BenchmarkWorkerScaling(b *testing.B) {
	ops := cleanTxTrace(128)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			e := core.NewEngine(core.Options{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Submit(&tracepkg.Trace{Ops: ops})
			}
			e.Wait()
			b.StopTimer()
			e.Close()
		})
	}
}

// BenchmarkObserverOverhead: engine Submit→check pipeline with no
// observer vs a full obs.Metrics registry. The no-observer variant must
// stay within noise of the seed (the engine takes no timestamps on that
// path); the metrics variant bounds the cost of turning observability on.
func BenchmarkObserverOverhead(b *testing.B) {
	ops := cleanTxTrace(128)
	run := func(b *testing.B, o obs.Observer) {
		e := core.NewEngine(core.Options{Workers: 2, Observer: o})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Submit(&tracepkg.Trace{Ops: ops})
		}
		e.Wait()
		b.StopTimer()
		e.Close()
	}
	b.Run("no-observer", func(b *testing.B) { run(b, nil) })
	b.Run("metrics", func(b *testing.B) { run(b, obs.NewMetrics(64)) })
}

// BenchmarkVacation: the STAMP-style multi-table reservation workload
// (an additional WHISPER benchmark) with and without PMTest.
func BenchmarkVacation(b *testing.B) {
	run := func(b *testing.B, checked bool) {
		for i := 0; i < b.N; i++ {
			var sess *pmtestpkg.Session
			var sink tracepkg.Sink
			if checked {
				sess = pmtestpkg.Init(pmtestpkg.Config{})
				th := sess.ThreadInit()
				th.Start()
				sink = th
			}
			dev := pmem.New(1<<24, sink)
			v, err := whisper.NewVacation(dev, 64, 32, 8)
			if err != nil {
				b.Fatal(err)
			}
			v.SetCheckers(checked)
			for j := uint64(0); j < 1000; j++ {
				if err := v.MakeReservation(j%32, int(j%3), j%64); err != nil &&
					err != whisper.ErrSoldOut {
					b.Fatal(err)
				}
			}
			if sess != nil {
				reports := sess.Exit()
				for _, r := range reports {
					if r.Fails() > 0 {
						b.Fatal("clean vacation flagged")
					}
				}
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, false) })
	b.Run("PMTest", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationLogging: undo logging (pmdk) vs redo logging
// (mnemosyne) for the same durable-update pattern — the two library
// disciplines of paper Fig. 2 have different persist-ordering costs.
func BenchmarkAblationLogging(b *testing.B) {
	const writes = 500
	b.Run("undo-pmdk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := pmem.New(1<<24, nil)
			p, err := pmdk.Create(dev, 0)
			if err != nil {
				b.Fatal(err)
			}
			off, _ := p.Alloc(64 * writes)
			for j := uint64(0); j < writes; j++ {
				err := p.Tx(func(tx *pmdk.Tx) error {
					tx.Add(off+j*64, 8)
					tx.Set64(off+j*64, j)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("redo-mnemosyne", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := pmem.New(1<<24, nil)
			r, err := mnemosyne.Create(dev, 1<<16)
			if err != nil {
				b.Fatal(err)
			}
			off := r.DataOff()
			for j := uint64(0); j < writes; j++ {
				err := r.Durable(func(w *mnemosyne.TxWriter) error {
					return w.Write64(off+j*64, j)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
