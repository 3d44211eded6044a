package core

import (
	"testing"

	"pmtest/internal/trace"
)

// FuzzShardRouter: for arbitrary operation soups — hostile nesting,
// chunk-crossing ranges, zero sizes, checker spam — the configured
// checker (striping, GC, serial fallbacks included) must produce a
// report byte-identical to the serial checker, under every built-in
// rule set and several stripe geometries. Tiny chunks (256 B) make
// chunk-crossing fallbacks and cross-stripe ordered checks common
// instead of rare.
func FuzzShardRouter(f *testing.F) {
	f.Add([]byte{1, 3, 4, 1, 10}, uint8(4))
	f.Add([]byte{7, 9, 1, 8, 12, 13}, uint8(2))
	f.Add([]byte{14, 1, 15, 1, 11, 2, 5}, uint8(7))
	f.Add([]byte{12, 1, 3, 4, 13, 12, 1, 4, 13}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shards uint8) {
		if len(data) == 0 {
			return
		}
		var ops []trace.Op
		for i, b := range data {
			kind := trace.Kind(b%15 + 1)
			addr := uint64(b) * 13 % 4096
			size := uint64(data[(i+1)%len(data)])%256 + 1
			ops = append(ops, trace.Op{
				Kind: kind, Addr: addr, Size: size,
				Addr2: (addr + size) % 4096, Size2: size / 2,
			})
			if len(ops) > 512 {
				break
			}
		}
		tr := &trace.Trace{Ops: ops}
		cfg := Config{Shards: int(shards%8) + 2, chunkBits: 8}
		// The oracle is like-for-like: striping must never change a
		// report at equal GC settings. (GC-on vs GC-off is NOT invariant
		// on adversarial soup: once a segment is retired, a checker or
		// flush over its range sees a never-written gap, so GC can drop
		// a FAIL, such as an order-violation, or change a warning. The
		// harness goldens pin that the recorded workloads do not hit
		// this.)
		gcCfg := cfg
		gcCfg.EpochGC = true
		serialGC := Config{Shards: 1, EpochGC: true}
		for _, rules := range []RuleSet{X86{}, HOPS{}, Epoch{}} {
			want := renderReport(CheckTrace(rules, tr))
			rep, _ := CheckTraceCfg(rules, tr, nil, cfg)
			if got := renderReport(rep); got != want {
				t.Fatalf("sharded diverges under %s cfg %+v\n--- serial ---\n%s--- sharded ---\n%s",
					rules.Name(), cfg, want, got)
			}
			gcWant, _ := CheckTraceCfg(rules, tr, nil, serialGC)
			gcRep, _ := CheckTraceCfg(rules, tr, nil, gcCfg)
			if got, want := renderReport(gcRep), renderReport(gcWant); got != want {
				t.Fatalf("sharded+GC diverges from serial+GC under %s cfg %+v\n--- serial+gc ---\n%s--- sharded+gc ---\n%s",
					rules.Name(), gcCfg, want, got)
			}
		}
	})
}
