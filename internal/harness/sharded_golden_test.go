package harness

// Golden-equivalence tests for the sharded streaming checker: address
// striping, epoch barriers and epoch GC must never change a verdict.
// Every recorded whisper micro suite and every bad-trace fixture must
// produce a Report byte-identical to the serial single-state checker,
// with sharding on (shards=4) and with epoch GC layered on top.
//
// On mismatch the full serial/sharded renderings are written to the
// directory named by PMTEST_SHARDED_DIFF_DIR (when set) so CI can
// upload them as an artifact.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmtest/internal/core"
	"pmtest/internal/kfifo"
	"pmtest/internal/pmdk"
	"pmtest/internal/pmem"
	"pmtest/internal/trace"
)

// shardedCfgs are the configurations the suite proves equivalent to the
// serial checker. GC at lag 1 retires as aggressively as the
// implementation allows, forcing at least one GC pass on any section
// with two or more fences.
var shardedCfgs = []core.Config{
	{Shards: 4},
	{Shards: 4, EpochGC: true},
	{Shards: 4, EpochGC: true, GCLag: 1},
}

func cfgName(cfg core.Config) string {
	name := fmt.Sprintf("shards%d", cfg.Shards)
	if cfg.EpochGC {
		name += "+gc"
		if cfg.GCLag != 0 {
			name += fmt.Sprintf("%d", cfg.GCLag)
		}
	}
	return name
}

// writeDiffArtifact dumps the two renderings for CI to collect. Errors
// are reported but non-fatal: the test failure itself carries the diff.
func writeDiffArtifact(t *testing.T, name, serial, sharded string) {
	dir := os.Getenv("PMTEST_SHARDED_DIFF_DIR")
	if dir == "" {
		return
	}
	slug := strings.NewReplacer("/", "_", " ", "_").Replace(name)
	body := fmt.Sprintf("case: %s\n--- serial ---\n%s--- sharded ---\n%s", name, serial, sharded)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("diff artifact: %v", err)
		return
	}
	path := filepath.Join(dir, slug+".diff.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("diff artifact: %v", err)
		return
	}
	t.Logf("diff written to %s", path)
}

// checkShardedWays verifies tr reports identically under the serial
// checker and under every sharded configuration.
func checkShardedWays(t *testing.T, name string, rules core.RuleSet, tr *trace.Trace) {
	t.Helper()
	want := reportString(core.CheckTraceInto(core.NewState(), rules, tr, nil))
	for _, cfg := range shardedCfgs {
		rep, _ := core.CheckTraceCfg(rules, tr, nil, cfg)
		if got := reportString(rep); got != want {
			full := fmt.Sprintf("%s/%s/%s", name, rules.Name(), cfgName(cfg))
			writeDiffArtifact(t, full, want, got)
			t.Errorf("%s [%s/%s]: sharded report differs from serial\nserial:\n%s\nsharded:\n%s",
				name, rules.Name(), cfgName(cfg), want, got)
		}
	}
}

// TestShardedGoldenWhisper: every micro store's recorded checkered
// sections — and the monolithic whole-run trace — report identically
// sharded vs serial, under the strict and relaxed models.
func TestShardedGoldenWhisper(t *testing.T) {
	for _, store := range MicroStores {
		sections, err := RecordMicroSections(store, 256, 60)
		if err != nil {
			t.Fatalf("%s: %v", store, err)
		}
		for _, rules := range []core.RuleSet{core.X86{}, core.HOPS{}} {
			var all []trace.Op
			for i, ops := range sections {
				all = append(all, ops...)
				if i%7 == 0 { // spot-check sections; all of them is slow
					checkShardedWays(t, fmt.Sprintf("%s/section%d", store, i), rules,
						&trace.Trace{Ops: ops})
				}
			}
			checkShardedWays(t, store+"/monolithic", rules, &trace.Trace{Ops: all})
		}
	}
}

// TestShardedGoldenBadTraces: faulted fixtures — dropped writebacks,
// dropped and weakened fences, delayed writebacks — whose FAIL/WARN
// diagnostics must merge back byte-identically from the stripes.
func TestShardedGoldenBadTraces(t *testing.T) {
	for _, store := range []string{"ctree", "hashmap-ll"} {
		sections, err := RecordMicroSections(store, 256, 12)
		if err != nil {
			t.Fatalf("%s: %v", store, err)
		}
		for name, tr := range badTraceFixtures(sections) {
			if core.CheckTraceInto(core.NewState(), core.X86{}, tr, nil).Clean() {
				t.Errorf("%s/%s: fixture produced no diagnostics; perturbation is a no-op", store, name)
			}
			checkShardedWays(t, store+"/"+name, core.X86{}, tr)
		}
	}
}

// opSink is a minimal trace.Sink capturing ops into a slice.
type opSink struct{ ops *[]trace.Op }

func (s opSink) Record(op trace.Op, _ int) { *s.ops = append(*s.ops, op) }

// pmdkTxTrace records one pmdk undo-log transaction (with the given bug
// switches) wrapped in a checker scope — the same flow the synthetic
// bug catalog uses.
func pmdkTxTrace(t *testing.T, bugs pmdk.Bugs) *trace.Trace {
	t.Helper()
	var ops []trace.Op
	dev := pmem.New(1<<20, opSink{&ops})
	p, err := pmdk.Create(dev, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p.SetBugs(bugs)
	p.SetAnnotations(true)
	off, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	ops = ops[:0]
	ops = append(ops, trace.Op{Kind: trace.KindTxCheckerStart})
	if err := p.Tx(func(tx *pmdk.Tx) error {
		tx.Add(off, 8)
		tx.Set64(off, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ops = append(ops, trace.Op{Kind: trace.KindTxCheckerEnd})
	return &trace.Trace{Ops: ops}
}

// TestShardedGoldenPMDK: the pmdk undo-log transaction flow — clean and
// under every bug switch of the synthetic catalog — reports identically
// sharded vs serial. These traces exercise log-area excludes, TxAdd
// backups and ordered log-publish checks the whisper stores don't.
func TestShardedGoldenPMDK(t *testing.T) {
	cases := map[string]pmdk.Bugs{
		"clean":                {},
		"skip-commit-flush":    {SkipCommitFlush: true},
		"skip-commit-fence":    {SkipCommitFence: true},
		"skip-log-entry-flush": {SkipLogEntryFlush: true},
		"skip-log-entry-fence": {SkipLogEntryFence: true},
		"double-commit-flush":  {DoubleCommitFlush: true},
	}
	for name, bugs := range cases {
		checkShardedWays(t, "pmdk/"+name, core.X86{}, pmdkTxTrace(t, bugs))
	}
}

// TestShardedGoldenKFIFOPipeline: sections shipped through the kernel
// FIFO transport into a persistent sharded checker — the paper's
// kernel-module flow (§4.5) with striping underneath — must reproduce
// the serial reports byte for byte, including checker state reuse
// across the whole stream.
func TestShardedGoldenKFIFOPipeline(t *testing.T) {
	sections, err := RecordMicroSections("hashmap-ll", 256, 24)
	if err != nil {
		t.Fatal(err)
	}
	f := kfifo.New(8)
	go func() {
		for _, ops := range sections {
			f.Push(&trace.Trace{Ops: ops})
		}
		f.Close()
	}()
	c := core.NewChecker(core.X86{}, core.Config{Shards: 4, EpochGC: true})
	defer c.Close()
	i := 0
	for {
		tr := f.Pop()
		if tr == nil {
			break
		}
		want := reportString(core.CheckTraceInto(core.NewState(), core.X86{}, tr, nil))
		rep, _ := c.Check(tr, nil)
		if got := reportString(rep); got != want {
			writeDiffArtifact(t, fmt.Sprintf("kfifo/section%d", i), want, got)
			t.Fatalf("kfifo section %d diverges\nserial:\n%s\nsharded:\n%s", i, want, got)
		}
		i++
	}
	if i != len(sections) {
		t.Fatalf("pipeline delivered %d of %d sections", i, len(sections))
	}
}

// TestShardedGoldenForcedGC proves the forced-GC requirement directly:
// a long streaming run over every micro store must actually retire
// intervals (at lag 1) while still reporting identically to serial.
func TestShardedGoldenForcedGC(t *testing.T) {
	store := MicroStores[0]
	sections, err := RecordMicroSections(store, 256, 60)
	if err != nil {
		t.Fatalf("%s: %v", store, err)
	}
	var all []trace.Op
	for _, ops := range sections {
		all = append(all, ops...)
	}
	tr := &trace.Trace{Ops: all}
	cfg := core.Config{Shards: 4, EpochGC: true, GCLag: 1}
	want := reportString(core.CheckTraceInto(core.NewState(), core.X86{}, tr, nil))
	rep, stats := core.CheckTraceCfg(core.X86{}, tr, nil, cfg)
	if got := reportString(rep); got != want {
		writeDiffArtifact(t, store+"/forced-gc", want, got)
		t.Fatalf("forced-GC run diverges from serial\nserial:\n%s\nsharded:\n%s", want, got)
	}
	if !stats.Sharded {
		t.Fatal("monolithic whisper trace fell back to serial; striping never engaged")
	}
	if stats.RetiredIntervals == 0 {
		t.Fatal("epoch GC retired nothing over a monolithic whisper run; GC pass never forced")
	}
}
