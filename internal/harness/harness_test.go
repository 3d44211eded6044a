package harness

import (
	"strings"
	"testing"

	"pmtest/internal/whisper"
)

// TestMicroBenchAllStoresAllTools: every (store, tool) combination runs
// clean — no FAILs on correct workloads, and the PMTest runs actually
// checked traces.
func TestMicroBenchAllStoresAllTools(t *testing.T) {
	tools := []Tool{ToolNone, ToolPMTest, ToolPMTestTrack, ToolPmemcheck,
		ToolPMTestInline, ToolPMTestMonolithic}
	for _, store := range MicroStores {
		for _, tool := range tools {
			t.Run(store+"/"+tool.String(), func(t *testing.T) {
				res, err := MicroBench(store, 128, 200, tool, 1)
				if err != nil {
					t.Fatal(err)
				}
				if res.Fails != 0 {
					t.Fatalf("clean run reported %d FAILs", res.Fails)
				}
				if res.Warns != 0 {
					t.Fatalf("clean run reported %d WARNs", res.Warns)
				}
				if res.Elapsed <= 0 {
					t.Fatal("no time measured")
				}
			})
		}
	}
}

func TestMicroBenchUnknownStore(t *testing.T) {
	if _, err := MicroBench("nope", 64, 10, ToolNone, 1); err == nil {
		t.Fatal("expected error for unknown store")
	}
}

func TestSlowdown(t *testing.T) {
	base, _ := MicroBench("ctree", 64, 100, ToolNone, 1)
	pm, _ := MicroBench("ctree", 64, 100, ToolPMTest, 1)
	if s := Slowdown(pm, base); s <= 0 {
		t.Fatalf("slowdown = %v", s)
	}
	if Slowdown(pm, MicroResult{}) != 0 {
		t.Fatal("zero baseline must give 0")
	}
}

// TestRealBenchAllWorkloads: each Fig. 11 workload runs under every tool
// and measures time, with no FAIL. No tool and the four PMTest variants
// report no WARN either. Pmemcheck's undo-log model flags the stores of
// Mnemosyne's redo-log transactions, so memcached under pmemcheck must
// return WARNs.
func TestRealBenchAllWorkloads(t *testing.T) {
	for _, wl := range RealWorkloads {
		for _, tool := range allTools {
			t.Run(wl+"/"+tool.String(), func(t *testing.T) {
				res, err := RealBench(wl, 500, tool)
				if err != nil {
					t.Fatal(err)
				}
				if res.Fails != 0 {
					t.Fatalf("clean workload reported %d FAILs", res.Fails)
				}
				if res.Elapsed <= 0 {
					t.Fatal("no time measured")
				}
				switch {
				case tool != ToolPmemcheck && res.Warns != 0:
					t.Fatalf("clean workload reported %d WARNs", res.Warns)
				case tool == ToolPmemcheck && strings.HasPrefix(wl, "memcached") && res.Warns == 0:
					t.Fatal("pmemcheck's findings on memcached were dropped")
				}
			})
		}
	}
}

var allTools = []Tool{ToolNone, ToolPMTest, ToolPMTestTrack, ToolPmemcheck,
	ToolPMTestInline, ToolPMTestMonolithic}

// TestMemcachedThreadsAllTools: two server threads under every tool, so
// each thread's sink, cut and tallies are reached from two client
// goroutines at once (run it with -race).
func TestMemcachedThreadsAllTools(t *testing.T) {
	ops := whisper.YCSBOps(600, 5000, 128, 11)
	for _, tool := range allTools {
		t.Run(tool.String(), func(t *testing.T) {
			res, err := memcachedBench("threads", ops, 2, 2, tool)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fails != 0 || res.Elapsed <= 0 {
				t.Fatalf("%d FAILs in %v", res.Fails, res.Elapsed)
			}
			if (tool == ToolPmemcheck) != (res.Warns > 0) {
				t.Fatalf("%d WARNs", res.Warns)
			}
		})
	}
}

func TestRealBenchUnknown(t *testing.T) {
	if _, err := RealBench("nope", 10, ToolNone); err == nil {
		t.Fatal("expected error")
	}
}

func TestScaleBench(t *testing.T) {
	for _, threads := range []int{1, 2} {
		r, err := ScaleBench("memslap", threads, threads, 300)
		if err != nil {
			t.Fatal(err)
		}
		if r.Slowdown <= 0 {
			t.Fatalf("slowdown = %v", r.Slowdown)
		}
	}
	if _, err := ScaleBench("nope", 1, 1, 10); err == nil {
		t.Fatal("expected error for unknown client")
	}
}

func TestEstimateYat(t *testing.T) {
	est, err := EstimateYat("ctree", 20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if est.TraceOps == 0 || est.StateSpace <= 0 {
		t.Fatalf("estimate = %+v", est)
	}
}

func TestSparseFenceStateSpace(t *testing.T) {
	s16, _ := SparseFenceStateSpace(1000, 16)
	s32, _ := SparseFenceStateSpace(1000, 32)
	if s32 < s16*1000 {
		t.Fatalf("sparse-fence space must explode: %g vs %g", s16, s32)
	}
	_, ops := SparseFenceStateSpace(1000, 10)
	if ops != 1100 {
		t.Fatalf("ops = %d, want 1100", ops)
	}
}

func TestToolStrings(t *testing.T) {
	names := map[Tool]string{
		ToolNone:             "none",
		ToolPMTest:           "PMTest",
		ToolPMTestTrack:      "PMTest (framework only)",
		ToolPmemcheck:        "Pmemcheck",
		ToolPMTestInline:     "PMTest (inline checking)",
		ToolPMTestMonolithic: "PMTest (monolithic trace)",
	}
	for tool, want := range names {
		if tool.String() != want {
			t.Errorf("%d.String() = %q, want %q", tool, tool.String(), want)
		}
	}
}
