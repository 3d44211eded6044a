package bugdb

import (
	"testing"

	"pmtest/internal/core"
	"pmtest/internal/obs"
)

// TestTable5Counts verifies the catalog matches the paper's Table 5
// composition exactly: 4 ordering, 6 writeback, 2 redundant-writeback,
// 19 backup, 7 completion, 4 duplicated-log synthetic bugs — 42 total —
// plus 3 known and 3 new (Table 6).
func TestTable5Counts(t *testing.T) {
	all := Catalog()
	syn := ByOrigin(all, OriginSynthetic)
	want := map[Category]int{
		CatOrdering:      4,
		CatWriteback:     6,
		CatPerfWriteback: 2,
		CatBackup:        19,
		CatCompletion:    7,
		CatPerfLog:       4,
	}
	got := map[Category]int{}
	for _, b := range syn {
		got[b.Category]++
	}
	for cat, n := range want {
		if got[cat] != n {
			t.Errorf("%s: %d synthetic bugs, want %d", cat, got[cat], n)
		}
	}
	if len(syn) != 42 {
		t.Errorf("synthetic bugs = %d, want 42", len(syn))
	}
	if n := len(ByOrigin(all, OriginKnown)); n != 3 {
		t.Errorf("known bugs = %d, want 3", n)
	}
	if n := len(ByOrigin(all, OriginNew)); n != 3 {
		t.Errorf("new bugs = %d, want 3", n)
	}
	if len(syn)+3 != 45 {
		t.Errorf("synthetic+reproduced = %d, want 45 (paper headline)", len(syn)+3)
	}
	// IDs must be unique.
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.ID] {
			t.Errorf("duplicate bug id %q", b.ID)
		}
		seen[b.ID] = true
	}
}

// TestAllBugsDetected is the paper's §6.3 result: PMTest reports every
// synthetic and reproduced bug in the catalog.
func TestAllBugsDetected(t *testing.T) {
	for _, b := range Catalog() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			reports, err := b.Execute()
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if !b.Detected(reports) {
				var found string
				for _, r := range reports {
					if !r.Clean() {
						found += r.Summary()
					}
				}
				t.Fatalf("%s (%s, %s) not detected as %s; findings:\n%s",
					b.ID, b.Workload, b.PaperRef, b.Expect, found)
			}
			// Severity sanity: FAIL bugs must produce at least one FAIL,
			// WARN bugs at least one WARN.
			fails, warns := 0, 0
			for _, r := range reports {
				fails += r.Fails()
				warns += r.Warns()
			}
			if b.Severity == core.SeverityFail && fails == 0 {
				t.Fatalf("crash-consistency bug produced no FAIL")
			}
			if b.Severity == core.SeverityWarn && warns == 0 {
				t.Fatalf("performance bug produced no WARN")
			}
		})
	}
}

// TestCatalogChecksReachObserver: the installed observer sees each
// section a catalog run checks as an engine would show it, so a metrics
// registry counts every one as submitted and as checked.
func TestCatalogChecksReachObserver(t *testing.T) {
	m := obs.NewMetrics(16)
	ObserveChecks(m)
	defer ObserveChecks(nil)
	reports, err := Catalog()[0].Execute()
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if n := uint64(len(reports)); n == 0 || s.TracesSubmitted != n || s.TracesChecked != n {
		t.Fatalf("%d reports: submitted %d, checked %d", len(reports), s.TracesSubmitted, s.TracesChecked)
	}
}

// TestCleanBaselinesProduceNoFindings guards against false positives: the
// same workloads with no bug injected are clean.
func TestCleanBaselinesProduceNoFindings(t *testing.T) {
	baselines := map[string]func() ([]core.Report, error){
		"ctree":     runStore(mkCTree, nil, noPoolBugs, ascending, 30, 128),
		"btree":     runStore(mkBTree, nil, noPoolBugs, zigzag, 60, 128),
		"rbtree":    runStore(mkRBTree, nil, noPoolBugs, ascending, 60, 128),
		"hmtx":      runStore(mkHMTx, nil, noPoolBugs, updateHeavy, 40, 128),
		"hmll":      runStore(mkHMLL, nil, noPoolBugs, updateHeavy, 40, 128),
		"redis":     runRedis(noPoolBugs, 30),
		"memcached": runMemcached(noRegionBugs, 30),
		"pmfs":      runPMFS(noFSBugs, pmfsWriteWorkload),
	}
	for name, run := range baselines {
		t.Run(name, func(t *testing.T) {
			reports, err := run()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				if !r.Clean() {
					t.Fatalf("clean %s produced findings: %s", name, r.Summary())
				}
			}
		})
	}
}
