// Package bugdb is the synthetic/reproduced bug catalog of the paper's
// evaluation (§6.3, Tables 5 and 6): 42 systematically created bugs in
// the WHISPER workloads spanning the six classes of Table 5, the 3 known
// bugs reproduced from the PMFS/PMDK commit histories, and the 3 new bugs
// PMTest found (Fig. 13). Every entry is executable: Execute runs the
// workload with the bug injected under full checker instrumentation and
// returns the engine's reports, so one test sweep validates the paper's
// headline claim that all 45 synthetic/reproduced bugs are detected.
package bugdb

import (
	"bytes"
	"fmt"

	"pmtest/internal/core"
	"pmtest/internal/mnemosyne"
	"pmtest/internal/obs"
	"pmtest/internal/pmdk"
	"pmtest/internal/pmem"
	"pmtest/internal/pmfs"
	"pmtest/internal/trace"
	"pmtest/internal/whisper"
)

// Category is the bug class of paper Table 5.
type Category string

// Table 5 bug classes.
const (
	CatOrdering      Category = "ordering"       // missing/misplaced ordering enforcement
	CatWriteback     Category = "writeback"      // missing/misplaced writeback operations
	CatPerfWriteback Category = "perf-writeback" // redundant writebacks
	CatBackup        Category = "backup"         // missing/misplaced TX_ADD backups
	CatCompletion    Category = "completion"     // incomplete transactions
	CatPerfLog       Category = "perf-log"       // duplicated undo-log entries
)

// Origin distinguishes Table 5 synthetic bugs from Table 6's reproduced
// and newly found ones.
type Origin string

// Bug origins.
const (
	OriginSynthetic Origin = "synthetic" // Table 5
	OriginKnown     Origin = "known"     // Table 6, reproduced from commit history
	OriginNew       Origin = "new"       // Table 6, found by PMTest
	// OriginExtension marks bugs in workloads this reproduction adds
	// beyond the paper (they do not count toward the paper's 45).
	OriginExtension Origin = "extension"
)

// Bug is one executable catalog entry.
type Bug struct {
	// ID is the unique catalog identifier.
	ID string
	// Category is the Table 5 class.
	Category Category
	// Origin marks synthetic vs known vs new.
	Origin Origin
	// Workload names the program the bug lives in.
	Workload string
	// Description explains the defect.
	Description string
	// PaperRef cites the paper table/figure (and file:line for Table 6).
	PaperRef string
	// Expect is the diagnostic code PMTest must report.
	Expect core.Code
	// Severity is the expected severity (FAIL for crash-consistency bugs,
	// WARN for performance bugs).
	Severity core.Severity
	// LintRule names the pmlint rule (internal/lint) that targets this
	// bug's class statically, or "" when no static rule applies (the
	// duplicate-log class needs runtime undo-log state).
	LintRule string

	run func() ([]core.Report, error)
}

// LintRuleForCategory maps a Table 5 bug class to the pmlint rule that
// flags it statically ("" when the class has no static counterpart).
func LintRuleForCategory(c Category) string {
	switch c {
	case CatOrdering:
		return "missedfence"
	case CatWriteback:
		return "missedflush"
	case CatPerfWriteback:
		return "doubleflush"
	case CatBackup:
		return "txnolog"
	case CatCompletion:
		return "checkermisuse"
	}
	return ""
}

// Execute runs the buggy workload under checker instrumentation and
// returns the per-section reports.
func (b Bug) Execute() ([]core.Report, error) { return b.run() }

// Detected reports whether the expected diagnostic appears in reports.
func (b Bug) Detected(reports []core.Report) bool {
	return core.CountCode(reports, b.Expect) > 0
}

const devSize = 1 << 24

// checkObs, when set, observes every section the catalog checks, as an
// engine's observer would. The catalog checks synchronously (no engine),
// so this is its only observer seam; cmd/repro and cmd/bughunt point it
// at their metrics registry and flight recorder, so Table 5/6 sweeps
// count their traces and produce checker spans too.
var checkObs obs.Observer

// ObserveChecks installs (or, with nil, removes) the observer notified
// of every section checked by catalog runs. Not safe to change while
// runs are in flight.
func ObserveChecks(o obs.Observer) { checkObs = o }

// check validates one section through a core.Worker, so the observer, if
// any, sees it submitted, dequeued and checked. All catalog run helpers
// funnel through it.
func check(ops []trace.Op) core.Report {
	w := core.NewWorker(core.Options{Rules: core.X86{}, Observer: checkObs})
	defer w.Close()
	return w.Check(&trace.Trace{Ops: append([]trace.Op(nil), ops...)})
}

// keyPattern generates the key for insert i, shaping which code paths
// (fresh insert, update, split, rotation) the run exercises.
type keyPattern func(i int) uint64

var (
	ascending   = func(i int) uint64 { return uint64(i) * 17 }
	descending  = func(i int) uint64 { return uint64(4000 - i*13) }
	updateHeavy = func(i int) uint64 { return uint64(i%12) * 29 }
	zigzag      = func(i int) uint64 {
		if i%2 == 0 {
			return uint64(i) * 7
		}
		return uint64(100000 - i*11)
	}
)

// runStore drives a microbenchmark store with per-insert checking.
func runStore(mk func(dev *pmem.Device, bugs whisper.BugSet) (whisper.Store, error),
	bugs whisper.BugSet, pool pmdk.Bugs, pattern keyPattern, n, valSize int) func() ([]core.Report, error) {
	return func() ([]core.Report, error) {
		rec := &trace.Recorder{}
		s, err := mk(pmem.New(devSize, rec), bugs)
		if err != nil {
			return nil, err
		}
		type pooled interface{ Pool() *pmdk.Pool }
		if p, ok := s.(pooled); ok {
			p.Pool().SetBugs(pool)
			p.Pool().SetAnnotations(true)
		}
		s.(whisper.Checkered).SetCheckers(true)
		val := bytes.Repeat([]byte{0x5A}, valSize)
		var reports []core.Report
		for i := 0; i < n; i++ {
			rec.Ops = rec.Ops[:0]
			if err := s.Insert(pattern(i), val); err != nil {
				return nil, fmt.Errorf("insert %d: %w", i, err)
			}
			reports = append(reports, check(rec.Ops))
		}
		return reports, nil
	}
}

func mkCTree(d *pmem.Device, b whisper.BugSet) (whisper.Store, error) { return whisper.NewCTree(d, b) }
func mkBTree(d *pmem.Device, b whisper.BugSet) (whisper.Store, error) { return whisper.NewBTree(d, b) }
func mkRBTree(d *pmem.Device, b whisper.BugSet) (whisper.Store, error) {
	return whisper.NewRBTree(d, b)
}
func mkHMTx(d *pmem.Device, b whisper.BugSet) (whisper.Store, error) {
	return whisper.NewHashmapTX(d, 256, b)
}
func mkHMLL(d *pmem.Device, b whisper.BugSet) (whisper.Store, error) {
	return whisper.NewHashmapLL(d, 1024, 4096, b)
}

// runRedis drives the Redis workload with pool-level bugs.
func runRedis(pool pmdk.Bugs, n int) func() ([]core.Report, error) {
	return func() ([]core.Report, error) {
		rec := &trace.Recorder{}
		r, err := whisper.NewRedis(pmem.New(devSize, rec), 256, 1<<30)
		if err != nil {
			return nil, err
		}
		r.Pool().SetBugs(pool)
		r.Pool().SetAnnotations(true)
		r.SetCheckers(true)
		var reports []core.Report
		for i := 0; i < n; i++ {
			rec.Ops = rec.Ops[:0]
			if err := r.Set(uint64(i)*3, []byte("redis-value")); err != nil {
				return nil, err
			}
			reports = append(reports, check(rec.Ops))
		}
		return reports, nil
	}
}

// runMemcached drives one memcached shard with region-level bugs.
func runMemcached(region mnemosyne.Bugs, n int) func() ([]core.Report, error) {
	return func() ([]core.Report, error) {
		rec := &trace.Recorder{}
		devs := []*pmem.Device{pmem.New(whisper.MemcachedShardSpace(2048, 256), rec)}
		m, err := whisper.NewMemcached(devs, 2048, 256)
		if err != nil {
			return nil, err
		}
		m.Region(0).SetBugs(region)
		m.SetCheckers(true)
		rec.Ops = rec.Ops[:0]
		var reports []core.Report
		m.SetSectionHook(0, func() {
			if len(rec.Ops) > 0 {
				reports = append(reports, check(rec.Ops))
				rec.Ops = rec.Ops[:0]
			}
		})
		for i := 0; i < n; i++ {
			if err := m.Set(uint64(i), []byte("memcached-value")); err != nil {
				return nil, err
			}
		}
		return reports, nil
	}
}

// runPMFS drives the file system with FS-level bugs.
func runPMFS(bugs pmfs.Bugs, ops func(fs *pmfs.FS) error) func() ([]core.Report, error) {
	return func() ([]core.Report, error) {
		rec := &trace.Recorder{}
		fs, err := pmfs.Mkfs(pmem.New(devSize, rec), 64, 128)
		if err != nil {
			return nil, err
		}
		fs.SetBugs(bugs)
		fs.SetAnnotations(true)
		rec.Ops = rec.Ops[:0]
		var reports []core.Report
		fs.SetSectionHook(func() {
			if len(rec.Ops) > 0 {
				reports = append(reports, check(rec.Ops))
				rec.Ops = rec.Ops[:0]
			}
		})
		if err := ops(fs); err != nil {
			return nil, err
		}
		return reports, nil
	}
}

// runEcho drives the WAL key-value store with per-op checking.
func runEcho(bugs whisper.BugSet, n int) func() ([]core.Report, error) {
	return func() ([]core.Report, error) {
		rec := &trace.Recorder{}
		e, err := whisper.NewEcho(pmem.New(devSize, rec), 1<<20, bugs)
		if err != nil {
			return nil, err
		}
		e.SetCheckers(true)
		var reports []core.Report
		for i := 0; i < n; i++ {
			rec.Ops = rec.Ops[:0]
			if err := e.Set(uint64(i), []byte("echo-value")); err != nil {
				return nil, err
			}
			reports = append(reports, check(rec.Ops))
		}
		return reports, nil
	}
}

func pmfsWriteWorkload(fs *pmfs.FS) error {
	ino, err := fs.CreateFile("table")
	if err != nil {
		return err
	}
	buf := bytes.Repeat([]byte{7}, 1024)
	for i := uint64(0); i < 8; i++ {
		if err := fs.WriteFile(ino, i*512, buf); err != nil {
			return err
		}
	}
	return fs.Fsync(ino)
}

// Zero-valued bug sets for the clean baselines (tests and the harness).
var (
	noPoolBugs   = pmdk.Bugs{}
	noRegionBugs = mnemosyne.Bugs{}
	noFSBugs     = pmfs.Bugs{}
)
