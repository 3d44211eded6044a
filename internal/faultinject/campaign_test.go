package faultinject

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/obs"
	"pmtest/internal/pmem"
	"pmtest/internal/trace"
)

// TestTargetsBaselineClean: without injection, every suite workload runs
// with zero FAIL diagnostics per section and survives a clean-shutdown
// crash with all operations recoverable. This is the control the
// campaign's verdicts rest on.
func TestTargetsBaselineClean(t *testing.T) {
	const ops = 3
	for _, tgt := range Targets() {
		t.Run(tgt.Name, func(t *testing.T) {
			rec := &trace.Recorder{}
			dev := pmem.New(tgt.DevSize, rec)
			st, err := tgt.New(dev)
			if err != nil {
				t.Fatalf("construct: %v", err)
			}
			for i := 0; i < ops; i++ {
				rec.Ops = rec.Ops[:0]
				if err := st.Do(i); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				rep := core.CheckTrace(core.X86{}, &trace.Trace{Ops: rec.Ops})
				if rep.Fails() > 0 {
					t.Fatalf("baseline op %d not clean:\n%s", i, rep.Summary())
				}
			}
			dev.DrainAll()
			if err := st.Verify(dev.Image(), ops); err != nil {
				t.Fatalf("baseline recovery failed: %v", err)
			}
		})
	}
}

// TestCampaignSoundness is the headline check: on a fixed seed, every
// bug class that injects is flagged by the engine AND demonstrated by a
// concrete failing crash state, the legal class produces neither flags
// nor failures, and every recorded reproducer replays to the same
// verdict.
func TestCampaignSoundness(t *testing.T) {
	cfg := Defaults()
	cfg.Seed = 42
	var targets []Target
	for _, name := range []string{"echo", "hashmap-ll"} {
		tgt, ok := TargetByName(name)
		if !ok {
			t.Fatalf("target %s missing", name)
		}
		targets = append(targets, tgt)
	}
	m := obs.NewMetrics(1)
	cfg.Metrics = m
	res, err := Run(cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.Soundness(); len(bad) != 0 {
		t.Fatalf("soundness violations: %v", bad)
	}
	if res.FaultsInjected == 0 || res.RecoveryFailures == 0 {
		t.Fatalf("campaign did nothing: %d injected, %d recovery failures",
			res.FaultsInjected, res.RecoveryFailures)
	}
	if res.SchedulesRun != res.SchedulesPlanned {
		t.Fatalf("ran %d of %d schedules without a deadline", res.SchedulesRun, res.SchedulesPlanned)
	}
	if len(res.Repros) == 0 {
		t.Fatal("no reproducers recorded")
	}
	for _, r := range res.Repros {
		if !r.Reproduces(nil) {
			t.Errorf("repro %s does not replay to %s", r.ID, r.Code)
		}
		if len(r.Ops) >= r.OrigOps && r.OrigOps > 2 {
			t.Errorf("repro %s not minimized: %d of %d ops", r.ID, len(r.Ops), r.OrigOps)
		}
		if r.ImageHash == "" || r.Seed != cfg.Seed {
			t.Errorf("repro %s missing evidence fields: %+v", r.ID, r)
		}
	}
	// Campaign accounting flows into the observability registry.
	s := m.Snapshot()
	if s.CampaignSchedules != uint64(res.SchedulesRun) ||
		s.FaultsInjected != res.FaultsInjected ||
		s.CrashStatesExplored != res.StatesExplored ||
		s.RecoveryFailures != res.RecoveryFailures {
		t.Fatalf("metrics disagree with result: %+v vs %+v", s, res)
	}
}

// TestCampaignSeedReproducible: the whole result marshals bit-for-bit
// identically across two runs with the same seed, and differs for a
// different seed.
func TestCampaignSeedReproducible(t *testing.T) {
	tgt, _ := TargetByName("echo")
	cfg := Defaults()
	cfg.Seed = 7
	run := func(c Config) []byte {
		res, err := Run(c, []Target{tgt})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(cfg), run(cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different results")
	}
	cfg2 := cfg
	cfg2.Seed = 8
	if bytes.Equal(a, run(cfg2)) {
		t.Fatal("different seed produced identical results (seed unused?)")
	}
}

// TestCampaignDeadline: an immediately-expired deadline yields a
// structured partial result, not a crash.
func TestCampaignDeadline(t *testing.T) {
	tgt, _ := TargetByName("echo")
	cfg := Defaults()
	cfg.Seed = 1
	cfg.Deadline = time.Nanosecond
	m := obs.NewMetrics(1)
	cfg.Metrics = m
	res, err := Run(cfg, []Target{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineExpired {
		t.Fatal("deadline did not expire")
	}
	if res.SchedulesRun >= res.SchedulesPlanned {
		t.Fatalf("deadline did not truncate: ran %d of %d", res.SchedulesRun, res.SchedulesPlanned)
	}
	if len(res.Targets) == 0 {
		t.Fatal("partial result lost its target slice")
	}
	if m.Snapshot().CampaignDeadlineHits != 1 {
		t.Fatalf("deadline hit not counted: %d", m.Snapshot().CampaignDeadlineHits)
	}
}

func TestCampaignRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestTargetByName(t *testing.T) {
	names := TargetNames()
	if len(names) != 8 {
		t.Fatalf("suite has %d targets, want 8: %v", len(names), names)
	}
	for _, n := range names {
		if _, ok := TargetByName(n); !ok {
			t.Fatalf("TargetByName(%q) failed", n)
		}
	}
	if _, ok := TargetByName("nope"); ok {
		t.Fatal("TargetByName accepted garbage")
	}
}
