package faultinject

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"time"

	"pmtest/internal/bugdb"
	"pmtest/internal/core"
	"pmtest/internal/flight"
	"pmtest/internal/obs"
	"pmtest/internal/pmem"
	"pmtest/internal/trace"
)

// Config parameterizes a campaign. The zero value is unusable; use
// Defaults() or fill every field. Everything that influences results is
// derived from Seed, so two runs with equal Configs produce bit-for-bit
// identical Results (Deadline excepted: an expired deadline truncates the
// schedule list at a wall-clock-dependent point).
type Config struct {
	// Seed drives schedule exploration, evicted-line choice, and crash
	// sampling.
	Seed int64
	// Budget caps schedules per (target, class); site counts at or below
	// it are explored exhaustively.
	Budget int
	// Ops is how many workload operations each schedule runs (the fault
	// lands somewhere within them; later sites never fire).
	Ops int
	// StateLimit bounds exhaustive crash-state enumeration: when the
	// faulted run's 2^dirty state space fits, every state is validated
	// and the search is complete; beyond it the campaign falls back to
	// Samples seeded samples plus the two extreme states.
	StateLimit int
	// Samples is the fallback sample count per faulted run.
	Samples int
	// TearLines lets sampled crash states tear lines at 8-byte
	// granularity (CrashOptions.TearLines).
	TearLines bool
	// Deadline bounds the whole campaign; zero means none. On expiry the
	// campaign stops between schedules and returns partial results with
	// DeadlineExpired set.
	Deadline time.Duration
	// Classes selects the fault classes; nil means the full taxonomy.
	Classes []Class
	// Rank, when non-nil, reorders the selected classes so statically
	// suspicious ones (RankFromFindings over pmlint's census) spend the
	// schedule budget first. Result.DiscoveryAUC measures the effect.
	Rank *StaticRank
	// Rules is the checking rule set; nil means core.X86.
	Rules core.RuleSet
	// Metrics, when non-nil, receives campaign counters.
	Metrics *obs.Metrics
	// Flight, when non-nil, records one campaign span per schedule with
	// fault-site and crash-state annotations (failed = recovery broke).
	Flight *flight.Recorder
	// Logger, when non-nil, receives structured campaign records: start
	// and completion at Info, workload failures, soundness-relevant
	// findings and deadline expiry at Warn, per-schedule outcomes at
	// Debug. Records carry the schedule's flight span_id for correlation.
	Logger *slog.Logger
}

// Defaults returns a small, CI-friendly configuration.
func Defaults() Config {
	return Config{Budget: 8, Ops: 3, StateLimit: 64, Samples: 12, TearLines: true}
}

// Outcome records one schedule's verdicts: what the engine said about the
// faulted section, and what crash-state ground truth said about it.
type Outcome struct {
	Class string `json:"class"`
	Site  int    `json:"site"`
	// OpIndex is the workload operation during which the fault fired
	// (-1 when it never did).
	OpIndex  int  `json:"op_index"`
	Injected bool `json:"injected"`
	// Flagged is true when the checking engine reported at least one
	// FAIL diagnostic for the faulted section.
	Flagged bool     `json:"flagged"`
	Codes   []string `json:"codes,omitempty"`
	// Demonstrated is true when a concrete crash state failed recovery.
	Demonstrated bool   `json:"demonstrated"`
	ImageHash    string `json:"image_hash,omitempty"`
	RecoveryErr  string `json:"recovery_err,omitempty"`
	// StatesExplored of StatesPossible crash states were validated
	// (possible is clamped at 2^62).
	StatesExplored uint64 `json:"states_explored"`
	StatesPossible uint64 `json:"states_possible"`
	// Complete is true when the whole state space was enumerated.
	Complete bool `json:"complete"`
	// MinOps/OrigOps report trace minimization (0/0 when not flagged).
	MinOps  int    `json:"min_ops,omitempty"`
	OrigOps int    `json:"orig_ops,omitempty"`
	ReproID string `json:"repro_id,omitempty"`
	// Err records a program-visible failure of the workload itself.
	Err string `json:"err,omitempty"`
}

// ClassSummary aggregates one class's outcomes for one target.
type ClassSummary struct {
	Class        string `json:"class"`
	Bug          bool   `json:"bug"`
	Schedules    int    `json:"schedules"`
	Injected     int    `json:"injected"`
	Flagged      int    `json:"flagged"`
	Demonstrated int    `json:"demonstrated"`
}

// TargetResult is one workload's campaign slice.
type TargetResult struct {
	Workload  string         `json:"workload"`
	Census    Census         `json:"census"`
	Outcomes  []Outcome      `json:"outcomes"`
	Summaries []ClassSummary `json:"summaries"`
	Err       string         `json:"err,omitempty"`
}

// Result is the full campaign outcome. It contains no wall-clock data,
// so marshaling it is bit-for-bit reproducible from the seed.
type Result struct {
	Seed       int64    `json:"seed"`
	Budget     int      `json:"budget"`
	Ops        int      `json:"ops"`
	StateLimit int      `json:"state_limit"`
	Samples    int      `json:"samples"`
	TearLines  bool     `json:"tear_lines"`
	Classes    []string `json:"classes"`

	Targets []TargetResult `json:"targets"`
	Repros  []bugdb.Repro  `json:"repros,omitempty"`

	// DiscoveryAUC is the bugs-found-per-schedule-prefix metric: the mean,
	// over schedules in run order, of the fraction of demonstrated
	// (workload, class) bugs already discovered. Higher means the
	// exploration order front-loaded the bugs (see StaticRank).
	DiscoveryAUC float64 `json:"discovery_auc"`

	SchedulesPlanned int    `json:"schedules_planned"`
	SchedulesRun     int    `json:"schedules_run"`
	FaultsInjected   uint64 `json:"faults_injected"`
	StatesExplored   uint64 `json:"states_explored"`
	StatesPossible   uint64 `json:"states_possible"`
	RecoveryFailures uint64 `json:"recovery_failures"`
	DeadlineExpired  bool   `json:"deadline_expired,omitempty"`
}

// Soundness checks the campaign's core claim and returns every
// violation. Per fault class, aggregated across targets: a bug class
// that was injected must be flagged by the engine AND demonstrated by a
// failing crash state at least once, and the legal class (evict) must
// never be flagged or demonstrated anywhere. Aggregation is deliberate:
// individual workloads can be structurally immune to a class (pmfs
// closes every persist window with two consecutive fences, so dropping
// one is always masked; line-granular writebacks rescue torn tails that
// share a line with later-flushed metadata), and a conservative flag
// without a failing state on such a target is correct engine behaviour,
// not a soundness hole.
func (r *Result) Soundness() []string {
	agg := map[string]*ClassSummary{}
	var order []string
	for _, tr := range r.Targets {
		for _, s := range tr.Summaries {
			a := agg[s.Class]
			if a == nil {
				a = &ClassSummary{Class: s.Class, Bug: s.Bug}
				agg[s.Class] = a
				order = append(order, s.Class)
			}
			a.Schedules += s.Schedules
			a.Injected += s.Injected
			a.Flagged += s.Flagged
			a.Demonstrated += s.Demonstrated
		}
	}
	var bad []string
	for _, cl := range order {
		s := agg[cl]
		switch {
		case s.Bug && s.Injected > 0 && s.Flagged == 0:
			bad = append(bad, fmt.Sprintf("%s: injected %d times, never flagged",
				s.Class, s.Injected))
		case s.Bug && s.Injected > 0 && s.Demonstrated == 0:
			bad = append(bad, fmt.Sprintf("%s: flagged but no failing crash state found",
				s.Class))
		case !s.Bug && s.Flagged > 0:
			bad = append(bad, fmt.Sprintf("%s: legal fault flagged %d times (false positive)",
				s.Class, s.Flagged))
		case !s.Bug && s.Demonstrated > 0:
			bad = append(bad, fmt.Sprintf("%s: legal fault broke recovery %d times",
				s.Class, s.Demonstrated))
		}
	}
	return bad
}

// campaign carries the per-run state shared by the helpers.
type campaign struct {
	cfg    Config
	rules  core.RuleSet
	res    *Result
	repros bugdb.ReproDB
	start  time.Time
}

func (c *campaign) expired() bool {
	return c.cfg.Deadline > 0 && time.Since(c.start) >= c.cfg.Deadline
}

// Run executes the campaign over targets and returns the (possibly
// partial) result. It never returns an error for workload-level
// failures — those are recorded in the result — only for an unusable
// configuration.
func Run(cfg Config, targets []Target) (*Result, error) {
	if cfg.Budget <= 0 || cfg.Ops <= 0 {
		return nil, fmt.Errorf("faultinject: budget (%d) and ops (%d) must be positive",
			cfg.Budget, cfg.Ops)
	}
	if cfg.StateLimit <= 0 {
		cfg.StateLimit = 64
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 12
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = AllClasses()
	}
	classes = cfg.Rank.Order(classes)
	rules := cfg.Rules
	if rules == nil {
		rules = core.X86{}
	}
	c := &campaign{cfg: cfg, rules: rules, start: time.Now()}
	c.res = &Result{
		Seed: cfg.Seed, Budget: cfg.Budget, Ops: cfg.Ops,
		StateLimit: cfg.StateLimit, Samples: cfg.Samples, TearLines: cfg.TearLines,
	}
	for _, cl := range classes {
		c.res.Classes = append(c.res.Classes, cl.String())
	}
	if lg := cfg.Logger; lg != nil {
		lg.Info("campaign started",
			"seed", cfg.Seed, "budget", cfg.Budget, "ops", cfg.Ops,
			"targets", len(targets), "classes", len(classes))
	}

	for _, tgt := range targets {
		if c.res.DeadlineExpired {
			break
		}
		tr := TargetResult{Workload: tgt.Name}
		census, err := c.takeCensus(tgt)
		if err != nil {
			tr.Err = err.Error()
			if lg := cfg.Logger; lg != nil {
				lg.Error("workload census failed", "workload", tgt.Name, "err", err)
			}
			c.res.Targets = append(c.res.Targets, tr)
			continue
		}
		tr.Census = census
		for _, class := range classes {
			rng := rand.New(rand.NewSource(subSeed(cfg.Seed, tgt.Name, class.String(), "explore")))
			scheds := Explore(class, census.Sites(class), cfg.Budget, rng)
			c.res.SchedulesPlanned += len(scheds)
			for _, sc := range scheds {
				if c.expired() {
					c.res.DeadlineExpired = true
					if cfg.Metrics != nil {
						cfg.Metrics.CampaignDeadlineHits.Add(1)
					}
					if lg := cfg.Logger; lg != nil {
						lg.Warn("campaign deadline expired; results are partial",
							"deadline", cfg.Deadline, "schedules_run", c.res.SchedulesRun)
					}
					break
				}
				// One campaign span per schedule; nil-safe throughout, so
				// an unset recorder costs only the call.
				sp := c.cfg.Flight.Start(flight.CatCampaign, "schedule", 0)
				out := c.runSchedule(tgt, sc)
				c.logOutcome(tgt.Name, sp, out)
				sp.SetStr("workload", tgt.Name).
					SetStr("class", out.Class).
					SetInt("site", int64(out.Site)).
					SetInt("op_index", int64(out.OpIndex)).
					SetInt("injected", int64(b2u(out.Injected))).
					SetInt("flagged", int64(b2u(out.Flagged))).
					SetInt("states_explored", int64(out.StatesExplored)).
					SetInt("states_possible", int64(out.StatesPossible)).
					SetErr(out.Demonstrated)
				if out.ImageHash != "" {
					sp.SetStr("image_hash", out.ImageHash)
				}
				if out.RecoveryErr != "" {
					sp.SetStr("recovery_err", out.RecoveryErr)
				}
				sp.Finish()
				tr.Outcomes = append(tr.Outcomes, out)
				c.res.SchedulesRun++
			}
			if c.res.DeadlineExpired {
				break
			}
		}
		tr.Summaries = summarize(tr.Outcomes)
		c.res.Targets = append(c.res.Targets, tr)
	}
	c.res.Repros = c.repros.All()
	c.res.DiscoveryAUC = discoveryAUC(c.res.Targets)
	if lg := cfg.Logger; lg != nil {
		lg.Info("campaign finished",
			"schedules_run", c.res.SchedulesRun, "planned", c.res.SchedulesPlanned,
			"faults_injected", c.res.FaultsInjected,
			"states_explored", c.res.StatesExplored,
			"recovery_failures", c.res.RecoveryFailures,
			"repros", len(c.res.Repros), "partial", c.res.DeadlineExpired)
	}
	return c.res, nil
}

// logOutcome emits the per-schedule log record: demonstrated recovery
// failures at Warn (they are the campaign's findings), everything else
// at Debug, both carrying the schedule's flight span_id so a log line
// leads straight to its span in /flight.
func (c *campaign) logOutcome(workload string, sp *flight.Span, out Outcome) {
	lg := c.cfg.Logger
	if lg == nil {
		return
	}
	level := slog.LevelDebug
	msg := "schedule checked"
	if out.Demonstrated {
		level, msg = slog.LevelWarn, "recovery failure demonstrated"
	}
	if !lg.Enabled(context.Background(), level) {
		return
	}
	var spanID uint64
	if sp != nil {
		spanID = sp.ID
	}
	attrs := []any{
		"workload", workload, "class", out.Class, "site", out.Site,
		"injected", out.Injected, "flagged", out.Flagged,
		"states_explored", out.StatesExplored,
	}
	if spanID != 0 {
		attrs = append(attrs, "span_id", spanID)
	}
	if out.RecoveryErr != "" {
		attrs = append(attrs, "recovery_err", out.RecoveryErr)
	}
	lg.Log(context.Background(), level, msg, attrs...)
}

// takeCensus dry-runs the target to count injectable sites.
func (c *campaign) takeCensus(tgt Target) (Census, error) {
	dev := pmem.New(tgt.DevSize, nil)
	st, err := tgt.New(dev)
	if err != nil {
		return Census{}, fmt.Errorf("construct: %w", err)
	}
	hook := NewCensus(dev)
	dev.SetFaultHook(hook)
	for i := 0; i < c.cfg.Ops; i++ {
		if err := st.Do(i); err != nil {
			return Census{}, fmt.Errorf("census op %d: %w", i, err)
		}
	}
	return hook.Census(), nil
}

// runSchedule executes one (target, class, site) plan: run the workload
// with the fault armed, stop at the faulted section, judge it with the
// engine, then search crash states for a failing recovery and minimize
// the evidence.
func (c *campaign) runSchedule(tgt Target, sc Schedule) Outcome {
	out := Outcome{Class: sc.Class.String(), Site: sc.Site, OpIndex: -1}
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.CampaignSchedules.Add(1)
	}
	rec := &trace.Recorder{}
	dev := pmem.New(tgt.DevSize, rec)
	st, err := tgt.New(dev)
	if err != nil {
		out.Err = fmt.Sprintf("construct: %v", err)
		return out
	}
	inj := NewInjector(dev, sc.Class, sc.Site,
		rand.New(rand.NewSource(subSeed(c.cfg.Seed, tgt.Name, sc.Class.String(), "inject", fmt.Sprint(sc.Site)))))
	dev.SetFaultHook(inj)

	completed := 0
	var section []trace.Op
	for i := 0; i < c.cfg.Ops; i++ {
		rec.Ops = rec.Ops[:0]
		err := st.Do(i)
		if err != nil {
			out.Err = fmt.Sprintf("op %d: %v", i, err)
			if inj.Injected() {
				out.OpIndex = i
				section = append([]trace.Op(nil), rec.Ops...)
			}
			break
		}
		completed = i + 1
		if inj.Injected() {
			out.OpIndex = i
			section = append([]trace.Op(nil), rec.Ops...)
			break
		}
	}
	out.Injected = inj.Injected()
	dev.SetFaultHook(nil)

	if out.Injected && c.cfg.Metrics != nil {
		c.cfg.Metrics.FaultsInjected.Add(1)
	}
	c.res.FaultsInjected += b2u(out.Injected)

	// Engine verdict on the faulted section.
	if len(section) > 0 {
		rep := core.CheckTrace(c.rules, &trace.Trace{Ops: section})
		out.Flagged = rep.Fails() > 0
		out.Codes = failCodes(rep)
	}

	// Ground truth: search the reachable crash states for one whose
	// recovery fails. For the legal class the search is the control — it
	// validates that every explored state recovers.
	if out.Injected {
		c.crashSearch(dev, st, completed, sc.Class.IsBug(), &out)
	}

	// Minimize the evidence and record the reproducer when the finding
	// is confirmed from both sides.
	if out.Flagged && len(out.Codes) > 0 {
		code := core.Code(out.Codes[0])
		minOps := Minimize(section, func(ops []trace.Op) bool {
			return core.CheckTrace(c.rules, &trace.Trace{Ops: ops}).HasCode(code)
		})
		out.MinOps, out.OrigOps = len(minOps), len(section)
		if out.Demonstrated {
			r := bugdb.Repro{
				ID:       fmt.Sprintf("campaign/%s/%s@%d", tgt.Name, sc.Class, sc.Site),
				Workload: tgt.Name, FaultClass: sc.Class.String(),
				Seed: c.cfg.Seed, Site: sc.Site, Code: code,
				Ops: minOps, OrigOps: len(section),
				ImageHash: out.ImageHash, StatesExplored: out.StatesExplored,
			}
			c.repros.Add(r)
			out.ReproID = r.ID
		}
	}
	return out
}

// crashSearch validates crash states of the faulted run against the
// stepper's recovery ground truth, filling the state-space accounting
// and the first failure into out. stopOnFail stops at the first failing
// state (bug classes); the legal class explores its full budget so every
// state is checked clean.
func (c *campaign) crashSearch(dev *pmem.Device, st Stepper, completed int, stopOnFail bool, out *Outcome) {
	validate := func(img []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("recovery panicked: %v", r)
			}
		}()
		return st.Verify(img, completed)
	}

	dirty := dev.DirtyLines()
	if dirty >= 62 {
		out.StatesPossible = 1 << 62
	} else {
		out.StatesPossible = 1 << dirty
	}

	try := func(img []byte) bool { // returns true to keep searching
		out.StatesExplored++
		if err := validate(img); err != nil {
			if !out.Demonstrated {
				sum := sha256.Sum256(img)
				out.Demonstrated = true
				out.ImageHash = hex.EncodeToString(sum[:8])
				out.RecoveryErr = err.Error()
			}
			return !stopOnFail
		}
		return true
	}

	if out.StatesPossible <= uint64(c.cfg.StateLimit) {
		// Exhaustive: the enumeration covers the whole space, extremes
		// (mask 0 = nothing more persists, all-ones = everything does)
		// included, so explored never exceeds possible.
		complete := dev.EnumerateCrashStates(c.cfg.StateLimit, try)
		// The space was fully visited unless a failure stopped the
		// enumeration early.
		out.Complete = complete && !(out.Demonstrated && stopOnFail)
	} else {
		// Bounded: the no-more-persistence extreme first (it kills most
		// durability faults immediately), then seeded samples, then the
		// everything-persisted extreme (DrainAll mutates the device,
		// which is done with its run).
		more := try(dev.Image())
		if more {
			rng := rand.New(rand.NewSource(subSeed(c.cfg.Seed, "crash", fmt.Sprint(out.Class), fmt.Sprint(out.Site))))
			opt := pmem.CrashOptions{TearLines: c.cfg.TearLines}
			for i := 0; i < c.cfg.Samples; i++ {
				if !try(dev.SampleCrash(rng, opt)) {
					more = false
					break
				}
			}
		}
		if more || !stopOnFail {
			dev.DrainAll()
			try(dev.Image())
		}
	}

	c.res.StatesExplored += out.StatesExplored
	c.res.StatesPossible += out.StatesPossible
	c.res.RecoveryFailures += b2u(out.Demonstrated)
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.CrashStatesExplored.Add(out.StatesExplored)
		c.cfg.Metrics.CrashStatesPossible.Add(out.StatesPossible)
		if out.Demonstrated {
			c.cfg.Metrics.RecoveryFailures.Add(1)
		}
	}
}

func summarize(outcomes []Outcome) []ClassSummary {
	byClass := map[string]*ClassSummary{}
	var order []string
	for _, o := range outcomes {
		s := byClass[o.Class]
		if s == nil {
			cl, _ := ParseClass(o.Class)
			s = &ClassSummary{Class: o.Class, Bug: cl.IsBug()}
			byClass[o.Class] = s
			order = append(order, o.Class)
		}
		s.Schedules++
		s.Injected += int(b2u(o.Injected))
		s.Flagged += int(b2u(o.Flagged))
		s.Demonstrated += int(b2u(o.Demonstrated))
	}
	out := make([]ClassSummary, 0, len(order))
	for _, cl := range order {
		out = append(out, *byClass[cl])
	}
	return out
}

func failCodes(rep core.Report) []string {
	seen := map[string]bool{}
	var codes []string
	for _, d := range rep.Diags {
		if d.Severity == core.SeverityFail && !seen[string(d.Code)] {
			seen[string(d.Code)] = true
			codes = append(codes, string(d.Code))
		}
	}
	sort.Strings(codes)
	return codes
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
