package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parloop"
	"repro/internal/profile"
)

const (
	relTol   = 0.1  // one order of residual drop (RunToSteady semantics)
	maxSteps = 2000 // a solve that has not dropped by then has failed
)

// seededPulse derives the initial pulse amplitude from the seed: 0.02
// within ±0.05%, so every seed solves different bits with the same
// amount of work.
func seededPulse(seed int64) float64 {
	return 0.02 * (1 + 1e-3*(rand.New(rand.NewSource(seed)).Float64()-0.5))
}

// timedSolver times every Step of a solver, so f3d.RunToSteady drives
// the solve while the benchmark sees each step.
type timedSolver struct {
	*f3d.CacheSolver
	e     *env
	steps []float64 // seconds
	flops float64   // nominal StepStats.Flops of the last step
}

func (t *timedSolver) Step() f3d.StepStats {
	var st f3d.StepStats
	d := t.e.timed(func() { st = t.CacheSolver.Step() })
	t.steps = append(t.steps, d.Seconds())
	t.flops = st.Flops
	return st
}

func (t *timedSolver) solve(pulse float64) ([]float64, time.Duration, error) {
	return solvePulse(t, pulse)
}

// solvePulse runs one pulse solve of s to a one-order residual drop and
// returns its residual history and wall time.
func solvePulse(s f3d.Solver, pulse float64) ([]float64, time.Duration, error) {
	f3d.InitPulse(s, pulse)
	t0 := time.Now()
	h := f3d.RunToSteady(s, relTol, maxSteps)
	d := time.Since(t0)
	if !h.Converged {
		return h.Residuals, d, fmt.Errorf("no one-order drop within %d steps", maxSteps)
	}
	return h.Residuals, d, nil
}

// sameBits reports whether two residual histories are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runTeam is the f3d-1m-half workload: the paper's 1M-point
// three-zone case scaled by 0.5 on a team of nproc workers.
func runTeam(e *env) (*outcome, error) {
	return runSolver(e, runtime.NumCPU(), 1, e.window())
}

// runSideBySide is the f3d-1m-half-jobs workload: nproc solves of the
// same case at once, each on a team of one worker, as a scheduler that
// grants one processor per job runs them. A traced run measures the
// cluster, scheduler and daemon layers instead, which no gated
// workload carries; f3d-1m-half's traced run covers the solver's.
func runSideBySide(e *env) (*outcome, error) {
	if !e.trace {
		return runSolver(e, 1, runtime.NumCPU(), e.window())
	}
	out := newOutcome()
	out.workingSetBytes = int64(runtime.NumCPU()) * stateBytes(grid.Scaled(grid.Paper1M(), 0.5))
	if err := clusterLayers(e, out, e.window()); err != nil {
		return nil, err
	}
	return out, nil
}

// runSolver solves the paper's 1M-point three-zone case scaled by 0.5
// in-process for the window: jobs CacheSolvers at once, each on its
// own team of procs workers, with the option set f3d.Job uses in
// production. A traced run needs jobs = 1.
func runSolver(e *env, procs, jobs int, window time.Duration) (*outcome, error) {
	c := grid.Scaled(grid.Paper1M(), 0.5)
	cfg := f3d.DefaultConfig(c)
	pulse := seededPulse(e.seed)
	out := newOutcome()
	out.workingSetBytes = int64(jobs) * stateBytes(c)

	// Set-up: the teams, the solvers and their initial state. Repeated
	// at least five times and for at least 1 s, and the median reported.
	var setups []float64
	teams := make([]*parloop.Team, jobs)
	solvers := make([]*f3d.CacheSolver, jobs)
	closeAll := func() {
		for i := range solvers {
			if solvers[i] != nil {
				solvers[i].Close()
				teams[i].Close()
				solvers[i], teams[i] = nil, nil
			}
		}
	}
	defer closeAll()
	for t0 := time.Now(); len(setups) < 5 || (time.Since(t0) < time.Second && len(setups) < 500); {
		closeAll()
		// Each set-up starts from a collected heap, so it neither pays
		// for the last one's garbage nor reuses it depending on when the
		// collector last ran.
		runtime.GC()
		t1 := time.Now()
		for i := range solvers {
			team := parloop.NewTeam(procs)
			s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team, Phases: f3d.AllPhases()})
			if err != nil {
				team.Close()
				return nil, err
			}
			f3d.InitPulse(s, pulse)
			teams[i], solvers[i] = team, s
		}
		setups = append(setups, time.Since(t1).Seconds())
	}
	plain := make([]*timedSolver, jobs)
	for i, s := range solvers {
		plain[i] = &timedSolver{CacheSolver: s, e: e}
	}
	team := teams[0]

	// The serial reference: the same solver on one worker. It decides
	// correctness and, in a traced run, the single-thread baseline.
	ref, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	serial := &timedSolver{CacheSolver: ref, e: &env{}}

	var hists [][]float64
	var solveTimes []float64
	record := func(h []float64, d time.Duration, err error) {
		out.attempted++
		if err != nil {
			out.fail(1, "solve %d: %v", out.attempted, err)
			return
		}
		hists = append(hists, h)
		solveTimes = append(solveTimes, d.Seconds())
	}
	// solveAll runs one solve on every plain solver at once.
	type solved struct {
		h   []float64
		d   time.Duration
		err error
	}
	solveAll := func() {
		res := make([]solved, jobs)
		var wg sync.WaitGroup
		for i, p := range plain {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i].h, res[i].d, res[i].err = p.solve(pulse)
			}()
		}
		wg.Wait()
		for _, r := range res {
			record(r.h, r.d, r.err)
		}
	}

	var tr *tracedSolve
	if e.trace {
		tr, err = newTracedSolve(cfg, team)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
	}
	team.ResetSyncEvents()
	start := time.Now()
	for rounds := 1; ; rounds++ {
		solveAll()
		if tr != nil {
			record(tr.solve(pulse))
		}
		// Stop when another round would overrun the window.
		if el := time.Since(start); el+el/time.Duration(rounds) > window {
			break
		}
	}
	var steps []float64
	for _, p := range plain {
		steps = append(steps, p.steps...)
	}

	want, _, err := serial.solve(pulse)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	bad := 0
	for _, h := range hists {
		if !sameBits(h, want) {
			bad++
		}
	}
	out.fail(bad, "%d of %d solves differ from the serial reference history", bad, len(hists))

	if !e.trace {
		step := median(steps)
		out.setE2E("setup_s", median(setups))
		out.setE2E("steps_per_hr", 3600/step)
		out.setE2E("mflops", plain[0].flops/step/1e6)
		out.setE2E("solve_s", median(solveTimes))
		return out, nil
	}

	// Traced run (one plain solver): the fork-joins the team counted
	// over the plain and twin solves.
	syncsPerStep := float64(team.SyncEvents()) / float64(len(steps)+len(tr.steps))
	// The single-thread baseline wants 100 samples, or as many as two
	// seconds of serial solves give.
	for len(serial.steps) < 100 && sum(serial.steps) < 2 {
		h, _, err := serial.solve(pulse)
		if err != nil || !sameBits(h, want) {
			return nil, fmt.Errorf("serial reference is not repeatable")
		}
	}
	probeLinalg(out, longestLine(c), e.seed)
	forkJoin := probeSync(out, team)
	nproc := median(steps)
	one := median(serial.steps)
	// The model works in flops; the measured single-worker rate converts
	// the fork-join cost to the same unit.
	syncFlops := float64(forkJoin) / (one * 1e9) * plain[0].flops
	pm := predictPhases(c, procs, syncFlops)
	out.setLayer("f3d.iterations", float64(len(want)))
	out.setLayer("f3d.step_ms_p90", 1000*quantile(steps, 0.9))
	out.setLayer("parloop.syncs_per_step", syncsPerStep)
	out.setLayer("parloop.speedup", one/nproc)
	out.setLayer("parloop.model_speedup", pm.full.PredictSpeedup(procs, syncFlops))
	tr.report(out, pm)
	return out, nil
}

// tracedSolve is the traced twin of the workload's solver: same case,
// same team, with the phase Profiler attached and PhaseTrace labelling
// every phase. Its steps alternate the team's tracer on and off, so one
// run yields phase times, the analyzer's attribution, and the tracer's
// cost between neighbouring steps that differ only by tracing.
type tracedSolve struct {
	*timedSolver
	team   *parloop.Team
	tracer *obs.Tracer
	prof   *profile.Profiler

	onSteps, offSteps []float64 // step seconds with the tracer on, off

	regionNs, imbNs, barNs, syncNs float64 // analyzer components
	dropped                        uint64
}

func newTracedSolve(cfg f3d.Config, team *parloop.Team) (*tracedSolve, error) {
	prof := profile.New()
	s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{
		Team: team, Phases: f3d.AllPhases(), Profiler: prof, PhaseTrace: "f3d",
	})
	if err != nil {
		return nil, err
	}
	return &tracedSolve{
		timedSolver: &timedSolver{CacheSolver: s, e: &env{}}, team: team,
		tracer: obs.NewTracer(1<<18, nil), prof: prof,
	}, nil
}

// Step runs one step, with the team's tracer on for alternate pairs of
// steps. Pairs, not single steps, so that a difference in cost between
// even and odd steps falls on the traced and untraced sides alike.
func (t *tracedSolve) Step() f3d.StepStats {
	on := len(t.steps)/2%2 == 0
	if on {
		t.team.SetTracer(t.tracer, "f3d")
		t.tracer.Enable()
	}
	st := t.timedSolver.Step()
	if on {
		t.tracer.Disable()
		t.team.SetTracer(nil, "")
		t.onSteps = append(t.onSteps, t.steps[len(t.steps)-1])
	} else {
		t.offSteps = append(t.offSteps, t.steps[len(t.steps)-1])
	}
	return st
}

// solve runs one twin solve and folds its traced steps into the totals.
func (t *tracedSolve) solve(pulse float64) ([]float64, time.Duration, error) {
	t.tracer.Reset()
	h, d, err := solvePulse(t, pulse)
	t.dropped += t.tracer.Dropped()
	rep := analyze.Analyze(t.tracer.Events(), analyze.Config{})
	for _, l := range rep.Loops {
		a := l.Attribution
		t.regionNs += float64(a.ParallelNs + a.BarrierNs + a.ImbalanceNs + a.SyncNs)
		t.imbNs += float64(a.ImbalanceNs)
		t.barNs += float64(a.BarrierNs)
		t.syncNs += float64(a.SyncNs)
	}
	return h, d, err
}

// phaseTotals sums the Profiler's "<zone>/<phase>" charges by phase, in
// nanoseconds, and returns their total.
func phaseTotals(p *profile.Profiler) (map[string]float64, float64) {
	byPhase := map[string]float64{}
	total := 0.0
	for _, en := range p.Entries() {
		byPhase[en.Name[strings.LastIndexByte(en.Name, '/')+1:]] += float64(en.Total)
		total += float64(en.Total)
	}
	return byPhase, total
}

// report sets the f3d phase ledger over every twin step, the parloop
// attribution over the traced ones, and the tracer's overhead.
func (t *tracedSolve) report(out *outcome, pm phaseModel) {
	steps := float64(len(t.steps))
	wallNs := sum(t.steps) * 1e9
	byPhase, total := phaseTotals(t.prof)
	for _, ph := range phases {
		out.setLayer("f3d."+ph+"_ms", byPhase[ph]/steps/1e6)
		out.setLayer("f3d."+ph+"_model_gap", byPhase[ph]/total-pm.shares[ph])
	}
	out.setLayer("f3d.phase_closure", total/wallNs)
	if t.dropped > 0 {
		warnf("trace ring dropped %d events; attribution undercounts", t.dropped)
	}
	tracedNs := sum(t.onSteps) * 1e9
	out.setLayer("parloop.serial_frac", 1-t.regionNs/tracedNs)
	out.setLayer("parloop.imbalance_frac", t.imbNs/tracedNs)
	out.setLayer("parloop.barrier_frac", t.barNs/tracedNs)
	out.setLayer("parloop.sync_frac", t.syncNs/tracedNs)
	out.setLayer("obs.trace_overhead_frac", median(t.onSteps)/median(t.offSteps)-1)
}
