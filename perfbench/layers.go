package main

import (
	"math/rand"
	"strings"
	"time"

	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/parloop"
)

// phases are the solver phases the f3d.CacheOptions.Profiler charges,
// keyed "<zone>/<phase>", under the production option set.
var phases = []string{"bc", "rhs", "residual", "sweep-jk", "sweep-l"}

// stateBytes is the computed working set of a case: the solver keeps
// two five-component float64 fields (Q and R) per grid point.
func stateBytes(c grid.Case) int64 {
	return int64(c.Points()) * 2 * 5 * 8
}

// longestLine is the longest implicit line in the case: the largest
// zone dimension less its two boundary points.
func longestLine(c grid.Case) int { return c.MaxDim() - 2 }

// probeLinalg times the production sweep's inner kernel at the
// workload's longest line: five scalar SolveTridiag calls (one per
// characteristic field) and one lane-batched SolveTridiag5. Each
// figure is the median over repeated batches of the time per line.
func probeLinalg(out *outcome, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var src [linalg.Lanes][4][]float64 // a, b, c, d per lane, never modified
	for l := range src {
		for k := range src[l] {
			src[l][k] = make([]float64, n)
			for i := range src[l][k] {
				src[l][k][i] = rng.Float64() - 0.5
				if k == 1 {
					src[l][k][i] += 4 // diagonally dominant
				}
			}
		}
	}
	var work [linalg.Lanes][4][]float64
	for l := range work {
		for k := range work[l] {
			work[l][k] = make([]float64, n)
		}
	}
	reset := func() {
		for l := range work {
			for k := range work[l] {
				copy(work[l][k], src[l][k])
			}
		}
	}
	const lines, batches = 2000, 15
	perLine := func(solve func()) float64 {
		var samples []float64
		for b := 0; b < batches; b++ {
			var total time.Duration
			for i := 0; i < lines; i++ {
				reset()
				t0 := time.Now()
				solve()
				total += time.Since(t0)
			}
			samples = append(samples, float64(total)/lines)
		}
		return median(samples)
	}
	out.setLayer("linalg.tridiag_line_ns", perLine(func() {
		for l := range work {
			linalg.SolveTridiag(work[l][0], work[l][1], work[l][2], work[l][3])
		}
	}))
	a, b, c, d := lanes(&work, 0), lanes(&work, 1), lanes(&work, 2), lanes(&work, 3)
	out.setLayer("linalg.tridiag5_line_ns", perLine(func() {
		linalg.SolveTridiag5(a, b, c, d, n)
	}))
}

func lanes(w *[linalg.Lanes][4][]float64, k int) *[linalg.Lanes][]float64 {
	var v [linalg.Lanes][]float64
	for l := range w {
		v[l] = w[l][k]
	}
	return &v
}

// probeSync measures the team's fork-join and barrier cost with
// parloop's own probes, median over repetitions.
func probeSync(out *outcome, team *parloop.Team) (forkJoin time.Duration) {
	var fj, bar []float64
	for i := 0; i < 9; i++ {
		fj = append(fj, float64(parloop.MeasureSyncCost(team, 500).PerSync))
		bar = append(bar, float64(parloop.MeasureBarrierCost(team, 500).PerSync))
	}
	out.setLayer("parloop.fork_join_ns", median(fj))
	out.setLayer("parloop.barrier_ns", median(bar))
	return time.Duration(median(fj))
}

// phaseModel is f3d.StepProfileFor's prediction for the production
// option set, split by solver phase.
type phaseModel struct {
	full   model.StepProfile
	shares map[string]float64 // predicted share of the step per phase at procs workers
}

// predictPhases predicts each phase's share of a step on procs workers.
// Work is in flops; syncFlops converts the measured fork-join cost to
// the same unit at the measured single-worker rate.
func predictPhases(c grid.Case, procs int, syncFlops float64) phaseModel {
	full := f3d.StepProfileFor(c, f3d.AllPhases())
	// With BC listed as a loop the profile's serial work is exactly the
	// residual accumulation, which separates the two serial phases.
	split := f3d.StepProfileFor(c, f3d.ParallelPhases{RHS: true, SweepJK: true, SweepL: true, BC: true})
	times := map[string]float64{"residual": split.SerialCycles}
	for _, l := range split.Loops {
		ph := l.Name[strings.LastIndexByte(l.Name, '/')+1:]
		if ph == "bc" {
			times["bc"] += l.WorkCycles // serial in production
			continue
		}
		if ph == "rhs-jk" || ph == "rhs-l" {
			ph = "rhs"
		}
		one := model.StepProfile{Loops: []model.LoopClass{l}}
		times[ph] += one.PredictStepCycles(procs, syncFlops)
	}
	total := 0.0
	for _, t := range times {
		total += t
	}
	pm := phaseModel{full: full, shares: map[string]float64{}}
	for ph, t := range times {
		pm.shares[ph] = t / total
	}
	return pm
}
