package main

import (
	"fmt"
	"strings"
	"testing"
)

// runSets runs the f3d-1m-half workload n times for each of the given
// benchmark-side slowdowns, each run for BENCHMARK.json's run_seconds.
// The sets are interleaved run by run, so drift in the
// host's speed falls on every set alike.
func runSets(t *testing.T, s spec, n int, slows ...float64) [][]result {
	t.Helper()
	sets := make([][]result, len(slows))
	for i := 0; i < n; i++ {
		for k, slow := range slows {
			e := &env{seed: int64(100 + i), seconds: s.RunSeconds, slow: slow}
			r, _, err := runOne("f3d-1m-half", e, s)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("run %d: %d of %d operations failed", i, r.Failed, r.Attempted)
			}
			sets[k] = append(sets[k], r)
		}
	}
	return sets
}

// TestSensitivity shows that the comparison against BENCHMARK.json's
// bounds flags a 30% slowdown injected around each timed step, and
// passes two sets of runs of unchanged code.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload nine times")
	}
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// The delay wraps the timed steps; set-up is not one of them.
	skip := map[string]bool{"setup_s": true}
	sets := runSets(t, s, 3, 0, 0, 0.3)
	base, same, slow := sets[0], sets[1], sets[2]

	if got := regressions(s, base, same, skip); len(got) > 0 {
		t.Errorf("unchanged code flagged:\n%s", strings.Join(got, "\n"))
	}
	got := regressions(s, base, slow, skip)
	t.Logf("30%% slowdown flagged:\n%s", strings.Join(got, "\n"))
	flagged := map[string]bool{}
	for _, g := range got {
		flagged[g[:strings.IndexByte(g, ':')]] = true
	}
	for _, m := range s.EndToEnd {
		if !skip[m.Name] && !flagged[m.Name] {
			t.Errorf("30%% slowdown not flagged on %s (flagged: %v)", m.Name, got)
		}
	}
}

// regressions compares the medians of two sets of runs, metric by
// metric, and names every metric whose candidate median is worse than
// the base median by more than its bound (a share of the base median).
func regressions(s spec, base, cand []result, skip map[string]bool) []string {
	var out []string
	for _, m := range s.EndToEnd {
		if skip[m.Name] {
			continue
		}
		b, c := medianOf(base, m.Name), medianOf(cand, m.Name)
		worse := (c - b) / b
		if m.Better == "higher" {
			worse = (b - c) / b
		}
		if worse > m.Bound {
			out = append(out, fmt.Sprintf("%s: %.4g -> %.4g (worse by %.1f%%, bound %.0f%%)", m.Name, b, c, 100*worse, 100*m.Bound))
		}
	}
	return out
}

func medianOf(runs []result, name string) float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return median(xs)
}
