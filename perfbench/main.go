// Command perfbench is the repository's benchmark: two workloads that
// measure the solver in the paper's units (time steps per hour,
// delivered MFLOPS), one solve on nproc workers and nproc solves on one
// worker each, and a traced mode that reports per-layer metrics, the
// f3dc cluster path over f3dd daemons and the f3dd scheduler's among
// them.
//
// Usage (from the repository root; run.sh builds it and f3dd):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--f3dd PATH]
//
// NAME is f3d-1m-half, f3d-1m-half-jobs, or all for every
// workload BENCHMARK.json lists. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and
// metrics; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones, named and with the units
// BENCHMARK.json gives them. A "meta" line before it records the
// host, the seed and each workload's computed working set. Every
// layer is measured from outside, through its public surface: the
// program under test carries no benchmark hooks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: the generated-input seed, the
// measurement window and the benchmark-side options.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	f3dd    string // path of the f3dd binary (daemon workloads)

	slow float64 // benchmark-side delay, as a share of each timed operation
}

// window returns the measurement window as a duration.
func (e *env) window() time.Duration {
	return time.Duration(e.seconds * float64(time.Second))
}

// outcome is what a workload measured: the end-to-end metrics of an
// untraced run and the per-layer metrics of a traced one, by name.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	workingSetBytes   int64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) setE2E(name string, v float64) { o.e2e[name] = v }

// setLayer records a per-layer metric. A NaN or an infinity, from a
// quantile or ratio of no samples, leaves it unset, so it is reported
// as not observed.
func (o *outcome) setLayer(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		o.layers[name] = v
	}
}

// fail records n failed operations (they were already counted as
// attempted) and says why on standard error.
func (o *outcome) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	warnf(format, args...)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"f3d-1m-half":    runTeam,
	"f3d-1m-half-jobs": runSideBySide,
}

func main() {
	var (
		name   string
		traceN int
	)
	e := &env{}
	flag.StringVar(&name, "workload", "", "workload to run: f3d-1m-half, f3d-1m-half-jobs, or all (those BENCHMARK.json lists)")
	flag.Int64Var(&e.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&e.seconds, "seconds", 10, "measurement window per workload, seconds")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&e.f3dd, "f3dd", ".bench_build/f3dd", "path of the f3dd binary")
	flag.Parse()
	e.trace = traceN == 1
	if e.seconds <= 0 {
		fatalf("--seconds must be > 0")
	}

	s, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	names := []string{name}
	if name == "all" {
		names = names[:0]
		for _, w := range s.Workloads {
			names = append(names, w.Name)
		}
	} else if workloads[name] == nil {
		fatalf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames(), ", "))
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		res, meta, err := runOne(n, e, s)
		if err != nil {
			fatalf("%s: %v", n, err)
		}
		printMeta(meta)
		if len(names) > 1 {
			printTable(n, res)
			line, _ := json.Marshal(res)
			fmt.Printf("result %s %s\n", n, line)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			key := k
			if len(names) > 1 {
				key = n + "/" + k
			}
			total.Metrics[key] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runOne runs one workload and turns its outcome into the result line
// and the metadata record. The metrics are the ones s lists, with its
// units: an untraced run must measure every end-to-end metric; a
// traced run reports a per-layer metric the workload cannot see as 0
// and names it under not_observed.
func runOne(name string, e *env, s spec) (result, map[string]any, error) {
	out, err := workloads[name](e)
	if err != nil {
		return result{}, nil, err
	}
	if out.attempted < 1 {
		return result{}, nil, fmt.Errorf("no operation attempted")
	}
	listed, got := s.EndToEnd, out.e2e
	if e.trace {
		listed, got = s.PerLayer, out.layers
	}
	metrics := map[string]metric{}
	notObserved := []string{}
	for _, m := range listed {
		v, ok := got[m.Name]
		if !ok {
			if !e.trace {
				return result{}, nil, fmt.Errorf("end-to-end metric %s not measured", m.Name)
			}
			notObserved = append(notObserved, m.Name)
		}
		metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for n := range got {
		if _, ok := metrics[n]; !ok {
			return result{}, nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", n)
		}
	}
	meta := hostMeta()
	meta["workload"] = name
	meta["seed"] = e.seed
	meta["seconds"] = e.seconds
	meta["trace"] = e.trace
	meta["working_set_bytes"] = out.workingSetBytes
	meta["working_set_note"] = "computed from the zone dimensions, not measured"
	if e.trace {
		meta["not_observed"] = notObserved
	}
	return result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, meta, nil
}

func printMeta(meta map[string]any) {
	b, err := json.Marshal(meta)
	if err != nil {
		fatalf("encode meta: %v", err)
	}
	fmt.Printf("meta %s\n", b)
}

// printTable prints one workload's metrics by name with their units.
func printTable(name string, r result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d failed_frac=%g\n",
		name, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, k := range keys {
		m := r.Metrics[k]
		fmt.Printf("   %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
