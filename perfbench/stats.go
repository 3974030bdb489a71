package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics, q in [0,1]); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spin busy-waits for d: the benchmark-side slowdown used by the
// sensitivity self-check. A sleep would be too coarse for
// millisecond-scale operations.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// timed runs fn, adds the benchmark-side slowdown, and returns the
// elapsed time including it.
func (e *env) timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	spin(time.Duration(e.slow * float64(time.Since(t0))))
	return time.Since(t0)
}

// hostMeta records the host facts every result carries.
func hostMeta() map[string]any {
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goamd64":    goamd64(),
		"cpu_model":  cpuModel(),
		"l2_bytes":   cacheBytes(2),
		"l3_bytes":   cacheBytes(3),
	}
	return m
}

// goamd64 is the GOAMD64 level the benchmark binary was built for.
func goamd64() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheBytes reads the size of cpu0's cache at the given level from
// sysfs (0 when unknown).
func cacheBytes(level int) int64 {
	dirs, _ := os.ReadDir("/sys/devices/system/cpu/cpu0/cache")
	for _, d := range dirs {
		base := "/sys/devices/system/cpu/cpu0/cache/" + d.Name() + "/"
		lv, err := os.ReadFile(base + "level")
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		typ, _ := os.ReadFile(base + "type")
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, err := os.ReadFile(base + "size")
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		if k := strings.TrimSuffix(s, "K"); k != s {
			mult, s = 1<<10, k
		} else if m := strings.TrimSuffix(s, "M"); m != s {
			mult, s = 1<<20, m
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}
