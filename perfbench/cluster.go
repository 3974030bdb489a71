package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/f3d"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// rpcLog records every shard RPC the coordinator makes, timed from the
// benchmark's side of the cluster.WorkerClient interface.
type rpcLog struct {
	mu       sync.Mutex
	createMs []float64
	steps    map[int]*stepRPCs // by lockstep step, for the current solve
	release  time.Time         // first release of the current solve
}

// stepRPCs is one lockstep step seen from the transport.
type stepRPCs struct {
	start  time.Time // first shard RPC of the step
	maxRPC time.Duration
	rpcMs  []float64
	bytes  int // boundary-plane payload returned by all shards
}

// timedClient wraps a worker's transport and logs every call.
type timedClient struct {
	cluster.WorkerClient
	log *rpcLog
}

func (c timedClient) CreateShard(req cluster.CreateShardRequest) (cluster.CreateShardResponse, error) {
	t0 := time.Now()
	resp, err := c.WorkerClient.CreateShard(req)
	c.log.mu.Lock()
	c.log.createMs = append(c.log.createMs, ms(time.Since(t0)))
	c.log.mu.Unlock()
	return resp, err
}

func (c timedClient) StepShard(req cluster.StepRequest) (cluster.StepResponse, error) {
	t0 := time.Now()
	resp, err := c.WorkerClient.StepShard(req)
	d := time.Since(t0)
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	st := c.log.steps[req.Step]
	if st == nil {
		st = &stepRPCs{start: t0}
		c.log.steps[req.Step] = st
	}
	if t0.Before(st.start) {
		st.start = t0
	}
	if d > st.maxRPC {
		st.maxRPC = d
	}
	st.rpcMs = append(st.rpcMs, ms(d))
	for _, p := range resp.Planes {
		st.bytes += len(p)
	}
	return resp, err
}

func (c timedClient) ReleaseShard(req cluster.ReleaseRequest) error {
	t0 := time.Now()
	c.log.mu.Lock()
	if c.log.release.IsZero() {
		c.log.release = t0
	}
	c.log.mu.Unlock()
	return c.WorkerClient.ReleaseShard(req)
}

// stepTimes ends a solve's log. A lockstep step runs from its first
// shard RPC to the next step's; the last one ends at the first release.
func (l *rpcLog) stepTimes() (periods, lockstep, rpcMs []float64, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := make([]int, 0, len(l.steps))
	for s := range l.steps {
		idx = append(idx, s)
	}
	sort.Ints(idx)
	for i, s := range idx {
		st := l.steps[s]
		end := l.release
		if i+1 < len(idx) {
			end = l.steps[idx[i+1]].start
		}
		p := end.Sub(st.start)
		periods = append(periods, p.Seconds())
		lockstep = append(lockstep, ms(p-st.maxRPC))
		rpcMs = append(rpcMs, st.rpcMs...)
		bytes += st.bytes
	}
	l.steps = map[int]*stepRPCs{}
	l.release = time.Time{}
	return periods, lockstep, rpcMs, bytes
}

// clusterLayers measures the cluster, scheduler and daemon layers for
// a traced run, within the window: a three-zone case solved by a
// cluster.Coordinator over two f3dd daemons through cluster.HTTPClient,
// with production defaults (checkpoint every step), then a job mix
// against one of the daemons. Every solve and job counts as an
// attempted operation of out.
func clusterLayers(e *env, out *outcome, window time.Duration) error {
	// One 60×30×26 box stacked into three zones along J; the plateau
	// plan puts two zones on one worker and one on the other.
	c, ifaces := f3d.StackAlongJ("f3dc", 60, 30, 26, []int{20, 40})
	cfg := f3d.DefaultConfig(c)
	pulse := seededPulse(e.seed)

	// The single-node reference decides the solve length (the step at
	// which it drops one order) and the history every solve must match.
	refCfg := cfg
	refCfg.Interfaces = ifaces
	rs, err := f3d.NewCacheSolver(refCfg, f3d.CacheOptions{})
	if err != nil {
		return err
	}
	want, _, err := solvePulse(rs, pulse)
	rs.Close()
	if err != nil {
		return fmt.Errorf("single-node reference: %w", err)
	}
	spec := cluster.SolveSpec{
		Job: "f3dc", Zones: c.Zones, Interfaces: ifaces, Config: cfg,
		PulseAmp: pulse, Steps: len(want),
	}

	// Both daemons ready and registered, then a one-step warm-up solve
	// (shard creation, one step, release).
	ds, err := startDaemons(e, 2)
	if err != nil {
		return err
	}
	defer stopAll(ds)
	log := &rpcLog{steps: map[int]*stepRPCs{}}
	tracer := obs.NewTracer(1<<16, nil)
	coord := cluster.New(cluster.Config{Tracer: tracer})
	httpc := &http.Client{Timeout: 60 * time.Second}
	col := cluster.NewCollector(cluster.CollectorConfig{Coord: tracer})
	var workers []*cluster.HTTPClient
	for _, d := range ds {
		w := &cluster.HTTPClient{BaseURL: d.base, Client: httpc}
		if err := coord.Register(d.base, timedClient{WorkerClient: w, log: log}); err != nil {
			return err
		}
		col.AddWorker(w.BaseURL, w)
		workers = append(workers, w)
	}
	warm := spec
	warm.Steps = 1
	if _, err := coord.Solve(warm); err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	log.stepTimes()
	log.createMs = nil

	setTrace := func(on bool) error {
		if on {
			tracer.Enable()
		} else {
			tracer.Disable()
		}
		for _, w := range workers {
			if err := w.SetTrace(on, false); err != nil {
				return err
			}
		}
		return nil
	}

	// Solves alternate traced and untraced: the traced ones feed the
	// attribution, the untraced ones the transport timings. They get
	// three quarters of the window, the job mix the rest.
	var periods, lockstep, rpcMs []float64
	var planeBytes, steps int
	solveWindow := window * 3 / 4
	start := time.Now()
	for n := 1; ; n++ {
		traced := n%2 == 0
		if err := setTrace(traced); err != nil {
			return err
		}
		out.attempted++
		res, err := coord.Solve(spec)
		p, ls, rpc, b := log.stepTimes()
		if err != nil {
			out.fail(1, "solve %d: %v", n, err)
		} else if !sameBits(residuals(res.History), want) {
			out.fail(1, "solve %d: history differs from the single-node reference", n)
		} else if !traced {
			periods = append(periods, p...)
			lockstep = append(lockstep, ls...)
			rpcMs = append(rpcMs, rpc...)
			planeBytes += b
			steps += len(p)
		}
		// Stop when another solve would overrun; one of each kind is
		// needed.
		if el := time.Since(start); el+el/time.Duration(n) > solveWindow && n >= 2 {
			break
		}
	}
	if len(periods) == 0 {
		return fmt.Errorf("no untraced cluster solve completed")
	}

	// Collect the solves' trace before the job mix runs, untraced, so
	// the mix's own events cannot overwrite the daemons' trace rings.
	if err := setTrace(false); err != nil {
		return err
	}
	col.SyncClocks()
	col.Pull()
	c0, jobs := driveMix(e, out, ds[0].base, window-time.Since(start))
	mixLayers(out, c0, jobs)
	out.setLayer("cluster.step_rpc_ms_p50", median(rpcMs))
	out.setLayer("cluster.step_rpc_ms_p90", quantile(rpcMs, 0.9))
	out.setLayer("cluster.create_ms", median(log.createMs))
	out.setLayer("cluster.exchange_bytes_per_step", float64(planeBytes)/float64(steps))
	out.setLayer("cluster.lockstep_ms", median(lockstep))
	out.setLayer("cluster.step_ms_p90", 1000*quantile(periods, 0.9))
	rep := analyze.ClusterAnalyze(col.Timeline(), analyze.ClusterConfig{})
	var wall, compute, exchange, straggler float64
	for _, s := range rep.Solves {
		wall += float64(s.Totals.WallNs)
		compute += float64(s.Totals.ComputeNs)
		exchange += float64(s.Totals.ExchangeNs)
		straggler += float64(s.Totals.StragglerNs)
	}
	if wall == 0 {
		return fmt.Errorf("cluster trace holds no solve (%d events)", rep.Events)
	}
	if !rep.Closed {
		warnf("cluster attribution did not close")
	}
	out.setLayer("cluster.compute_share", compute/wall)
	out.setLayer("cluster.exchange_share", exchange/wall)
	out.setLayer("cluster.straggler_share", straggler/wall)
	return nil
}

func residuals(h []cluster.StepStat) []float64 {
	r := make([]float64, len(h))
	for i, s := range h {
		r[i] = s.Residual
	}
	return r
}
