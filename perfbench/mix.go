package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// jobClass is one kind of f3d job in the daemon job mix.
type jobClass struct {
	name    string
	j, k, l int
	steps   int
	weight  float64
}

func (c jobClass) dims() string { return fmt.Sprintf("%dx%dx%d", c.j, c.k, c.l) }

var mixClasses = []jobClass{
	{name: "small", j: 16, k: 12, l: 10, steps: 20, weight: 0.6},
	{name: "mid", j: 24, k: 20, l: 16, steps: 20, weight: 0.3},
	{name: "large", j: 40, k: 32, l: 28, steps: 10, weight: 0.1},
}

const (
	pollInterval = 10 * time.Millisecond
	scrapeEvery  = time.Second
	drainTimeout = 60 * time.Second
)

// jobStatus is the part of f3dd's job status the benchmark reads.
type jobStatus struct {
	ID         uint64  `json:"id"`
	State      string  `json:"state"`
	Granted    int     `json:"granted"`
	Resizes    int     `json:"resizes"`
	SyncEvents uint64  `json:"sync_events"`
	WaitSec    float64 `json:"wait_sec"`
	RunSec     float64 `json:"run_sec"`
}

// mixJob is one generated job and what happened to it.
type mixJob struct {
	class int
	pulse float64
	id    uint64

	ok     bool // reached 200 with state "done"
	status jobStatus
}

// mixSequence draws the job sequence from the seed: classes in exactly
// the mix's proportions within every block of ten jobs, in seeded
// order, each job with its own seeded pulse.
func mixSequence(seed int64, n int) []*mixJob {
	rng := rand.New(rand.NewSource(seed))
	var block []int
	for ci, cl := range mixClasses {
		for k := int(cl.weight*10 + 0.5); k > 0; k-- {
			block = append(block, ci)
		}
	}
	jobs := make([]*mixJob, 0, n)
	for len(jobs) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, ci := range block {
			jobs = append(jobs, &mixJob{class: ci, pulse: seededPulse(rng.Int63())})
		}
	}
	return jobs
}

// mixClient is the load generator's single process: one HTTP client
// with at most nproc connections, shared by the writer, the pollers
// and the scraper.
type mixClient struct {
	base string
	http *http.Client

	mu       sync.Mutex
	submitMs []float64
	pollMs   []float64
	scrapeMs []float64
	turnMs   []float64 // client turnaround: result seen to next submit
	polls    int
	rejected int
}

func (c *mixClient) submit(j *mixJob) error {
	cl := mixClasses[j.class]
	body, _ := json.Marshal(map[string]any{
		"kind": "f3d", "name": cl.name, "dims": cl.dims(), "steps": cl.steps, "pulse": j.pulse,
	})
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	c.mu.Lock()
	c.submitMs = append(c.submitMs, ms(time.Since(t0)))
	if resp.StatusCode == http.StatusTooManyRequests {
		c.rejected++
	}
	c.mu.Unlock()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("submit: decode: %w", err)
	}
	j.id = st.ID
	return nil
}

// poll asks for one job's result; it reports whether the job has
// reached a terminal state.
func (c *mixClient) poll(j *mixJob) (bool, error) {
	t0 := time.Now()
	resp, err := c.http.Get(fmt.Sprintf("%s/jobs/%d/result", c.base, j.id))
	if err != nil {
		return true, fmt.Errorf("poll job %d: %w", j.id, err)
	}
	defer resp.Body.Close()
	var st jobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	c.mu.Lock()
	c.pollMs = append(c.pollMs, ms(time.Since(t0)))
	c.polls++
	c.mu.Unlock()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		return false, nil
	case derr != nil:
		return true, fmt.Errorf("poll job %d: decode: %w", j.id, derr)
	case resp.StatusCode != http.StatusOK || st.State != "done":
		return true, fmt.Errorf("job %d ended %s with state %q", j.id, resp.Status, st.State)
	}
	j.status = st
	return true, nil
}

func (c *mixClient) scrape() error {
	t0 := time.Now()
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape: %s %v", resp.Status, err)
	}
	c.mu.Lock()
	c.scrapeMs = append(c.scrapeMs, ms(time.Since(t0)))
	c.mu.Unlock()
	return nil
}

// driveMix runs the closed-loop job mix against the daemon at base for
// the window: nproc clients, each submitting a job, polling its result
// until it ends and submitting the next, on one HTTP client with at
// most nproc connections, plus a /metrics scrape every second.
func driveMix(e *env, out *outcome, base string, window time.Duration) (*mixClient, []*mixJob) {
	procs := runtime.NumCPU()
	c := &mixClient{base: base, http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs},
	}}
	// Enough jobs that no client can run out within the window.
	jobs := mixSequence(e.seed, int(200*window.Seconds()+1)*procs)

	var (
		mu      sync.Mutex
		next    int
		clients sync.WaitGroup
		wg      sync.WaitGroup
		stop    = make(chan struct{})
	)
	failf := func(format string, args ...any) {
		mu.Lock()
		out.fail(1, format, args...)
		mu.Unlock()
	}
	take := func() *mixJob {
		mu.Lock()
		defer mu.Unlock()
		if next == len(jobs) {
			return nil
		}
		out.attempted++
		next++
		return jobs[next-1]
	}

	start := time.Now()
	for w := 0; w < procs; w++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			var seen time.Time // when this client saw its last result
			for time.Since(start) < window {
				j := take()
				if j == nil {
					return
				}
				if !seen.IsZero() {
					c.mu.Lock()
					c.turnMs = append(c.turnMs, ms(time.Since(seen)))
					c.mu.Unlock()
				}
				if err := c.submit(j); err != nil {
					failf("%v", err)
					seen = time.Now()
					continue
				}
				for {
					time.Sleep(pollInterval)
					end, err := c.poll(j)
					if err != nil {
						failf("%v", err)
					}
					if end {
						j.ok = err == nil
						break
					}
					if time.Since(start) > window+drainTimeout {
						failf("job %d not done %v after the window", j.id, drainTimeout)
						break
					}
				}
				seen = time.Now()
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		scrape := time.NewTicker(scrapeEvery)
		defer scrape.Stop()
		for {
			select {
			case <-stop:
				return
			case <-scrape.C:
				if err := c.scrape(); err != nil {
					warnf("%v", err)
				}
			}
		}
	}()

	clients.Wait()
	close(stop)
	wg.Wait()
	return c, jobs[:next]
}

// mixStepSec groups the finished jobs' per-step run times, in
// seconds, by class.
func mixStepSec(jobs []*mixJob) [][]float64 {
	stepSec := make([][]float64, len(mixClasses))
	for _, j := range jobs {
		if j.ok {
			stepSec[j.class] = append(stepSec[j.class], j.status.RunSec/float64(mixClasses[j.class].steps))
		}
	}
	return stepSec
}

// mixLayers sets the scheduler, daemon and load-generator metrics of a
// driven mix.
func mixLayers(out *outcome, c *mixClient, jobs []*mixJob) {
	stepSec := mixStepSec(jobs)
	var waitMs []float64
	var resizes, granted, syncs, steps, done float64
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		waitMs = append(waitMs, 1000*j.status.WaitSec)
		resizes += float64(j.status.Resizes)
		granted += float64(j.status.Granted)
		syncs += float64(j.status.SyncEvents)
		steps += float64(mixClasses[j.class].steps)
		done++
	}
	out.setLayer("sched.wait_ms_p50", median(waitMs))
	out.setLayer("sched.wait_ms_p90", quantile(waitMs, 0.9))
	for ci, cl := range mixClasses {
		out.setLayer("sched.run_ms_p50_"+cl.name, 1000*median(stepSec[ci])*float64(cl.steps))
	}
	out.setLayer("sched.resizes_per_job", resizes/done)
	out.setLayer("sched.granted_mean", granted/done)
	out.setLayer("f3dd.submit_ms_p50", median(c.submitMs))
	out.setLayer("f3dd.poll_ms_p50", median(c.pollMs))
	out.setLayer("f3dd.polls_per_job", float64(c.polls)/done)
	out.setLayer("f3dd.scrape_ms_p50", median(c.scrapeMs))
	out.setLayer("f3dd.rejected_429", float64(c.rejected))
	out.setLayer("loadgen.late_ms_p90", quantile(c.turnMs, 0.9))
	out.setLayer("parloop.syncs_per_step", syncs/steps)
}
