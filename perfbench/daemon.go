package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"syscall"
	"time"
)

// daemon is one f3dd process started from the binary built from the
// tree under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:PORT"
	log  bytes.Buffer
	done chan error
}

// startDaemon starts f3dd on a free loopback port and waits until its
// /healthz answers 200.
func startDaemon(e *env) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, done: make(chan error, 1)}
	t0 := time.Now()
	// The node tag is the base URL, the id a coordinator registers the
	// daemon under, so worker-side spans land on the coordinator's lanes.
	d.cmd = exec.Command(e.f3dd, "-addr", addr, "-node", d.base)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// A daemon must not outlive the benchmark, even a killed one.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start f3dd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			return nil, fmt.Errorf("f3dd exited before it was ready: %v: %s", err, d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	d.stop()
	return nil, fmt.Errorf("f3dd at %s not ready within 30s", addr)
}

// stop asks the daemon to drain and exit (SIGTERM), and kills it if it
// has not exited within 30 seconds. It returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // already exiting or exited: nothing to do
		<-d.done
	}
}

// freeAddr returns a loopback address with a port the kernel just
// handed out.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemons starts n daemons; on an error it stops those already
// started.
func startDaemons(e *env, n int) ([]*daemon, error) {
	var ds []*daemon
	for i := 0; i < n; i++ {
		d, err := startDaemon(e)
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}
