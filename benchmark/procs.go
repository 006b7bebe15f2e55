package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: built binaries, the
// children's logs, result and trace files. It is git-ignored.
const outDir = "benchmark/out"

// buildDaemons compiles the two real binaries from the checkout the
// harness runs in and returns how long that took.
func buildDaemons() (time.Duration, error) {
	start := time.Now()
	for _, name := range []string{"scip-serve", "scip-route"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(outDir, "bin", name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	return time.Since(start), nil
}

// proc is one child daemon.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// live tracks every running child so that any exit path — error,
// signal, panic, timeout — can kill them all.
var live struct {
	sync.Mutex
	procs []*proc
}

func startProc(name, logName, addr string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(outDir, logName+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(outDir, "bin", name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the harness is killed outright, the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var err2 error
	cpus.onCPUs(cpus.daemons, func() { err2 = cmd.Start() })
	if err2 != nil {
		logf.Close()
		return nil, err2
	}
	p := &proc{name: logName, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	live.Lock()
	live.procs = append(live.procs, p)
	live.Unlock()
	return p, nil
}

// stop asks the child to drain (SIGTERM), kills it if it does not leave
// within the grace period, and returns once it has ended.
func (p *proc) stop(grace time.Duration) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
	live.Lock()
	for i, q := range live.procs {
		if q == p {
			live.procs = append(live.procs[:i], live.procs[i+1:]...)
			break
		}
	}
	live.Unlock()
}

// killAll kills every child still running and waits for each to end.
func killAll() {
	live.Lock()
	procs := append([]*proc(nil), live.procs...)
	live.procs = nil
	live.Unlock()
	for _, p := range procs {
		p.cmd.Process.Kill()
	}
	for _, p := range procs {
		<-p.done
		p.log.Close()
	}
}

// reservePorts picks n free loopback ports by listen-and-close. Peers
// need the whole list before any of them starts, so the ports cannot be
// handed over as open listeners; a port stolen in between shows as a
// child that exits at bind, and startFleet retries with fresh ports.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs, nil
}

// waitHealthy polls /healthz until the child answers, exits or the
// deadline passes.
func (p *proc) waitHealthy(deadline time.Time) error {
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", p.name, p.log.Name())
		default:
		}
		resp, err := scrapeClient.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy in time (see %s)", p.name, p.log.Name())
}

// fleet is the set of daemons one served workload runs against.
type fleet struct {
	nodes  []*proc
	router *proc // nil for a single node
}

// target is the address the client talks to.
func (f *fleet) target() string {
	if f.router != nil {
		return f.router.addr
	}
	return f.nodes[0].addr
}

func (f *fleet) all() []*proc {
	if f.router != nil {
		return append(append([]*proc(nil), f.nodes...), f.router)
	}
	return f.nodes
}

func (f *fleet) stop() {
	// Router first, so no node sees a connection die mid-request.
	if f.router != nil {
		f.router.stop(3 * time.Second)
	}
	for _, n := range f.nodes {
		n.stop(3 * time.Second)
	}
}

// startFleet starts the workload's daemons on free ports and waits for
// every /healthz. A child that dies at start-up (a stolen port) costs a
// retry with fresh ports.
func startFleet(w workload) (*fleet, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var f *fleet
		if f, err = tryStartFleet(w); err == nil {
			return f, nil
		}
	}
	return nil, err
}

func tryStartFleet(w workload) (*fleet, error) {
	nNodes := 1
	if w.kind == kindRoute {
		nNodes = routeNodes
	}
	addrs, err := reservePorts(nNodes + 1)
	if err != nil {
		return nil, err
	}
	urls := make([]string, nNodes)
	for i := range urls {
		urls[i] = "http://" + addrs[i]
	}
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	for i := 0; i < nNodes; i++ {
		args := []string{
			"-addr", addrs[i], "-policy", policyName, "-shards", strconv.Itoa(shardCount),
			"-seed", strconv.Itoa(policySeed), "-mode", "mutex",
			"-cache", strconv.FormatInt(w.cacheBytes, 10), "-interval", "0",
			"-origin-latency", w.originLatency.String(),
		}
		if w.kind == kindRoute {
			args = append(args, "-peers", strings.Join(urls, ","), "-self", urls[i])
		}
		p, err := startProc("scip-serve", fmt.Sprintf("%s-node%d", w.name, i), addrs[i], args...)
		if err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, p)
	}
	if w.kind == kindRoute {
		p, err := startProc("scip-route", w.name+"-router", addrs[nNodes],
			"-addr", addrs[nNodes], "-nodes", strings.Join(urls, ","), "-replicate", "-interval", "0")
		if err != nil {
			return fail(err)
		}
		f.router = p
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range f.all() {
		if err := p.waitHealthy(deadline); err != nil {
			return fail(err)
		}
	}
	return f, nil
}

// cpuNanos returns the CPU time the process has used, user + system, as
// the sum of its threads' scheduler run time: nanosecond resolution,
// where /proc/pid/stat counts 10 ms ticks.
func cpuNanos(pid int) (int64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		if f := bytes.Fields(b); len(f) > 0 {
			ns, _ := strconv.ParseInt(string(f[0]), 10, 64)
			total += ns
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("no scheduler run time in /proc/%d/task/*/schedstat (process gone, or a kernel without schedstats)", pid)
	}
	return total, nil
}

// peakRSSMiB returns the process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc/pid/status")
}

// fleetCPU sums cpuNanos over the given processes.
func fleetCPU(procs []*proc) (int64, error) {
	var total int64
	for _, p := range procs {
		ns, err := cpuNanos(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += ns
	}
	return total, nil
}
