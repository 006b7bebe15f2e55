package main

import (
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The polling client keeps one CPU busy for as long as a phase lasts.
// Left to the kernel, a daemon thread that lands on that CPU waits for
// the next scheduler tick — milliseconds on the sandbox — and the wait
// shows up as tail latency that is the harness's doing, not the
// daemon's. So the first allowed CPU is the client's and the daemons
// share the rest. With a single allowed CPU nothing is pinned.

type cpuMask [16]uint64 // 1024 CPUs

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

// setAffinity restricts thread tid; 0 is the calling thread.
func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuPlan splits the allowed CPUs between the client and the daemons.
type cpuPlan struct {
	all, client, daemons cpuMask
	pinned               bool
}

func planCPUs() cpuPlan {
	var p cpuPlan
	all, err := getAffinity()
	if err != nil {
		return p
	}
	p.all = all
	first := -1
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if !all.has(cpu) {
			continue
		}
		if first < 0 {
			first = cpu
			p.client.set(cpu)
		} else {
			p.daemons.set(cpu)
			p.pinned = true
		}
	}
	return p
}

var cpus = planCPUs()

// onCPUs runs f on a thread restricted to m and lifts the restriction
// afterwards. A process started inside f inherits it, which is how the
// daemons are placed: from their first instruction, so that their
// runtimes size themselves to the CPUs they really have.
func (p cpuPlan) onCPUs(m cpuMask, f func()) {
	if !p.pinned {
		f()
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, m); err != nil {
		f()
		return
	}
	defer setAffinity(0, p.all)
	f()
}

// serveInProcess lays this process out like a client and a fleet of
// daemons for as long as f runs: the calling thread stays free to be
// pinned to the client's CPU, every other thread — and so every thread
// they start — is confined to the daemons' CPUs, and the scheduler is
// sized to match.
func (p cpuPlan) serveInProcess(f func()) {
	// One P for the client, which never gives it back, and as many for
	// the servers as the daemons have CPUs.
	serverPs := 0
	for cpu := 0; cpu < len(p.daemons)*64; cpu++ {
		if p.daemons.has(cpu) {
			serverPs++
		}
	}
	if serverPs == 0 {
		serverPs = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1 + serverPs))
	if p.pinned {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		confineOthers(p.daemons)
		defer confineOthers(p.all)
	}
	f()
}

func confineOthers(m cpuMask) {
	self := syscall.Gettid()
	tasks, _ := filepath.Glob("/proc/self/task/*")
	for _, t := range tasks {
		if tid, err := strconv.Atoi(filepath.Base(t)); err == nil && tid != self {
			setAffinity(tid, m) // a thread that has just ended is no loss
		}
	}
}
