package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat (100 on every Linux architecture Go supports).
const clockTicks = 100

// proc is one program process the benchmark started and must stop: a
// server, a worker node, or the SPA child.
type proc struct {
	name string
	cmd  *exec.Cmd
	tail *tailBuffer

	done    chan struct{} // closed once Wait returned
	waitErr error
}

// live tracks every started process so that any exit path, including a
// signal, kills and reaps all of them.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// startProc starts a program process. Output the caller did not redirect
// goes to a small in-memory tail that is shown if the process fails. The
// child is killed if the benchmark dies without stopping it.
func startProc(name string, cmd *exec.Cmd) (*proc, error) {
	p := &proc{name: name, cmd: cmd, tail: &tailBuffer{max: 4096}, done: make(chan struct{})}
	if cmd.Stdout == nil {
		cmd.Stdout = p.tail
	}
	if cmd.Stderr == nil {
		cmd.Stderr = p.tail
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := track(p, cmd.Start); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// track runs start and, on success, registers p as live.
func track(p *proc, start func() error) error {
	live.Lock()
	defer live.Unlock()
	if err := start(); err != nil {
		return err
	}
	if live.procs == nil {
		live.procs = make(map[*proc]bool)
	}
	live.procs[p] = true
	return nil
}

// pid is the process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to exit with SIGTERM, kills it after grace, and
// waits until it has been reaped.
func (p *proc) stop(grace time.Duration) {
	if !p.exited() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(grace):
			p.cmd.Process.Kill()
		}
	}
	p.wait()
}

// peakRSS reads the live process's peak resident set (VmHWM) in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.pid())
}

// wait blocks until the process has ended and been reaped.
func (p *proc) wait() error {
	<-p.done
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
	return p.waitErr
}

// killAll kills and reaps every process still running. Deferred in main and
// run on SIGINT/SIGTERM, so no port or process outlives the benchmark.
func killAll() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.procs = nil
	live.Unlock()
	for _, p := range procs {
		p.cmd.Process.Kill()
		<-p.done
	}
}

// failure describes a process that died or misbehaved, with its last output.
func (p *proc) failure(err error) error {
	return fmt.Errorf("%s (pid %d): %w; last output:\n%s", p.name, p.pid(), err, p.tail.String())
}

// cpuTime reads the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freePorts picks n distinct ephemeral localhost ports for child processes
// to bind. All n are held open until every one is chosen, so the kernel
// cannot hand out the same port twice.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(b), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
