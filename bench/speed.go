package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on are shared virtual machines whose speed
// drifts with their neighbours' load: on a 2-vCPU KVM guest (Intel Xeon) a
// fixed loop took 7 ms or 14 ms from one moment to the next, and ten runs of
// one workload spread by up to 32% of their median. Times from different
// runs are comparable only at the same host speed, so the benchmark measures
// the speed while it runs and rescales its end-to-end times to a reference
// speed.
//
// The speed probe is a fixed kernel the benchmark owns, so a program change
// cannot make it faster or slower. It does what the programs do most: hash
// map updates, a sort, and building and walking a tree of small objects, all
// allocating. A goroutine locked to its own thread runs it every probeEvery
// for the whole run and times each pass in thread CPU time, so waiting for a
// CPU does not count, and slower execution does. Across fifteen runs of
// each workload, the log of every workload's latency followed the log of
// this kernel's time with a slope of 0.8-1.2 and a correlation of 0.93-0.98.

const probeEvery = 50 * time.Millisecond

// refKernelMS is the probe kernel's thread CPU time, in milliseconds, on an
// unloaded 2-vCPU Xeon host: the speed end-to-end times are rescaled to.
const refKernelMS = 0.75

// probeKernel is one pass of the speed probe.
func probeKernel() int {
	m := make(map[int]int, 512)
	s := make([]int, 0, 4096)
	x := uint32(12345)
	for i := 0; i < 4096; i++ {
		x = x*1664525 + 1013904223
		s = append(s, int(x>>8))
		m[int(x>>20)] += i
	}
	sort.Ints(s)

	type node struct {
		kids []*node
		name string
		v    int
	}
	root := &node{}
	cur := root
	for i := 0; i < 1500; i++ {
		c := &node{name: strconv.Itoa(i), v: i}
		cur.kids = append(cur.kids, c)
		if i%7 == 0 {
			cur = c
		}
	}
	sum := len(m) + s[100]
	var walk func(*node)
	walk = func(n *node) {
		sum += n.v + len(n.name)
		for _, k := range n.kids {
			walk(k)
		}
	}
	for r := 0; r < 4; r++ {
		walk(root)
	}
	return sum
}

// threadCPU is the calling thread's CPU time, read with
// clock_gettime(CLOCK_THREAD_CPUTIME_ID): getrusage's per-thread times are
// only tick-accurate.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedProbe samples the host's speed until stopped.
type speedProbe struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []float64 // kernel thread CPU time per pass, ms
	sink    int
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			p.sink += probeKernel()
			p.samples = append(p.samples, float64(threadCPU()-t0)/float64(time.Millisecond))
		}
	}()
	return p
}

// end stops the probe and returns the median pass time in milliseconds and
// the number of passes. Calling it again returns the same.
func (p *speedProbe) end() (float64, int) {
	p.once.Do(func() { close(p.stop) })
	<-p.done
	return median(p.samples), len(p.samples)
}
