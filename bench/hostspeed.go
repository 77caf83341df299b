package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The benchmark's unit of time is the reference second, not the wall
// second. The machines this runs on are small slices of shared hosts, and
// their speed for the very same instructions switches between regimes
// that last from seconds to tens of minutes: the same four-algorithm
// Theta replay takes 50 ms or 87 ms, CPU time included, depending on what
// the neighbours are doing to the caches, and a whole 12 s run can fall
// into either regime, so medians over a run do not help. What does help
// is measuring the host alongside the program. refKernel is a fixed piece
// of work owned by the benchmark (no code of the repository runs in it).
// A sidecar process (-host-probe) runs it about twenty times a second for
// as long as the run lasts and notes how much CPU time each call took;
// every timed region's wall time, CPU time and latencies are multiplied
// by refKernelNominal over the median kernel time observed while the
// region ran (over the last hostWindow when the region was shorter). A
// region that ran while the host was 1.6x slow is thereby counted at
// roughly the time it would have taken on a quiet host. The kernel mixes
// register-only arithmetic with what the scheduler itself does most
// (small allocations, pointer chasing, map inserts, a sort), because the
// slow regimes hit the memory system and leave plain arithmetic alone;
// the mix was chosen so that its slowdown tracks the replay's (README,
// "Reference seconds").
//
// The kernel runs in a process of its own because inside the measuring
// process its allocations would be taxed by that process's garbage
// collector - with a daemon's 150 MB heap live, a kernel call takes 4 ms
// or 20 ms depending on whether a collection is under way - and it would
// add garbage to the heap under test. It is timed by its thread's CPU
// clock, so being descheduled in favour of the workload does not count.
// The sidecar costs about a tenth of one core, the same on every run.
//
// Counts (allocations, bytes, resident memory) are not scaled, and
// neither is the paced workload's throughput, which the wall-clock pacing
// fixes. The raw wall-clock figures are printed beside the scaled ones.

// refKernelNominal is the CPU time of one refKernel call in the sidecar on
// the quiet reference machine (README, "Reference numbers"). It only fixes
// the size of the reference second; ratios between two commits do not
// depend on it.
const refKernelNominal = 3400 * time.Microsecond

const (
	// hostPeriod is the sidecar's pause between kernel calls.
	hostPeriod = 50 * time.Millisecond
	// hostWindow is the least stretch of samples a region is scaled by.
	hostWindow = time.Second
)

type refNode struct {
	next *refNode
	v    [6]int
}

var refSink uint64

// refKernel does a fixed amount of work.
func refKernel() {
	x := uint64(12345)
	for i := 0; i < 600_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	m := make(map[int]*refNode, 256)
	var head *refNode
	for i := 0; i < 48_000; i++ {
		n := &refNode{next: head}
		n.v[i%6] = i
		head = n
		m[i&511] = n
	}
	s := make([]float64, 0, 4096)
	for n := head; n != nil && len(s) < cap(s); n = n.next {
		s = append(s, float64(n.v[0]^n.v[3])*1.0001)
	}
	sort.Float64s(s)
	refSink += x + uint64(len(m)) + uint64(s[7])
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostProbeMain is the sidecar process. One goroutine runs the kernel
// every hostPeriod and keeps (when, CPU time); the other answers each line
// "t" on standard input (Unix nanoseconds) with the median CPU time of the
// calls that ended at or after t, 0 when there are none. It exits when
// standard input closes.
func hostProbeMain() error {
	type sample struct {
		at  int64
		cpu time.Duration
	}
	var mu sync.Mutex
	var samples []sample
	go func() {
		runtime.LockOSThread()
		for {
			c0 := threadCPU()
			refKernel()
			d := threadCPU() - c0
			mu.Lock()
			samples = append(samples, sample{time.Now().UnixNano(), d})
			mu.Unlock()
			time.Sleep(hostPeriod)
		}
	}()
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		since, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return err
		}
		var got []time.Duration
		mu.Lock()
		for i := len(samples) - 1; i >= 0 && samples[i].at >= since; i-- {
			got = append(got, samples[i].cpu)
		}
		mu.Unlock()
		var med time.Duration
		if len(got) > 0 {
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			med = got[len(got)/2]
		}
		if _, err := fmt.Println(int64(med)); err != nil {
			return err
		}
	}
	return sc.Err()
}

// hostClock owns the sidecar and turns the wall time of a region into
// reference time.
type hostClock struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	err error // the first failure to get a sample; fails the run

	scales []float64 // one per region, for the report
}

// startHostClock starts the sidecar and waits for its first sample.
func startHostClock() (*hostClock, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &hostClock{cmd: exec.Command(self, "-host-probe")}
	h.cmd.Stderr = os.Stderr
	if h.in, err = h.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := h.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	h.out = bufio.NewReader(out)
	if err := h.cmd.Start(); err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	for begin := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		k, err := h.kernelSince(begin)
		if err == nil && k == 0 && time.Since(begin) > 5*time.Second {
			err = fmt.Errorf("no sample in 5 s")
		}
		if err != nil {
			h.stop()
			return nil, fmt.Errorf("host probe: %w", err)
		}
		if k > 0 {
			return h, nil
		}
	}
}

// stop ends the sidecar and waits for it.
func (h *hostClock) stop() {
	h.in.Close()
	h.cmd.Wait()
}

// kernelSince is the median kernel time of the sidecar's calls since t.
func (h *hostClock) kernelSince(t time.Time) (time.Duration, error) {
	if _, err := fmt.Fprintln(h.in, t.UnixNano()); err != nil {
		return 0, err
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(line[:len(line)-1], 10, 64)
	return time.Duration(ns), err
}

// bracket runs work and returns the scale that converts its wall time into
// reference time: below 1 when the host was slower than the reference
// while it ran.
func (h *hostClock) bracket(work func()) float64 {
	begin := time.Now()
	work()
	if w := time.Now().Add(-hostWindow); w.Before(begin) {
		begin = w
	}
	k, err := h.kernelSince(begin)
	if err == nil && k <= 0 {
		err = fmt.Errorf("no sample since %v", begin)
	}
	if err != nil {
		if h.err == nil {
			h.err = fmt.Errorf("host probe: %w", err)
		}
		return 1
	}
	s := float64(refKernelNominal) / float64(k)
	h.scales = append(h.scales, s)
	return s
}
