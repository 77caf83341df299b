package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when the base is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// region is what one timed region cost: wall time, process CPU time and
// allocation deltas, as the clocks and counters read them.
type region struct {
	Wall    time.Duration
	CPU     time.Duration
	Mallocs uint64
	Bytes   uint64
}

// meter measures one timed region at a time, so untimed checks between
// repetitions stay out of every end-to-end metric.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	m0   runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// start opens a timed region. Callers whose regions should neither inherit
// the previous one's garbage nor be charged for it call runtime.GC first.
func (m *meter) start() {
	runtime.ReadMemStats(&m.m0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

// stop closes the region opened by start.
func (m *meter) stop() region {
	d := time.Since(m.t0)
	cpu := cpuTime()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return region{d, cpu - m.cpu0, m1.Mallocs - m.m0.Mallocs, m1.TotalAlloc - m.m0.TotalAlloc}
}

// totals accumulates a run's timed regions: raw, and in reference seconds
// (hostspeed.go).
type totals struct {
	Wall    time.Duration
	CPU     time.Duration
	RefWall float64 // seconds
	RefCPU  float64 // seconds
	Mallocs uint64
	Bytes   uint64
}

func (t *totals) add(reg region, scale float64) {
	t.Wall += reg.Wall
	t.CPU += reg.CPU
	t.RefWall += reg.Wall.Seconds() * scale
	t.RefCPU += reg.CPU.Seconds() * scale
	t.Mallocs += reg.Mallocs
	t.Bytes += reg.Bytes
}

// peakRSSMiB reads VmHWM, the process's resident high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// mix64 is splitmix64's finaliser; subSeed derives independent positive
// seeds from the run seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed int64, stream, k int) int64 {
	x := mix64(uint64(seed)) ^ mix64(uint64(stream)<<32|uint64(uint32(k)))
	return int64(mix64(x) >> 1)
}
