package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Runtime metrics read at the edges of every traced span.
const (
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mIdleCPU      = "/cpu/classes/idle:cpu-seconds"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mSchedLat     = "/sched/latencies:seconds"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
)

// tracer meters the spans of a traced phase from outside the program: wall
// time, process CPU time, and runtime/metrics deltas over each span, plus a
// heap sampler and a CPU profile over the whole phase. A nil *tracer only
// times spans, which is what untraced runs use.
type tracer struct {
	wall, cpu           time.Duration
	gcCPU, busyCPU      float64
	allocBytes, objects uint64
	schedCounts         []uint64
	schedBuckets        []float64

	prof     bytes.Buffer
	heapPeak uint64
	stopHeap chan struct{}
	heapDone sync.WaitGroup
}

// startTracer begins the CPU profile and the heap sampler.
func startTracer() (*tracer, error) {
	t := &tracer{stopHeap: make(chan struct{})}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	t.heapDone.Add(1)
	go t.sampleHeap()
	return t, nil
}

// stop ends the profile and the heap sampler and waits for the sampler.
func (t *tracer) stop() {
	pprof.StopCPUProfile()
	close(t.stopHeap)
	t.heapDone.Wait()
}

func (t *tracer) sampleHeap() {
	defer t.heapDone.Done()
	s := []metrics.Sample{{Name: mHeapObjects}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		t.heapPeak = max(t.heapPeak, s[0].Value.Uint64())
		select {
		case <-t.stopHeap:
			return
		case <-tick.C:
		}
	}
}

type snapshot struct {
	cpu     time.Duration
	samples []metrics.Sample
}

func readSnapshot() snapshot {
	s := snapshot{cpu: processCPU(), samples: []metrics.Sample{
		{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU},
		{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mSchedLat},
	}}
	metrics.Read(s.samples)
	return s
}

// span runs fn and returns its wall time; a non-nil tracer also
// accumulates the span's resource deltas.
func (t *tracer) span(fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	before := readSnapshot()
	start := time.Now()
	fn()
	d := time.Since(start)
	after := readSnapshot()

	t.wall += d
	t.cpu += after.cpu - before.cpu
	f := func(i int) float64 { return after.samples[i].Value.Float64() - before.samples[i].Value.Float64() }
	u := func(i int) uint64 { return after.samples[i].Value.Uint64() - before.samples[i].Value.Uint64() }
	t.gcCPU += f(0)
	t.busyCPU += f(1) - f(2)
	t.allocBytes += u(3)
	t.objects += u(4)
	hb, ha := before.samples[5].Value.Float64Histogram(), after.samples[5].Value.Float64Histogram()
	if t.schedCounts == nil {
		t.schedCounts = make([]uint64, len(ha.Counts))
		t.schedBuckets = ha.Buckets
	}
	for i := range ha.Counts {
		t.schedCounts[i] += ha.Counts[i] - hb.Counts[i]
	}
	return d
}

// schedP99 is the 99th percentile of goroutine scheduling latency over the
// spans, interpolated linearly inside its histogram bucket.
func (t *tracer) schedP99() float64 {
	var total uint64
	for _, c := range t.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := 0.99 * float64(total)
	var cum float64
	for i, c := range t.schedCounts {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo, hi := t.schedBuckets[i], t.schedBuckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return lo + (hi-lo)*(target-cum)/float64(c)
	}
	return t.schedBuckets[len(t.schedBuckets)-1]
}

// goLayer reports the Go runtime's per-layer metrics over the spans, with
// allocation per unit of work (a pass or a batch).
func (t *tracer) goLayer(units int) []metric {
	return []metric{
		{name: "go.cpu_util", unit: "cores", value: ratio(t.cpu.Seconds(), t.wall.Seconds())},
		{name: "go.gc_cpu_share", unit: "share", value: ratio(t.gcCPU, t.busyCPU)},
		{name: "go.alloc_mb", unit: "MB", value: float64(t.allocBytes) / (1 << 20) / float64(units),
			note: "per pass (explore) or batch (live)"},
		{name: "go.heap_peak_mb", unit: "MB", value: float64(t.heapPeak) / (1 << 20)},
		{name: "go.sched_latency_p99_us", unit: "us", value: t.schedP99() * 1e6},
	}
}

// processCPU is the user plus system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the freed heap to the OS and resets the kernel's
// resident-set high-water mark, so the next pass starts from the footprint
// of a fresh process and peakRSSMB then reads that pass's own peak. It
// reports whether the kernel allowed the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the resident-set high-water mark (VmHWM) since the last
// reset, or since the process started.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
