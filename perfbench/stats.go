package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: p50 needs at least 20 samples, p90 at least 100.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it is defined, i.e. whether at least minBeyond samples lie
// beyond it. xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if n-1-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], true
}

// median is the middle value of xs (mean of the two middle values for an
// even count); it is used for small repeated measurements such as the
// set-up time, where the ten-beyond rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// allocSamples reads the cumulative heap allocation counters without
// stopping the world (runtime.ReadMemStats would).
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// usage is a point-in-time reading of the process counters an op is
// charged with.
type usage struct {
	cpu        time.Duration // user + system time of the whole process
	allocBytes uint64
	allocObjs  uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(allocSamples)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: allocSamples[0].Value.Uint64(),
		allocObjs:  allocSamples[1].Value.Uint64(),
	}
}

// sampler accumulates the end-to-end measurements of one run: a latency
// per op, the CPU and allocation deltas charged to ops, and the failures.
type sampler struct {
	latMS      []float64
	busy       time.Duration
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	failed     int
}

// opMark is the state captured when an op starts.
type opMark struct {
	u     usage
	start time.Time
}

// begin reads the counters, then the clock, so the counter reads are not
// charged to the op's latency.
func (s *sampler) begin() opMark {
	u := readUsage()
	return opMark{u: u, start: time.Now()}
}

// end closes an op opened by begin and returns its latency.
func (s *sampler) end(m opMark) time.Duration {
	d := time.Since(m.start)
	u := readUsage()
	s.latMS = append(s.latMS, float64(d)/1e6)
	s.busy += d
	s.cpu += u.cpu - m.u.cpu
	s.allocBytes += u.allocBytes - m.u.allocBytes
	s.allocObjs += u.allocObjs - m.u.allocObjs
	return d
}

// fail counts the op just ended as failed.
func (s *sampler) fail() { s.failed++ }

func (s *sampler) ops() int { return len(s.latMS) }

// opsPerSec is the closed-loop throughput: ops over the time spent in
// them (one client, so this is the inverse of the mean latency).
func (s *sampler) opsPerSec() float64 {
	if s.busy <= 0 {
		return 0
	}
	return float64(s.ops()) / s.busy.Seconds()
}

// liveHeapMB forces a collection and reports the heap still reachable.
// Callers keep the workload state alive across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd renders the gated metrics of a finished untraced run.
func (s *sampler) endToEnd(setupS, liveMB float64) map[string]metric {
	n := float64(s.ops())
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"alloc_mb_per_op": {float64(s.allocBytes) / (1 << 20) / n, "MB"},
		"allocs_per_op":   {float64(s.allocObjs) / n, "count"},
		"live_heap_mb":    {liveMB, "MB"},
	}
}

// timeFigures adds the per-op time figures of a run to m under the given
// name prefix. They are reported but not gated (see README.md).
func (s *sampler) timeFigures(m map[string]float64, prefix string) {
	p50, _ := percentile(s.latMS, 0.5)
	m[prefix+"ops_per_s"] = s.opsPerSec()
	m[prefix+"latency_p50_ms"] = p50
	m[prefix+"cpu_ms_per_op"] = float64(s.cpu) / 1e6 / float64(s.ops())
}

// addPercentiles adds the p90 latency to a run's summary when the run has
// enough ops for it.
func addPercentiles(summary map[string]float64, s *sampler) {
	if v, ok := percentile(s.latMS, 0.9); ok {
		summary["latency_p90_ms"] = v
	}
}

// keepAlive keeps a workload's state reachable up to this call, so the
// live heap measured just before it includes that state.
func keepAlive(vs ...any) { runtime.KeepAlive(vs) }
