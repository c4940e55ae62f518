package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"netdiag/internal/telemetry"
)

// span is one timed call the benchmark made into a public function of
// the program, tagged with the op it belongs to.
type span struct {
	Op    int    `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// tracer keeps the spans of a traced run in memory; they are written out
// once the run ends. A nil *tracer records nothing, so the untraced run
// pays one nil check per call site.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var noEnd = func() {}

// start opens a span named name; the returned func closes it.
func (t *tracer) start(name string) func() {
	if t == nil {
		return noEnd
	}
	begin := time.Now()
	return func() {
		t.spans = append(t.spans, span{
			Op:    t.op,
			Name:  name,
			Start: int64(begin.Sub(t.t0)),
			Dur:   int64(time.Since(begin)),
		})
	}
}

// nextOp moves later spans to the next op.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// totals sums span durations per name, with the number of spans.
func (t *tracer) totals() (sum map[string]time.Duration, count map[string]int) {
	sum, count = map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return sum, count
	}
	for _, s := range t.spans {
		sum[s.Name] += time.Duration(s.Dur)
		count[s.Name]++
	}
	return sum, count
}

// meanMS is the mean duration of the spans named name, in milliseconds
// (0 when there are none).
func meanMS(sum map[string]time.Duration, count map[string]int, name string) float64 {
	if count[name] == 0 {
		return 0
	}
	return float64(sum[name]) / 1e6 / float64(count[name])
}

// writeSpans writes the spans as NDJSON under dir, one file per workload
// and seed, and returns the file's path.
func (t *tracer) writeSpans(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// regDelta is the change in a telemetry registry between two snapshots:
// counter increments and histogram count/sum increments.
type regDelta struct {
	counters map[string]int64
	histSum  map[string]int64
	histN    map[string]int64
}

func newRegDelta() regDelta {
	return regDelta{counters: map[string]int64{}, histSum: map[string]int64{}, histN: map[string]int64{}}
}

func deltaOf(before, after telemetry.Snapshot) regDelta {
	d := newRegDelta()
	for name, v := range after.Counters {
		d.counters[name] = v - before.Counters[name]
	}
	for name, h := range after.Histograms {
		d.histSum[name] = h.Sum - before.Histograms[name].Sum
		d.histN[name] = h.Count - before.Histograms[name].Count
	}
	return d
}

// add accumulates another delta (per-episode registries of one run).
func (d regDelta) add(o regDelta) {
	for k, v := range o.counters {
		d.counters[k] += v
	}
	for k, v := range o.histSum {
		d.histSum[k] += v
	}
	for k, v := range o.histN {
		d.histN[k] += v
	}
}

// histMeanMS is the mean of a nanosecond histogram's new observations, in
// milliseconds.
func (d regDelta) histMeanMS(name string) float64 {
	if d.histN[name] == 0 {
		return 0
	}
	return float64(d.histSum[name]) / 1e6 / float64(d.histN[name])
}

// histSumMS is the total of a nanosecond histogram's new observations, in
// milliseconds.
func (d regDelta) histSumMS(name string) float64 { return float64(d.histSum[name]) / 1e6 }

// ratio is a/(a+b) over two counters, 0 when both are 0.
func (d regDelta) ratio(a, b string) float64 {
	return telemetry.Ratio(d.counters[a], d.counters[b])
}

// corePhases are the diagnosis phases the core exports as
// "diagnose.phase.<name>_ns" histograms.
var corePhases = []string{"validate", "expand", "build_sets", "candidates", "greedy"}

// coreLayer fills the core phase metrics from a registry delta.
func coreLayer(out map[string]float64, d regDelta) {
	for _, ph := range corePhases {
		out["core."+ph+"_ms"] = d.histMeanMS("diagnose.phase." + ph + "_ns")
	}
}

// netsimCounters fills the netsim counter metrics from a registry delta,
// per op.
func netsimCounters(out map[string]float64, d regDelta, ops int) {
	out["netsim.pairs_traced"] = float64(d.counters["probe.pairs_traced"]) / float64(ops)
	out["netsim.bgp_dirty_fraction"] = d.ratio("bgp.prefixes_dirty", "bgp.prefixes_skipped")
	out["netsim.spf_cache_hit_ratio"] = d.ratio("igp.spf_cache_hits", "igp.spf_cache_misses")
}
