// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three closed-loop, single-client workloads in process, checks every
// output, and prints the metrics as one JSON object on the last line of
// standard output:
//
//	go run . --workload serve-research --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// A run builds its workload setupRuns times before its timed loop,
	// once every setupEvery during it, and then again until its builds
	// have taken setupBudget in all; setup_s is the fastest build (see
	// setupClock).
	setupRuns   = 7
	setupEvery  = time.Second
	setupBudget = 4 * time.Second
	// setupMaxBuilds caps the builds of a run whose builds are very fast.
	setupMaxBuilds = 500
	// minOps is the fewest ops a measured loop runs, so that the p50
	// has ten samples beyond it.
	minOps = 2 * minBeyond
	// hardCap stops a measured loop even mid-cycle, so a pathologically
	// slow build still exits well inside the harness limit.
	hardCap = 120 * time.Second
	// spanDir is where a traced run writes its spans, relative to the
	// directory the benchmark runs from.
	spanDir = ".bench_build/spans"
	// setupHeapLimit is the heap at which the collector runs during a
	// build even though it is paused.
	setupHeapLimit = 512 << 20
)

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	setup    *setupClock
	untraced *sampler
	traced   *sampler // trace mode only
	liveMB   float64
	layers   map[string]float64 // trace mode only
	summary  map[string]float64
	mix      string
	spans    *tracer
}

// measureLoop runs op(k) for k = 0, 1, ... in whole cycles of cycle ops
// until d has elapsed and at least minOps ops were sampled, or until op
// returns false. Between ops it lets setup (when not nil) time another
// build. It starts from a collected heap so earlier garbage is not
// charged to the loop.
func measureLoop(d time.Duration, cycle int, s *sampler, setup *setupClock, op func(k int) bool) error {
	runtime.GC()
	start := time.Now()
	for k := 0; op(k); k++ {
		el := time.Since(start)
		if el > hardCap || ((k+1)%cycle == 0 && el >= d && s.ops() >= minOps) {
			return nil
		}
		if err := setup.tick(); err != nil {
			return err
		}
	}
	return nil
}

// setupClock times the builds of a workload; setup_s is the fastest.
// The same build takes from 1x to 1.7x its fastest time depending on the
// host's load, which shifts within seconds and between minutes, so the
// median of a run's builds follows the host. Short fast windows occur in
// every state, so the fastest of many builds spread over the run is the
// build's own work: a run makes setupRuns builds before its timed loop,
// one every setupEvery during it (outside any op), and more after it
// until the builds have taken setupBudget.
type setupClock struct {
	best    time.Duration
	n       int
	spent   time.Duration // all builds' time
	last    time.Time
	rebuild func() error // one more timed build, discarded
}

// finish makes more builds until the run's builds have taken setupBudget
// (or there are setupMaxBuilds of them).
func (c *setupClock) finish() error {
	for c.spent < setupBudget && c.n < setupMaxBuilds {
		if err := c.rebuild(); err != nil {
			return err
		}
	}
	return nil
}

// tick makes one more timed build when setupEvery has passed since the
// last one. A nil clock does nothing.
func (c *setupClock) tick() error {
	if c == nil || time.Since(c.last) < setupEvery {
		return nil
	}
	return c.rebuild()
}

// timeSetups builds a workload setupRuns times and returns the last build
// with the clock that timed them. Each build but the last is handed to
// discard (when not nil) and dropped, and each starts from a collected
// heap. The collector is paused during a build (up to setupHeapLimit), so
// the figure is the build's own work rather than where the collections
// happened to fall.
func timeSetups[T any](build func() (T, error), discard func(T)) (T, *setupClock, error) {
	c := &setupClock{}
	timed := func() (T, error) {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		debug.SetMemoryLimit(setupHeapLimit)
		t0 := time.Now()
		v, err := build()
		d := time.Since(t0)
		debug.SetGCPercent(gc)
		debug.SetMemoryLimit(math.MaxInt64)
		if c.n == 0 || d < c.best {
			c.best = d
		}
		c.n++
		c.spent += d
		c.last = time.Now()
		return v, err
	}
	c.rebuild = func() error {
		v, err := timed()
		if err == nil && discard != nil {
			discard(v)
		}
		runtime.GC() // the build's garbage is not charged to the next op
		return err
	}
	for i := 1; i < setupRuns; i++ {
		if err := c.rebuild(); err != nil {
			var zero T
			return zero, nil, err
		}
	}
	v, err := timed()
	return v, c, err
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, cfg runConfig) (*outcome, error) {
	switch workload {
	case wServe:
		return runServe(cfg)
	case wMesh:
		return runMesh(cfg)
	case wStream:
		return runStream(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

func main() {
	workload := flag.String("workload", wServe, "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// One client and one worker per layer: the numbers measure the
	// program, not the scheduler.
	runtime.GOMAXPROCS(1)

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out, err := run(*workload, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Attempted: out.untraced.ops(), Failed: out.untraced.failed}
	if cfg.trace {
		res.Attempted += out.traced.ops()
		res.Failed += out.traced.failed
		untracedOps, tracedOps := out.untraced.opsPerSec(), out.traced.opsPerSec()
		out.layers["trace.ops_per_s"] = tracedOps
		out.layers["trace.overhead_pct"] = (untracedOps/tracedOps - 1) * 100
		out.untraced.timeFigures(out.layers, "untraced.")
		res.Metrics = layerJSON(out.layers)
		path, err := out.spans.writeSpans(spanDir, *workload, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("perfbench: %d spans written to %s\n", len(out.spans.spans), path)
		fmt.Printf("perfbench: share of op time: server=%.1f%% stream=%.1f%% netsim=%.1f%% experiment=%.1f%% core=%.1f%% lookingglass=%.1f%%; tracing overhead=%.1f%%\n",
			out.layers["share.server_pct"], out.layers["share.stream_pct"], out.layers["share.netsim_pct"],
			out.layers["share.experiment_pct"], out.layers["share.core_pct"], out.layers["share.lookingglass_pct"],
			out.layers["trace.overhead_pct"])
	} else {
		res.Metrics = out.untraced.endToEnd(out.setup.best.Seconds(), out.liveMB)
	}
	res.Correct = res.Failed == 0
	out.untraced.timeFigures(out.summary, "")
	out.summary["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	printSummary(*workload, *seed, res, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printSummary prints the human-readable line: the op mix, the time
// figures of the untraced run and the end-to-end figures that exist only
// on some workloads.
func printSummary(workload string, seed int64, res result, out *outcome) {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: workload=%s seed=%d ops=%d failed=%d setup_s=%.4f (fastest of %d builds) mix=[%s]",
		workload, seed, res.Attempted, res.Failed, out.setup.best.Seconds(), out.setup.n, out.mix)
	keys := make([]string, 0, len(out.summary))
	for k := range out.summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g", k, out.summary[k])
	}
	fmt.Println(b.String())
}
