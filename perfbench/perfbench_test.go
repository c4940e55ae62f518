package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"netdiag"
	"netdiag/internal/server"
)

func researchSnapshot(t *testing.T) *server.Snapshot {
	t.Helper()
	reg, err := newResearchRegistry()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := server.NewStore(reg, 1, "", nil).Get(context.Background(), researchName)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func faultBytes(t *testing.T, snap *server.Snapshot, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(genFaults(snap, seed, serveFaults))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func feedBytes(t *testing.T, snap *server.Snapshot, seed int64) []byte {
	t.Helper()
	f, err := genFeed(snap, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, tk := range f.ticks {
		b.Write(tk.bgp)
		b.Write(tk.trace)
	}
	return b.Bytes()
}

func meshBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(genMeshes(seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGeneratorsAreSeeded(t *testing.T) {
	snap := researchSnapshot(t)
	gens := map[string]func(seed int64) []byte{
		"faults": func(seed int64) []byte { return faultBytes(t, snap, seed) },
		"feed":   func(seed int64) []byte { return feedBytes(t, snap, seed) },
		"meshes": func(seed int64) []byte { return meshBytes(t, seed) },
	}
	for _, name := range []string{"faults", "feed", "meshes"} {
		gen := gens[name]
		a, again, other := gen(1), gen(1), gen(2)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 gave different inputs on a second call", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

func TestFeedHasLateRecordsAndIncidents(t *testing.T) {
	f, err := genFeed(researchSnapshot(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, tk := range f.ticks {
		counts[tk.class]++
	}
	want := map[string]int{"withdraw": 1, "announce": 1, "close": 1, "late": len(lateTicks),
		"quiet": streamTicks - 3 - len(lateTicks)}
	for class, n := range want {
		if counts[class] != n {
			t.Errorf("%d %s ticks, want %d", counts[class], class, n)
		}
	}
	// A late probe sits in a later tick's body with an earlier tick's
	// record time.
	late := 0
	for i, tk := range f.ticks {
		for _, line := range bytes.Split(bytes.TrimSpace(tk.trace), []byte("\n")) {
			var rec struct {
				TS   int64 `json:"ts"`
				Done bool  `json:"done"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Done && rec.TS < int64(i*tickMS) {
				late++
			}
		}
	}
	if late != lateProbes*len(lateTicks) {
		t.Errorf("%d probes delivered late, want %d", late, lateProbes*len(lateTicks))
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{21, 0.5, 11, true},
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	names = append(names, endToEndMetrics...)
	names = append(names, summaryMetrics...)
	for _, m := range layerMetrics {
		names = append(names, m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: bad unit %q", m.name, m.unit)
		}
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("bad metric name %q", n)
		}
		if seen[n] {
			t.Errorf("metric %q named twice", n)
		}
		seen[n] = true
	}
}

func TestLayerMetricsNameWhatTheyMove(t *testing.T) {
	e2e := map[string]bool{"none": true}
	for _, n := range append(append([]string{}, endToEndMetrics...), summaryMetrics...) {
		e2e[n] = true
	}
	workloads := map[string]bool{}
	for _, w := range workloadNames {
		workloads[w] = true
	}
	for _, m := range layerMetrics {
		if len(m.moves) == 0 || len(m.on) == 0 {
			t.Errorf("%s: names no end-to-end metric or workload", m.name)
		}
		for _, e := range m.moves {
			if !e2e[e] || (e == "none" && len(m.moves) > 1) {
				t.Errorf("%s: moves %q", m.name, e)
			}
		}
		for _, w := range m.on {
			if !workloads[w] {
				t.Errorf("%s: unknown workload %q", m.name, w)
			}
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name
		}
		return out
	}
	eq := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark %v", what, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %q, the benchmark %q", what, i, got[i], want[i])
			}
		}
	}
	eq("workloads", names(bj.Workloads), workloadNames)
	eq("end_to_end", names(bj.EndToEnd), endToEndMetrics)
	var layers []string
	for _, m := range layerMetrics {
		layers = append(layers, m.name)
	}
	eq("per_layer", names(bj.PerLayer), layers)
	units := (&sampler{}).endToEnd(1, 1)
	for _, m := range bj.EndToEnd {
		if units[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, units[m.Name].Unit)
		}
	}
	for i, m := range bj.PerLayer {
		if i < len(layerMetrics) && layerMetrics[i].unit != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, layerMetrics[i].unit)
		}
	}
}

func TestMeshDigestsCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnoses three 2000-sensor meshes")
	}
	check := newMeshChecker(defaultSeed)
	dg := netdiag.New(netdiag.WithAlgorithm(netdiag.NDEdgeAlgo), netdiag.WithParallelism(1))
	for i, m := range genMeshes(defaultSeed) {
		res, err := dg.Diagnose(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if !check.ok(i, res) {
			got, _ := wireDigest(res)
			t.Errorf("mesh %d: wire digest %s, committed %s", i, got, meshDigests[i])
		}
	}
}

func TestSetupClockKeepsFastestBuild(t *testing.T) {
	builds, discarded := 0, 0
	v, clock, err := timeSetups(func() (int, error) {
		builds++
		return builds, nil
	}, func(int) { discarded++ })
	if err != nil {
		t.Fatal(err)
	}
	if builds != setupRuns || discarded != setupRuns-1 || v != setupRuns {
		t.Errorf("%d builds, %d discarded, kept build %d; want %d, %d, %d",
			builds, discarded, v, setupRuns, setupRuns-1, setupRuns)
	}
	if clock.n != builds || clock.best <= 0 {
		t.Errorf("clock counted %d builds, fastest %v", clock.n, clock.best)
	}
	// A tick inside setupEvery builds nothing; one after it builds once
	// more and discards the result.
	if err := clock.tick(); err != nil || builds != setupRuns {
		t.Errorf("early tick: %d builds, err %v", builds, err)
	}
	clock.last = clock.last.Add(-setupEvery)
	if err := clock.tick(); err != nil || builds != setupRuns+1 || discarded != setupRuns || clock.n != builds {
		t.Errorf("due tick: %d builds, %d discarded, clock %d, err %v", builds, discarded, clock.n, err)
	}
	var none *setupClock
	if err := none.tick(); err != nil {
		t.Error(err)
	}
}
