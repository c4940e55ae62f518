package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"netdiag"
	"netdiag/internal/experiment"
	"netdiag/internal/telemetry"
)

const (
	meshSensors = 2000
	// meshesPerRun is how many seeded meshes a mesh-2k run rotates over.
	// Their work varies little with the seed; more of them would only
	// grow the live heap and so the GC share of an op.
	meshesPerRun = 3
	// defaultSeed is the seed whose mesh-2k wire digests are committed.
	defaultSeed = 1
)

// meshDigests are the SHA-256 digests of the nd-edge wire bytes for the
// default seed's meshes, in rotation order.
var meshDigests = []string{
	"be266184a93fe65a77a60fdc89247046250608532588d13c4839f24d6f337656",
	"abbbc19e6b21a766950112d39ebf195afa3b38d2786ce57d050a1a138631fcf2",
	"f8ab0af84c11d347e65996f67d72c8650e34c3c2e06d860667936b46fdbe75a1",
}

// meshSeed is the generator seed of the i-th mesh of a run.
func meshSeed(seed int64, i int) int64 { return seed*meshesPerRun + int64(i) }

// genMeshes builds the seeded meshes of a run.
func genMeshes(seed int64) []*netdiag.Measurements {
	ms := make([]*netdiag.Measurements, meshesPerRun)
	for i := range ms {
		ms[i] = experiment.GenerateLargeMesh(experiment.DefaultLargeMesh(meshSensors, meshSeed(seed, i)))
	}
	return ms
}

// wireDigest is the SHA-256 of a result's nd-edge wire bytes.
func wireDigest(res *netdiag.Result) (string, error) {
	var buf bytes.Buffer
	if err := res.Wire(netdiag.NDEdgeAlgo.Slug()).Encode(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// meshChecker holds the expected digest of every mesh: the committed
// ones for the default seed, otherwise the first diagnosis of each mesh.
type meshChecker struct {
	want []string
}

func newMeshChecker(seed int64) *meshChecker {
	c := &meshChecker{want: make([]string, meshesPerRun)}
	if seed == defaultSeed {
		copy(c.want, meshDigests)
	}
	return c
}

// ok reports whether a diagnosis of mesh i is right.
func (c *meshChecker) ok(i int, res *netdiag.Result) bool {
	if res.UnexplainedFailures != 0 || len(res.Hypothesis) == 0 {
		return false
	}
	d, err := wireDigest(res)
	if err != nil {
		return false
	}
	if c.want[i] == "" {
		c.want[i] = d
	}
	return d == c.want[i]
}

func runMesh(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	meshes, setup, err := timeSetups(func() ([]*netdiag.Measurements, error) { return genMeshes(cfg.seed), nil }, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{setup: setup, summary: map[string]float64{},
		mix: fmt.Sprintf("%d meshes of %d sensors, %d paths each, nd-edge", meshesPerRun, meshSensors, len(meshes[0].Before))}
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	check := newMeshChecker(cfg.seed)
	dg := netdiag.New(netdiag.WithAlgorithm(netdiag.NDEdgeAlgo), netdiag.WithParallelism(1))
	// Warm the diagnosis path before timing it.
	if _, err := dg.Diagnose(ctx, meshes[0]); err != nil {
		return nil, err
	}
	out.untraced = &sampler{}
	err = measureLoop(d, meshesPerRun, out.untraced, setup, func(k int) bool {
		i := k % meshesPerRun
		m := out.untraced.begin()
		res, err := dg.Diagnose(ctx, meshes[i])
		out.untraced.end(m)
		if err != nil || !check.ok(i, res) {
			out.untraced.fail()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	addPercentiles(out.summary, out.untraced)
	if !cfg.trace {
		out.liveMB = liveHeapMB()
		keepAlive(meshes, dg)
		return out, setup.finish()
	}

	tele := telemetry.New()
	traced := netdiag.New(netdiag.WithAlgorithm(netdiag.NDEdgeAlgo), netdiag.WithParallelism(1), netdiag.WithTelemetry(tele))
	tr := newTracer()
	out.spans = tr
	out.traced = &sampler{}
	var hypLinks, iters int64
	before := tele.Snapshot()
	_ = measureLoop(d, meshesPerRun, out.traced, nil, func(k int) bool {
		i := k % meshesPerRun
		m := out.traced.begin()
		end := tr.start("core.diagnose")
		res, err := traced.Diagnose(ctx, meshes[i])
		end()
		out.traced.end(m)
		tr.nextOp()
		if err != nil || !check.ok(i, res) {
			out.traced.fail()
			return true
		}
		hypLinks += int64(len(res.Hypothesis))
		iters += int64(res.Iterations)
		return true
	})
	delta := deltaOf(before, tele.Snapshot())
	ops := float64(out.traced.ops())
	sum, count := tr.totals()
	l := map[string]float64{
		"core.diagnose_ms":         meanMS(sum, count, "core.diagnose"),
		"core.allocs_per_diagnose": float64(out.traced.allocObjs) / ops,
		"core.hypothesis_links":    float64(hypLinks) / ops,
		"core.greedy_iterations":   float64(iters) / ops,
		"share.core_pct":           100 * float64(sum["core.diagnose"]) / float64(out.traced.busy),
	}
	coreLayer(l, delta)
	out.layers = l
	keepAlive(meshes)
	return out, nil
}
