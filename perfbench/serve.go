package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"netdiag"
	"netdiag/internal/core"
	"netdiag/internal/experiment"
	"netdiag/internal/lookingglass"
	"netdiag/internal/server"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

const (
	// researchSeed fixes the 165-AS research topology and its sensor
	// placement; the workload seed only draws the faults and feeds, so
	// every seed measures the same network.
	researchSeed    = 1
	researchSensors = 40
	// serveFaults is the number of distinct faults a serve-research run
	// cycles through; one cycle sends each fault with each algorithm.
	serveFaults = 30
)

var (
	researchName = fmt.Sprintf("research-%d", researchSeed)
	serveAlgos   = []netdiag.Algorithm{netdiag.NDEdgeAlgo, netdiag.NDBgpIgpAlgo, netdiag.NDLGAlgo}
)

// newResearchRegistry registers the research scenario; building the
// topology happens on first use.
func newResearchRegistry() (*server.Registry, error) {
	reg := server.NewRegistry()
	if err := reg.Register(researchName, server.ResearchScenario(researchSeed, researchSensors)); err != nil {
		return nil, err
	}
	return reg, nil
}

// fault is one failure set of a diagnose request, by router name.
type fault struct {
	Links   [][2]string `json:"fail_links,omitempty"`
	Routers []string    `json:"fail_routers,omitempty"`
}

func (f fault) kind() string {
	switch {
	case len(f.Routers) > 0:
		return "router"
	case len(f.Links) == 2:
		return "two-links"
	}
	return "link"
}

// meshElements ranks the links the healthy mesh crosses and the transit
// (non-sensor) routers it visits by how many of its paths cross them,
// most-crossed first (ties by ID).
func meshElements(snap *server.Snapshot) (links []topology.LinkID, routers []topology.RouterID) {
	topo := snap.Scenario.Topo
	sensor := map[topology.RouterID]bool{}
	for _, s := range snap.Scenario.Sensors {
		sensor[s] = true
	}
	linkPaths, routerPaths := map[topology.LinkID]int{}, map[topology.RouterID]int{}
	for _, row := range snap.BeforeMesh.Paths {
		for _, p := range row {
			if p == nil {
				continue
			}
			for k, h := range p.Hops {
				if !sensor[h.Router] {
					if routerPaths[h.Router] == 0 {
						routers = append(routers, h.Router)
					}
					routerPaths[h.Router]++
				}
				if k == 0 {
					continue
				}
				if l, ok := topo.LinkBetween(p.Hops[k-1].Router, h.Router); ok {
					if linkPaths[l.ID] == 0 {
						links = append(links, l.ID)
					}
					linkPaths[l.ID]++
				}
			}
		}
	}
	sort.Slice(links, func(i, j int) bool {
		a, b := links[i], links[j]
		return linkPaths[a] > linkPaths[b] || (linkPaths[a] == linkPaths[b] && a < b)
	})
	sort.Slice(routers, func(i, j int) bool {
		a, b := routers[i], routers[j]
		return routerPaths[a] > routerPaths[b] || (routerPaths[a] == routerPaths[b] && a < b)
	})
	return links, routers
}

// stratum draws an element of the k-th of n equal slices of a ranked
// list.
func stratum[T any](rng *rand.Rand, ranked []T, k, n int) T {
	lo, hi := k*len(ranked)/n, (k+1)*len(ranked)/n
	if hi <= lo {
		hi = lo + 1
	}
	return ranked[lo+rng.Intn(hi-lo)]
}

// genFaults draws n distinct faults from the elements the healthy mesh
// crosses, cycling through one link, two links and one router. The
// candidates are ranked by how many paths cross them and cut into n
// strata, and fault k draws from stratum k (a two-link fault also from
// stratum n-1-k). Every seed therefore gets different faults with the
// same spread of weights, so runs on different seeds cost alike.
func genFaults(snap *server.Snapshot, seed int64, n int) []fault {
	topo := snap.Scenario.Topo
	links, routers := meshElements(snap)
	rng := rand.New(rand.NewSource(seed))
	linkNames := func(id topology.LinkID) [2]string {
		l := topo.Link(id)
		return [2]string{topo.Router(l.A).Name, topo.Router(l.B).Name}
	}
	seen := map[string]bool{}
	var out []fault
	for len(out) < n {
		k := len(out)
		var f fault
		switch k % 3 {
		case 0:
			f.Links = [][2]string{linkNames(stratum(rng, links, k, n))}
		case 1:
			a, b := stratum(rng, links, k, n), stratum(rng, links, n-1-k, n)
			if a == b {
				continue
			}
			f.Links = [][2]string{linkNames(a), linkNames(b)}
		default:
			f.Routers = []string{topo.Router(stratum(rng, routers, k, n)).Name}
		}
		key, _ := json.Marshal(f) // a struct of strings always marshals
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, f)
	}
	return out
}

// serveReq is one request of the cycle.
type serveReq struct {
	fault fault
	algo  netdiag.Algorithm
	body  []byte
	ref   []byte // the library path's bytes for the same fault and algorithm
}

// serveEnv is one built serve-research workload.
type serveEnv struct {
	reg   *server.Registry
	srv   *server.Server
	store *server.Store // the replay's own store, built outside set-up
	reqs  []serveReq
}

// newServeServer starts a diagnosis server on reg with one worker and
// warms its snapshot.
func newServeServer(reg *server.Registry, tele *telemetry.Registry) (*server.Server, error) {
	srv := server.New(server.Config{Scenarios: reg, Workers: 1, Parallelism: 1, Telemetry: tele})
	if err := srv.WarmAll(context.Background()); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// buildServe is the timed set-up: the research scenario and a warm server.
func buildServe() (*serveEnv, error) {
	reg, err := newResearchRegistry()
	if err != nil {
		return nil, err
	}
	srv, err := newServeServer(reg, nil)
	if err != nil {
		return nil, err
	}
	return &serveEnv{reg: reg, srv: srv}, nil
}

// prepare builds the replay's store, draws the seeded requests from its
// snapshot and computes each request's reference bytes once. It runs
// after set-up and outside the timed loop.
func (e *serveEnv) prepare(ctx context.Context, seed int64) error {
	e.store = server.NewStore(e.reg, 1, "", nil)
	snap, err := e.store.Get(ctx, researchName)
	if err != nil {
		return err
	}
	for _, f := range genFaults(snap, seed, serveFaults) {
		for _, algo := range serveAlgos {
			body, err := json.Marshal(server.DiagnoseRequest{
				Scenario: researchName, Algorithm: algo.Slug(),
				FailLinks: f.Links, FailRouters: f.Routers,
			})
			if err != nil {
				return err
			}
			ref, _, err := replay(ctx, e.store, f, algo, nil)
			if err != nil {
				return fmt.Errorf("reference for %s: %w", body, err)
			}
			e.reqs = append(e.reqs, serveReq{fault: f, algo: algo, body: body, ref: ref})
		}
	}
	return nil
}

// replay runs one request as the public calls the handler makes, timing
// each layer on tr, and returns the wire bytes.
func replay(ctx context.Context, store *server.Store, f fault, algo netdiag.Algorithm, tr *tracer) ([]byte, int64, error) {
	end := tr.start("server.store_get")
	snap, err := store.Get(ctx, researchName)
	end()
	if err != nil {
		return nil, 0, err
	}
	topo := snap.Scenario.Topo
	end = tr.start("netsim.fork")
	fork := snap.Net.Fork()
	for _, l := range f.Links {
		a, okA := snap.Router(l[0])
		b, okB := snap.Router(l[1])
		link, ok := topo.LinkBetween(a, b)
		if !okA || !okB || !ok {
			end()
			return nil, 0, fmt.Errorf("no link %s~%s", l[0], l[1])
		}
		fork.FailLink(link.ID)
	}
	for _, name := range f.Routers {
		r, ok := snap.Router(name)
		if !ok {
			end()
			return nil, 0, fmt.Errorf("no router %s", name)
		}
		fork.FailRouter(r)
	}
	end()
	end = tr.start("netsim.reconverge")
	err = fork.ReconvergeCtx(ctx)
	end()
	if err != nil {
		return nil, 0, err
	}
	end = tr.start("netsim.mesh")
	after, err := fork.MeshCtx(ctx, snap.Scenario.Sensors)
	end()
	if err != nil {
		return nil, 0, err
	}
	end = tr.start("experiment.adapt")
	meas := experiment.ToMeasurementsMapped(snap.BeforeMesh, after, snap.IP2AS.Lookup)
	end()
	opts := []netdiag.DiagnoserOption{netdiag.WithAlgorithm(algo), netdiag.WithParallelism(1)}
	asx := snap.Scenario.ASX
	if algo == netdiag.NDBgpIgpAlgo || algo == netdiag.NDLGAlgo {
		end = tr.start("netsim.observe")
		ws := fork.ObserveWithdrawals(snap.BeforeBGP, asx)
		end()
		end = tr.start("experiment.routing")
		ri := &netdiag.RoutingInfo{
			ASX:          asx,
			IGPDownLinks: experiment.AdaptIGPDowns(fork, asx),
			Withdrawals:  experiment.AdaptWithdrawals(topo, ws, snap.SensorASes),
		}
		end()
		opts = append(opts, netdiag.WithRoutingInfo(ri))
	}
	if algo == netdiag.NDLGAlgo {
		end = tr.start("lookingglass.build")
		lg := lookingglass.New(fork.BGP(), snap.BeforeBGP, nil, asx, snap.Prefixes)
		end()
		opts = append(opts, netdiag.WithLookingGlass(lg))
	}
	before := readUsage()
	end = tr.start("core.diagnose")
	res, err := netdiag.New(opts...).Diagnose(ctx, meas)
	end()
	allocs := int64(readUsage().allocObjs - before.allocObjs)
	if err != nil {
		return nil, 0, err
	}
	end = tr.start("server.encode")
	defer end()
	var buf bytes.Buffer
	if err := res.Wire(algo.Slug()).Encode(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), allocs, nil
}

// post drives one request through the handler and returns the recorder.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func runServe(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	env, setup, err := timeSetups(buildServe, func(e *serveEnv) { e.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer env.srv.Close()
	if err := env.prepare(ctx, cfg.seed); err != nil {
		return nil, err
	}
	out := &outcome{setup: setup, summary: map[string]float64{}, mix: serveMix(env.reqs)}
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	h := env.srv.Handler()
	// Warm the request path before timing it.
	for i := 0; i < len(serveAlgos); i++ {
		post(h, "/v1/diagnose", env.reqs[i].body)
	}
	out.untraced = &sampler{}
	err = measureLoop(d, len(env.reqs), out.untraced, setup, func(k int) bool {
		r := &env.reqs[k%len(env.reqs)]
		req := httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		m := out.untraced.begin()
		h.ServeHTTP(w, req)
		out.untraced.end(m)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), r.ref) {
			out.untraced.fail()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	addPercentiles(out.summary, out.untraced)
	if !cfg.trace {
		// The live heap is the server's: drop the replay store and the
		// references, which only the benchmark uses.
		env.store = nil
		for i := range env.reqs {
			env.reqs[i].ref = nil
		}
		out.liveMB = liveHeapMB()
		keepAlive(env)
		return out, setup.finish()
	}
	return out, traceServe(ctx, env, out, d)
}

// traceServe runs the traced half: a second server with a telemetry
// registry, a span around each request, and the request replayed as the
// handler's public calls so each layer's own time is known.
func traceServe(ctx context.Context, env *serveEnv, out *outcome, d time.Duration) error {
	tele := telemetry.New()
	srv, err := newServeServer(env.reg, tele)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	for i := 0; i < len(serveAlgos); i++ {
		post(h, "/v1/diagnose", env.reqs[i].body)
	}
	tr := newTracer()
	out.spans = tr
	out.traced = &sampler{}
	var coreAllocs, hypLinks, iters int64
	before := tele.Snapshot()
	_ = measureLoop(d, len(env.reqs), out.traced, nil, func(k int) bool {
		r := &env.reqs[k%len(env.reqs)]
		req := httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		m := out.traced.begin()
		end := tr.start("server.request")
		h.ServeHTTP(w, req)
		end()
		out.traced.end(m)
		body, allocs, err := replay(ctx, env.store, r.fault, r.algo, tr)
		tr.nextOp()
		coreAllocs += allocs
		var wr core.WireResult
		if err != nil || w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), r.ref) ||
			!bytes.Equal(body, r.ref) || json.Unmarshal(body, &wr) != nil {
			out.traced.fail()
			return true
		}
		hypLinks += int64(len(wr.Hypothesis))
		iters += int64(wr.Iterations)
		return true
	})
	delta := deltaOf(before, tele.Snapshot())
	ops := out.traced.ops()
	sum, count := tr.totals()
	ms := func(name string) float64 { return float64(sum[name]) / 1e6 }
	request := ms("server.request")
	netsimMS := ms("netsim.fork") + ms("netsim.reconverge") + ms("netsim.mesh") + ms("netsim.observe")
	experimentMS := ms("experiment.adapt") + ms("experiment.routing")
	lgMS := ms("lookingglass.build")
	coreMS := ms("core.diagnose")
	replayed := ms("server.store_get") + netsimMS + experimentMS + lgMS + coreMS + ms("server.encode")
	overhead := request - replayed
	l := map[string]float64{
		"netsim.reconverge_ms":     meanMS(sum, count, "netsim.reconverge"),
		"netsim.mesh_ms":           meanMS(sum, count, "netsim.mesh"),
		"netsim.fork_us":           meanMS(sum, count, "netsim.fork") * 1e3,
		"experiment.adapt_ms":      meanMS(sum, count, "experiment.adapt"),
		"lookingglass.build_ms":    meanMS(sum, count, "lookingglass.build"),
		"core.diagnose_ms":         meanMS(sum, count, "core.diagnose"),
		"core.allocs_per_diagnose": float64(coreAllocs) / float64(count["core.diagnose"]),
		"core.hypothesis_links":    float64(hypLinks) / float64(ops),
		"core.greedy_iterations":   float64(iters) / float64(ops),
		"server.request_ms":        request / float64(ops),
		"server.overhead_ms":       overhead / float64(ops),
		"server.encode_us":         meanMS(sum, count, "server.encode") * 1e3,
		"server.unaccounted_pct":   100 * overhead / request,
		"share.server_pct":         100 * (overhead + ms("server.store_get") + ms("server.encode")) / request,
		"share.netsim_pct":         100 * netsimMS / request,
		"share.experiment_pct":     100 * experimentMS / request,
		"share.lookingglass_pct":   100 * lgMS / request,
		"share.core_pct":           100 * coreMS / request,
	}
	coreLayer(l, delta)
	netsimCounters(l, delta, ops)
	out.layers = l
	return nil
}

// serveMix records the op classes of one cycle.
func serveMix(reqs []serveReq) string {
	counts := map[string]int{}
	var order []string
	for _, r := range reqs {
		c := r.algo.Slug() + "/" + r.fault.kind()
		if counts[c] == 0 {
			order = append(order, c)
		}
		counts[c]++
	}
	parts := make([]string, len(order))
	for i, c := range order {
		parts[i] = fmt.Sprintf("%s:%d", c, counts[c])
	}
	return strings.Join(parts, " ")
}
