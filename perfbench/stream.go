package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/probe"
	"netdiag/internal/server"
	"netdiag/internal/stream"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// The stream-research feed. An episode is streamTicks ticks; tick t
// covers record time [t*tickMS, (t+1)*tickMS). Every tick carries a
// quarter of a full-mesh round of traceroutes at offsets 100..900 ms and
// one BGP record at offset 0 (a keepalive) or 50 (a withdrawal or an
// announcement). The ticks fall into fixed classes, so the p50 sits well
// inside the largest one:
//
//   - withdraw (tick 2): a sensor's access link is withdrawn, and every
//     pair that now dies next to that link reports a failing probe at
//     offset 900;
//   - announce (tick 4): the link is announced again. With the idle-close
//     of 1100 ms this record closes the withdrawal's event (so its T+ is
//     the failed mesh) before it opens its own;
//   - close (tick 5): the announcement's event closes;
//   - late (ticks 9 and 15): lateProbes probes of the previous tick
//     arrive one tick late, so the processor resets and replays its
//     journal;
//   - quiet: the other 15 ticks.
const (
	streamTicks  = 20
	roundTicks   = 4 // ticks one full-mesh round is spread over
	tickMS       = 1000
	withdrawTick = 2
	announceTick = 4
	closeTick    = 5
	lateProbes   = 4
	// minFailingPairs is the fewest failing probes an incident link must
	// cause to be chosen.
	minFailingPairs = 5
	eventWindow     = time.Second
	eventIdleClose  = 1100 * time.Millisecond
	// waitTimeout bounds how long a tick waits for its events.
	waitTimeout = 20 * time.Second
)

var lateTicks = []int{9, 15}

// tick is the two request bodies of one tick.
type tick struct {
	bgp, trace   []byte
	bgpN, traceN int // lines per body
	class        string
}

// feed is one episode's generated input plus the /v1/events body that
// ingesting all of it in sorted order produces.
type feed struct {
	ticks []tick
	ref   []byte
	// sorted holds the same records as two bodies, sorted by record time.
	sortedBGP, sortedTrace []byte
}

// probeRec is one generated traceroute: its record time, id and lines.
type probeRec struct {
	ts    int64
	id    string
	lines []string
}

func traceLines(id string, ts int64, topo *topology.Topology, src, dst topology.RouterID, p *probe.Path) []string {
	s, d := topo.Router(src).Name, topo.Router(dst).Name
	lines := make([]string, 0, len(p.Hops)+1)
	for k, h := range p.Hops {
		lines = append(lines, fmt.Sprintf(`{"probe":%q,"ts":%d,"src":%q,"dst":%q,"hop":{"ttl":%d,"addr":%q,"rtt_ms":%.1f,"as":%d}}`,
			id, ts, s, d, k+1, h.Addr, 1.5*float64(k+1), h.AS))
	}
	ok := ""
	if p.OK {
		ok = `,"ok":true`
	}
	return append(lines, fmt.Sprintf(`{"probe":%q,"ts":%d,"src":%q,"dst":%q,"done":true%s}`, id, ts, s, d, ok))
}

func bgpLine(ts int64, typ string, a, b string) string {
	if typ == stream.BGPKeepalive {
		return fmt.Sprintf(`{"ts":%d,"type":%q}`, ts, typ)
	}
	return fmt.Sprintf(`{"ts":%d,"type":%q,"a":%q,"b":%q}`, ts, typ, a, b)
}

// incident is one access-link withdrawal of the feed.
type incident struct {
	a, b    string
	down    *probe.Mesh // the mesh while the link is down
	failing [][2]int    // pairs that die next to the link
}

// pickIncidents chooses n sensor access links, in a seeded order, whose
// withdrawal makes at least minFailingPairs probes die next to the link.
func pickIncidents(snap *server.Snapshot, rng *rand.Rand, n int) ([]incident, error) {
	topo := snap.Scenario.Topo
	sensors := snap.Scenario.Sensors
	var out []incident
	for _, si := range rng.Perm(len(sensors)) {
		if len(out) == n {
			break
		}
		first := snap.BeforeMesh.Paths[si][(si+1)%len(sensors)]
		if len(first.Hops) < 2 {
			continue
		}
		l, ok := topo.LinkBetween(first.Hops[0].Router, first.Hops[1].Router)
		if !ok {
			continue
		}
		fork := snap.Net.Fork()
		fork.FailLink(l.ID)
		if err := fork.Reconverge(); err != nil {
			return nil, err
		}
		down := fork.Mesh(sensors)
		near := map[topology.ASN]bool{topo.RouterAS(l.A): true, topo.RouterAS(l.B): true}
		inc := incident{a: topo.Router(l.A).Name, b: topo.Router(l.B).Name, down: down}
		for i := range sensors {
			for j := range sensors {
				p := down.Paths[i][j]
				if i != j && !p.OK && near[p.Hops[len(p.Hops)-1].AS] {
					inc.failing = append(inc.failing, [2]int{i, j})
				}
			}
		}
		if len(inc.failing) >= minFailingPairs {
			out = append(out, inc)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d of %d incidents found", len(out), n)
	}
	return out, nil
}

// genFeed builds one episode's records from the seed.
func genFeed(snap *server.Snapshot, seed int64) (*feed, error) {
	topo := snap.Scenario.Topo
	sensors := snap.Scenario.Sensors
	rng := rand.New(rand.NewSource(seed))
	incs, err := pickIncidents(snap, rng, 1)
	if err != nil {
		return nil, err
	}
	inc := incs[0]
	f := &feed{ticks: make([]tick, streamTicks)}
	bgpByTick := make([]string, streamTicks)
	probes := make([][]probeRec, streamTicks) // by the tick that delivers them
	var allBGP []string
	var allProbes []probeRec
	state := snap.BeforeMesh
	for t := 0; t < streamTicks; t++ {
		base := int64(t * tickMS)
		f.ticks[t].class = "quiet"
		bgpByTick[t] = bgpLine(base, stream.BGPKeepalive, "", "")
		switch {
		case t == withdrawTick:
			state = inc.down
			bgpByTick[t] = bgpLine(base+50, stream.BGPWithdrawal, inc.a, inc.b)
			f.ticks[t].class = "withdraw"
		case t == announceTick:
			state = snap.BeforeMesh
			bgpByTick[t] = bgpLine(base+50, stream.BGPAnnouncement, inc.a, inc.b)
			f.ticks[t].class = "announce"
		case t == closeTick:
			f.ticks[t].class = "close"
		case slices.Contains(lateTicks, t):
			f.ticks[t].class = "late"
		}
		allBGP = append(allBGP, bgpByTick[t])
		// This tick's share of the full-mesh round; a probe that fails in
		// a round is left out (the incident probes report its pair).
		n := len(sensors) * (len(sensors) - 1) / roundTicks
		k := 0
		var tickProbes []probeRec
		for i := range sensors {
			for j := range sensors {
				if i == j || (i*len(sensors)+j)%roundTicks != t%roundTicks {
					continue
				}
				ts := base + 100 + int64(800*k/n)
				k++
				p := state.Paths[i][j]
				if !p.OK {
					continue
				}
				id := fmt.Sprintf("t%d-%d-%d", t, i, j)
				tickProbes = append(tickProbes, probeRec{ts, id, traceLines(id, ts, topo, sensors[i], sensors[j], p)})
			}
		}
		if t == withdrawTick {
			for _, pr := range inc.failing {
				id := fmt.Sprintf("f%d-%d-%d", t, pr[0], pr[1])
				ts := base + 900
				tickProbes = append(tickProbes, probeRec{ts, id,
					traceLines(id, ts, topo, sensors[pr[0]], sensors[pr[1]], inc.down.Paths[pr[0]][pr[1]])})
			}
		}
		// lateProbes of them go out with the next tick when that is a
		// late tick.
		late := map[int]bool{}
		if slices.Contains(lateTicks, t+1) {
			for _, idx := range rng.Perm(len(tickProbes))[:lateProbes] {
				late[idx] = true
			}
		}
		for idx, pr := range tickProbes {
			deliver := t
			if late[idx] {
				deliver = t + 1
			}
			probes[deliver] = append(probes[deliver], pr)
		}
		allProbes = append(allProbes, tickProbes...)
	}
	for t := range f.ticks {
		f.ticks[t].bgp = []byte(bgpByTick[t] + "\n")
		f.ticks[t].bgpN = 1
		var b strings.Builder
		for _, pr := range probes[t] {
			for _, l := range pr.lines {
				b.WriteString(l)
				b.WriteByte('\n')
				f.ticks[t].traceN++
			}
		}
		f.ticks[t].trace = []byte(b.String())
	}
	sort.SliceStable(allProbes, func(i, j int) bool {
		if allProbes[i].ts != allProbes[j].ts {
			return allProbes[i].ts < allProbes[j].ts
		}
		return allProbes[i].id < allProbes[j].id
	})
	var b strings.Builder
	for _, pr := range allProbes {
		for _, l := range pr.lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	f.sortedTrace = []byte(b.String())
	f.sortedBGP = []byte(strings.Join(allBGP, "\n") + "\n")
	return f, nil
}

// streamEnv is one built stream-research workload.
type streamEnv struct {
	reg  *server.Registry
	feed *feed
}

// buildStream is the timed set-up: the research scenario and one ingest
// server with its processor open, which is what a live feed waits for
// before its first record. Every episode repeats the opening (see
// stream.episode_open_ms), so work moved into it shows in setup_s.
func buildStream() (*streamEnv, error) {
	reg, err := newResearchRegistry()
	if err != nil {
		return nil, err
	}
	env := &streamEnv{reg: reg}
	srv, err := env.openEpisode(nil)
	if err != nil {
		return nil, err
	}
	srv.Close()
	return env, nil
}

// prepare generates the seeded feed from a snapshot of its own and
// computes the reference events. It runs after set-up.
func (e *streamEnv) prepare(seed int64) error {
	snap, err := server.NewStore(e.reg, 1, "", nil).Get(context.Background(), researchName)
	if err != nil {
		return err
	}
	if e.feed, err = genFeed(snap, seed); err != nil {
		return err
	}
	if e.feed.ref, err = e.referenceEvents(); err != nil {
		return err
	}
	// Only the reference needs the feed in sorted order.
	e.feed.sortedBGP, e.feed.sortedTrace = nil, nil
	return nil
}

// openEpisode starts a fresh ingest server and builds its processor, so
// no state carries over from an earlier episode.
func (e *streamEnv) openEpisode(tele *telemetry.Registry) (*server.Server, error) {
	srv := server.New(server.Config{
		Scenarios: e.reg, Workers: 1, Parallelism: 1, Ingest: true, Telemetry: tele,
		EventWindow: eventWindow, EventIdleClose: eventIdleClose,
	})
	if _, err := srv.StreamProcessor(context.Background(), researchName); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

var ingestPath = "?scenario=" + researchName

// ingest posts one body and reports whether every line was accepted.
func ingest(h http.Handler, endpoint string, body []byte, lines int) bool {
	w := post(h, "/v1/ingest/"+endpoint+ingestPath, body)
	if w.Code != http.StatusOK {
		return false
	}
	var resp struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	return json.Unmarshal(w.Body.Bytes(), &resp) == nil && resp.Rejected == 0 && resp.Accepted == lines
}

// settle polls /v1/events until no event is still being diagnosed, with a
// sleep between polls. It returns the last body, whether every closed
// event is diagnosed (none pending, failed or timed out), and the time
// each event first seen terminal in this call became so.
func settle(h http.Handler, terminal map[string]bool, since time.Time) ([]byte, bool, []time.Duration) {
	var lags []time.Duration
	pause := 250 * time.Microsecond
	for {
		req := httptest.NewRequest(http.MethodGet, "/v1/events"+ingestPath, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		seen := time.Since(since)
		body := w.Body.Bytes()
		if w.Code != http.StatusOK {
			return body, false, lags
		}
		var evs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &evs); err != nil {
			return body, false, lags
		}
		busy, ok := false, true
		for _, ev := range evs {
			switch ev.Status {
			case core.EventDiagnosing:
				busy = true
			case core.EventDiagnosed:
				if !terminal[ev.ID] {
					terminal[ev.ID] = true
					lags = append(lags, seen)
				}
			case core.EventOpen:
			default: // pending (shed) or failed
				ok = false
			}
		}
		if !busy || !ok || seen > waitTimeout {
			return body, ok && !busy, lags
		}
		time.Sleep(pause)
		if pause < 2*time.Millisecond {
			pause *= 2
		}
	}
}

// referenceEvents ingests the whole feed in sorted order, one body per
// endpoint, and returns the settled /v1/events body.
func (e *streamEnv) referenceEvents() ([]byte, error) {
	srv, err := e.openEpisode(nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	bgpN := bytes.Count(e.feed.sortedBGP, []byte("\n"))
	traceN := bytes.Count(e.feed.sortedTrace, []byte("\n"))
	if !ingest(h, "bgp", e.feed.sortedBGP, bgpN) || !ingest(h, "traceroute", e.feed.sortedTrace, traceN) {
		return nil, fmt.Errorf("sorted feed rejected")
	}
	body, ok, lags := settle(h, map[string]bool{}, time.Now())
	if !ok {
		return nil, fmt.Errorf("sorted feed did not settle: %s", body)
	}
	if len(lags) < 2 {
		return nil, fmt.Errorf("sorted feed diagnosed %d events, want 2", len(lags))
	}
	return body, nil
}

// episodeStats accumulates what the stream workload reports beyond the
// sampler.
type episodeStats struct {
	records  int
	lagsMS   []float64
	openMS   []float64
	episodes int
	// The traced run's registry deltas, summed over ticks: those taken
	// across the ingest requests and those across the wait for events.
	ingest, wait regDelta
}

func runStream(cfg runConfig) (*outcome, error) {
	env, setup, err := timeSetups(buildStream, nil)
	if err != nil {
		return nil, err
	}
	if err := env.prepare(cfg.seed); err != nil {
		return nil, err
	}
	out := &outcome{setup: setup, summary: map[string]float64{}, mix: streamMix(env.feed)}
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	// Warm the ingest path with one untimed episode.
	warm, err := streamEpisode(env, &sampler{}, &episodeStats{}, nil)
	if err != nil {
		return nil, err
	}
	warm.Close()
	out.untraced = &sampler{}
	st := &episodeStats{}
	last, err := streamLoop(d, env, out.untraced, st, setup, nil)
	if err != nil {
		return nil, err
	}
	addPercentiles(out.summary, out.untraced)
	out.summary["records_per_s"] = float64(st.records) / out.untraced.busy.Seconds()
	if v, ok := percentile(st.lagsMS, 0.5); ok {
		out.summary["event_lag_p50_ms"] = v
	}
	if !cfg.trace {
		// The last episode's server is still open, so its processor's
		// journal, overlay and events count in the live heap.
		out.liveMB = liveHeapMB()
		keepAlive(env, last)
		last.Close()
		return out, setup.finish()
	}
	last.Close()

	tr := newTracer()
	out.spans = tr
	out.traced = &sampler{}
	tst := &episodeStats{ingest: newRegDelta(), wait: newRegDelta()}
	last, err = streamLoop(d, env, out.traced, tst, nil, tr)
	if err != nil {
		return nil, err
	}
	last.Close()
	out.layers = streamLayers(tr, tst, out.traced)
	if err := hypothesisStats(out.layers, env.feed.ref); err != nil {
		return nil, err
	}
	return out, nil
}

// streamLoop runs whole episodes until d has elapsed, letting setup (when
// not nil) time a build between them. Each episode's server is closed
// before the next one opens; the last one is returned still open, so the
// caller can measure its state before closing it.
func streamLoop(d time.Duration, env *streamEnv, s *sampler, st *episodeStats, setup *setupClock, tr *tracer) (*server.Server, error) {
	var (
		last *server.Server
		err  error
	)
	loopErr := measureLoop(d, 1, s, setup, func(int) bool {
		if last != nil {
			last.Close()
		}
		last, err = streamEpisode(env, s, st, tr)
		return err == nil
	})
	if err == nil && loopErr != nil {
		last.Close()
		return nil, loopErr
	}
	return last, err
}

// streamEpisode replays the feed into a fresh processor, one op per tick,
// and returns the episode's server, still open. It returns an error only
// when the episode could not start.
func streamEpisode(env *streamEnv, s *sampler, st *episodeStats, tr *tracer) (*server.Server, error) {
	var tele *telemetry.Registry
	if tr != nil {
		tele = telemetry.New()
	}
	open := time.Now()
	srv, err := env.openEpisode(tele)
	if err != nil {
		return nil, err
	}
	st.openMS = append(st.openMS, float64(time.Since(open))/1e6)
	h := srv.Handler()
	terminal := map[string]bool{}
	for t, tk := range env.feed.ticks {
		// The traced run reads the registry where the ingest ends, so the
		// diagnosis time can be split between the ingest and the wait.
		var before, ingested telemetry.Snapshot
		if tr != nil {
			before = tele.Snapshot()
		}
		m := s.begin()
		end := tr.start("stream.ingest_bgp")
		ok := ingest(h, "bgp", tk.bgp, tk.bgpN)
		end()
		end = tr.start("stream.ingest_trace")
		ok = ingest(h, "traceroute", tk.trace, tk.traceN) && ok
		end()
		if tr != nil {
			ingested = tele.Snapshot()
		}
		returned := time.Now()
		end = tr.start("server.events_wait")
		body, settled, lags := settle(h, terminal, returned)
		end()
		s.end(m)
		tr.nextOp()
		if tr != nil {
			after := tele.Snapshot()
			st.ingest.add(deltaOf(before, ingested))
			st.wait.add(deltaOf(ingested, after))
		}
		st.records += tk.bgpN + tk.traceN
		for _, l := range lags {
			st.lagsMS = append(st.lagsMS, float64(l)/1e6)
		}
		if t == len(env.feed.ticks)-1 && !bytes.Equal(body, env.feed.ref) {
			ok = false
		}
		if !ok || !settled {
			s.fail()
		}
	}
	st.episodes++
	return srv, nil
}

// streamLayers derives the per-layer metrics of a traced stream run.
//
// Event diagnoses run on the server's worker goroutine, mostly while the
// client waits for events but, on one P, also in time slices taken from
// a long ingest request. The registry is read where each ingest ends, so
// core and netsim time is charged to the ingest or to the wait by when
// each phase finished. What is left of the ingest is stream's own time,
// and what is left of the wait is server's (polls, queue, the alarm
// path's adapt and encode). A phase that spans the boundary is charged
// to the side it ended on; op time outside both spans is unattributed.
func streamLayers(tr *tracer, st *episodeStats, s *sampler) map[string]float64 {
	sum, count := tr.totals()
	d := newRegDelta()
	d.add(st.ingest)
	d.add(st.wait)
	opMS := float64(s.busy) / 1e6
	ingestMS := float64(sum["stream.ingest_bgp"]+sum["stream.ingest_trace"]) / 1e6
	waitMS := float64(sum["server.events_wait"]) / 1e6
	netsimMS := func(d regDelta) float64 {
		return d.histSumMS("netsim.phase.spf_ns") + d.histSumMS("netsim.phase.bgp_ns") + d.histSumMS("netsim.phase.mesh_ns")
	}
	coreMS := func(d regDelta) float64 {
		ms := 0.0
		for _, ph := range corePhases {
			ms += d.histSumMS("diagnose.phase." + ph + "_ns")
		}
		return ms
	}
	eps := float64(st.episodes)
	perEp := func(name string) float64 { return float64(d.counters[name]) / eps }
	l := map[string]float64{
		"stream.ingest_trace_ms":     meanMS(sum, count, "stream.ingest_trace"),
		"stream.ingest_bgp_ms":       meanMS(sum, count, "stream.ingest_bgp"),
		"stream.episode_open_ms":     median(st.openMS),
		"stream.sweep_resets":        perEp("stream.sweep_resets"),
		"stream.pairs_reprobed":      perEp("stream.pairs_reprobed"),
		"stream.dirty_pair_fraction": d.ratio("stream.pairs_reprobed", "stream.pairs_skipped"),
		"stream.events_closed":       perEp("stream.events_closed"),
		"stream.records_rejected":    perEp("stream.records_rejected"),
		"server.queue_wait_ms":       d.histMeanMS("pool.queue_wait_ns"),
		"server.coalesce_hits":       perEp("server.coalesce_hits"),
		"share.stream_pct":           100 * (ingestMS - netsimMS(st.ingest) - coreMS(st.ingest)) / opMS,
		"share.server_pct":           100 * (waitMS - netsimMS(st.wait) - coreMS(st.wait)) / opMS,
		"share.netsim_pct":           100 * netsimMS(d) / opMS,
		"share.core_pct":             100 * coreMS(d) / opMS,
	}
	if n := d.histN["diagnose.phase.validate_ns"]; n > 0 {
		l["core.diagnose_ms"] = coreMS(d) / float64(n)
	}
	coreLayer(l, d)
	netsimCounters(l, d, s.ops())
	return l
}

// streamMix records the tick classes of one episode.
func streamMix(f *feed) string {
	counts := map[string]int{}
	lines := 0
	for _, t := range f.ticks {
		counts[t.class]++
		lines += t.bgpN + t.traceN
	}
	return fmt.Sprintf("ticks/episode:%d quiet:%d withdraw:%d announce:%d close:%d late:%d (%d probes each) lines/episode:%d",
		len(f.ticks), counts["quiet"], counts["withdraw"], counts["announce"], counts["close"], counts["late"], lateProbes, lines)
}

// hypothesisStats adds the mean hypothesis size and greedy iteration
// count of the diagnosed events in a settled /v1/events body.
func hypothesisStats(l map[string]float64, body []byte) error {
	var evs []core.WireEvent
	if err := json.Unmarshal(body, &evs); err != nil {
		return err
	}
	n, links, iters := 0, 0, 0
	for _, ev := range evs {
		if ev.Hypothesis != nil {
			n++
			links += len(ev.Hypothesis.Hypothesis)
			iters += ev.Hypothesis.Iterations
		}
	}
	if n > 0 {
		l["core.hypothesis_links"] = float64(links) / float64(n)
		l["core.greedy_iterations"] = float64(iters) / float64(n)
	}
	return nil
}
