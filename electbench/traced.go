package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"mobiletel"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
)

// clockBase anchors the traced run's monotonic clock.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// Protocol methods timed by timedProtocol, in report order.
const (
	mAdvertise = iota
	mDecide
	mOutgoing
	mDeliver
	mEndRound
	numMethods
)

var methodNames = [numMethods]string{"advertise", "decide", "outgoing", "deliver", "end_round"}

// timedProtocol forwards every sim.Protocol method to inner and accumulates
// the time and count of each call. Each node has its own counters, and the
// engine calls one node's methods from one worker at a time, so the
// counters need no synchronization under the parallel core.
type timedProtocol struct {
	inner sim.Protocol
	ns    [numMethods]int64
	calls [numMethods]int64
}

func (p *timedProtocol) done(m int, t0 int64) {
	p.ns[m] += now() - t0
	p.calls[m]++
}

func (p *timedProtocol) Advertise(ctx *sim.Context) uint64 {
	t0 := now()
	tag := p.inner.Advertise(ctx)
	p.done(mAdvertise, t0)
	return tag
}

func (p *timedProtocol) Decide(ctx *sim.Context) (int32, bool) {
	t0 := now()
	target, propose := p.inner.Decide(ctx)
	p.done(mDecide, t0)
	return target, propose
}

func (p *timedProtocol) Outgoing(ctx *sim.Context, peer int32) sim.Message {
	t0 := now()
	msg := p.inner.Outgoing(ctx, peer)
	p.done(mOutgoing, t0)
	return msg
}

func (p *timedProtocol) Deliver(ctx *sim.Context, peer int32, msg sim.Message) {
	t0 := now()
	p.inner.Deliver(ctx, peer, msg)
	p.done(mDeliver, t0)
}

func (p *timedProtocol) EndRound(ctx *sim.Context) {
	t0 := now()
	p.inner.EndRound(ctx)
	p.done(mEndRound, t0)
}

func (p *timedProtocol) Leader() uint64 { return p.inner.Leader() }

// timedSchedule forwards every dyngraph.Schedule method to inner and times
// GraphAt, which the engine calls from its sequential section. A call that
// returns a different graph than the previous one counts as a rebuild.
type timedSchedule struct {
	inner               dyngraph.Schedule
	ns, calls, rebuilds int64
	last                *graph.Graph
}

func (s *timedSchedule) GraphAt(r int) *graph.Graph {
	t0 := now()
	g := s.inner.GraphAt(r)
	s.ns += now() - t0
	s.calls++
	if g != s.last {
		s.rebuilds++
		s.last = g
	}
	return g
}

func (s *timedSchedule) Tau() int       { return s.inner.Tau() }
func (s *timedSchedule) N() int         { return s.inner.N() }
func (s *timedSchedule) MaxDegree() int { return s.inner.MaxDegree() }
func (s *timedSchedule) Alpha() float64 { return s.inner.Alpha() }
func (s *timedSchedule) Name() string   { return s.inner.Name() }

// algoTrace accumulates one algorithm's protocol-layer figures.
type algoTrace struct {
	ns, calls      [numMethods]int64
	rounds         int64
	mallocs, bytes float64
}

// tracer collects the traced run's per-layer figures.
type tracer struct {
	prof      *obs.Profiler
	profAgg   profileSum
	algos     [3]algoTrace // indexed by mobiletel.Algorithm
	nodes     []timedProtocol
	graphNS   []int64 // graph generation, per network
	schedNS   int64
	schedN    int64
	rebuilds  int64
	newNS     []int64 // sim.New, per engine
	roundBuf  []int64 // one election's round durations
	roundUS   []float64
	lastRound int64
	proposals int64
	accepts   int64
	busyLost  int64
	// Allocations of one graph rebuild, measured on a spare schedule, so
	// that a schedule's per-epoch rebuild is not charged to the protocol.
	rebuildMallocs, rebuildBytes float64
}

func newTracer() *tracer {
	return &tracer{prof: obs.NewProfiler(now)}
}

// observe is the engine's Config.Observer: it times each round from the
// previous callback and counts proposal outcomes.
func (tr *tracer) observe(s sim.RoundStats) {
	t := now()
	tr.roundBuf = append(tr.roundBuf, t-tr.lastRound)
	tr.lastRound = t
	tr.proposals += int64(s.Proposals)
	tr.accepts += int64(s.Accepts)
	tr.busyLost += int64(s.BusyLost)
}

func (w *elections) traceSetup(tr *tracer) {
	var f gen.Family
	for k := 0; k < w.spec.networks; k++ {
		t0 := now()
		f = w.spec.family(mix(w.seed, streamTopology, k))
		tr.graphNS = append(tr.graphNS, now()-t0)
		w.tscheds = append(w.tscheds, &timedSchedule{inner: w.spec.tracedSchedule(f, mix(w.seed, streamSchedule, k))})
	}
	// A spare schedule over the last network measures the allocations of
	// a graph rebuild across 64 rounds.
	spare := &timedSchedule{inner: w.spec.tracedSchedule(f, mix(w.seed, streamSchedule, w.spec.networks-1))}
	spare.GraphAt(1)
	spare.rebuilds = 0
	m0 := readMem()
	for r := 2; r < 66; r++ {
		spare.GraphAt(r)
	}
	m1 := readMem()
	if spare.rebuilds > 0 {
		tr.rebuildMallocs = float64(m1.Mallocs-m0.Mallocs) / float64(spare.rebuilds)
		tr.rebuildBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(spare.rebuilds)
	}
	tr.roundBuf = make([]int64, 0, w.spec.maxRounds)
}

func (w *elections) tracedOp(i int, tr *tracer) outcome {
	e := w.insts[i%len(w.insts)]
	sched := w.tscheds[e.network]
	var out outcome
	for _, algo := range w.spec.algos {
		leader, rounds, err := tr.elect(sched, algo, e, w.options(e, algo))
		if !out.add(algo, e, leader, rounds, err) {
			break
		}
	}
	return out
}

// elect runs one election the way mobiletel.ElectLeader does, but builds
// each layer itself, wraps the schedule and the protocols in timing
// decorators and attaches the phase profiler. network mirrors
// ElectLeader's protocol seeds, so the results must match the untraced
// run's exactly.
func (tr *tracer) elect(sched *timedSchedule, algo mobiletel.Algorithm, e election, opts mobiletel.Options) (uint64, int, error) {
	n := len(e.uids)
	protocols, _, tagBits := network(algo, e.uids, e.params, opts.Seed)
	if cap(tr.nodes) < n {
		tr.nodes = make([]timedProtocol, n)
	}
	nodes := tr.nodes[:n]
	for u := range nodes {
		nodes[u] = timedProtocol{inner: protocols[u]}
		protocols[u] = &nodes[u]
	}
	cfg := sim.Config{
		Seed:        opts.Seed,
		TagBits:     tagBits,
		MaxRounds:   opts.MaxRounds,
		Activations: opts.Activations,
		Workers:     opts.Workers,
		Observer:    tr.observe,
		Profiler:    tr.prof,
	}
	sched.ns, sched.calls, sched.rebuilds = 0, 0, 0
	t0 := now()
	eng, err := sim.New(sched, protocols, cfg)
	tr.newNS = append(tr.newNS, now()-t0)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	r0 := sched.rebuilds
	tr.roundBuf = tr.roundBuf[:0]
	m0 := readMem()
	tr.lastRound = now()
	res, err := eng.Run(sim.AllLeadersEqual)
	m1 := readMem()
	rebuilds := float64(sched.rebuilds - r0)
	for _, d := range tr.roundBuf {
		tr.roundUS = append(tr.roundUS, float64(d)/1e3)
	}
	tr.schedNS += sched.ns
	tr.schedN += sched.calls
	tr.rebuilds += sched.rebuilds
	a := &tr.algos[algo]
	a.rounds += int64(res.RoundsExecuted)
	a.mallocs += float64(m1.Mallocs-m0.Mallocs) - rebuilds*tr.rebuildMallocs
	a.bytes += float64(m1.TotalAlloc-m0.TotalAlloc) - rebuilds*tr.rebuildBytes
	for u := range nodes {
		for m := 0; m < numMethods; m++ {
			a.ns[m] += nodes[u].ns[m]
			a.calls[m] += nodes[u].calls[m]
		}
	}
	if err != nil {
		return 0, 0, err
	}
	return protocols[0].Leader(), res.StabilizedRound, nil
}

func (s *sweep) traceSetup(*tracer) {}

func (s *sweep) tracedOp(_ int, tr *tracer) outcome { return s.pass(tr) }

// addProfile folds one mtmprof/v1 report, as the facade writes it, into the
// traced run's phase totals.
func (tr *tracer) addProfile(data []byte) error {
	var rep obs.ProfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("reading phase profile: %w", err)
	}
	if rep.Schema != obs.ProfSchema {
		return fmt.Errorf("phase profile schema %q, want %q", rep.Schema, obs.ProfSchema)
	}
	tr.profAgg.add(rep)
	return nil
}

// profileSum totals mtmprof/v1 reports phase by phase.
type profileSum struct {
	rounds, wallNS int64
	wall           map[string]int64
	busy           map[string][]int64 // per worker
	dispatch       map[string]bool    // resolved dispatch modes seen
}

func (p *profileSum) add(rep obs.ProfReport) {
	if p.wall == nil {
		p.wall, p.busy, p.dispatch = map[string]int64{}, map[string][]int64{}, map[string]bool{}
	}
	p.rounds += rep.Rounds
	p.wallNS += rep.WallNS
	if rep.Dispatch != "" {
		p.dispatch[rep.Dispatch] = true
	}
	for _, ph := range rep.Phases {
		p.wall[ph.Phase] += ph.WallNS
		b := p.busy[ph.Phase]
		for len(b) < len(ph.BusyNS) {
			b = append(b, 0)
		}
		for w, ns := range ph.BusyNS {
			b[w] += ns
		}
		p.busy[ph.Phase] = b
	}
}

// busyMax returns the largest per-worker busy time summed over phases.
func (p *profileSum) busyMax(phases ...string) int64 {
	var per []int64
	for _, ph := range phases {
		for w, ns := range p.busy[ph] {
			for len(per) <= w {
				per = append(per, 0)
			}
			per[w] += ns
		}
	}
	var max int64
	for _, ns := range per {
		if ns > max {
			max = ns
		}
	}
	return max
}

// imbalance is max/mean busy time over the workers that worked in phase.
func (p *profileSum) imbalance(phase string) float64 {
	var sum, max int64
	active := 0
	for _, ns := range p.busy[phase] {
		if ns > 0 {
			sum += ns
			active++
			if ns > max {
				max = ns
			}
		}
	}
	if active == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(active))
}

// profPhases are the phases of the mtmprof/v1 report, in report order.
var profPhases = []string{
	"active_scan", "advertise", "scan_advertise", "decide", "count", "merge", "scatter",
	"accept", "partner", "partner_exchange", "bucket_accept", "exchange", "end_round",
}

// phaseGroups partitions profPhases so that each fused dispatch shares a
// group with the phases whose busy time it self-times.
var phaseGroups = [][]string{
	{"scan_advertise", "active_scan", "advertise"}, {"decide"}, {"count"}, {"merge"},
	{"scatter"}, {"accept"}, {"partner_exchange", "partner", "exchange"}, {"bucket_accept"},
	{"end_round"},
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// perLayer records the traced run's per-layer metrics and prints how the
// layers account for the round time.
func perLayer(rec *recording, w workload, tr *tracer, t loopResult) {
	if _, ok := w.(*elections); ok {
		tr.profAgg.add(tr.prof.Report())
	}
	p := &tr.profAgg
	if p.rounds == 0 {
		fmt.Println("no profiled rounds; per-layer metrics not reported")
		return
	}
	perRound := func(ns int64) float64 { return float64(ns) / float64(p.rounds) / 1e3 }
	dispatch := make([]string, 0, len(p.dispatch))
	for d := range p.dispatch {
		dispatch = append(dispatch, d)
	}
	sort.Strings(dispatch)
	fmt.Printf("profile rounds %d dispatch %v\n", p.rounds, dispatch)

	roundUS := perRound(p.wallNS)
	rec.set("sim.round_us_mean", roundUS, "us", "profiler round wall")
	var phaseSum int64
	for _, ph := range profPhases {
		rec.set("sim.phase."+ph+".wall_us_per_round", perRound(p.wall[ph]), "us", "")
		rec.set("sim.phase."+ph+".busy_max_us_per_round", perRound(p.busyMax(ph)), "us", "")
	}
	for _, ns := range p.wall {
		phaseSum += ns
	}
	// A fused dispatch's wall time lands on the fused phase and its busy
	// time on its parts, so the gap is taken over each group as a whole.
	var gap int64
	for _, group := range phaseGroups {
		var wall int64
		for _, ph := range group {
			wall += p.wall[ph]
		}
		gap += wall - p.busyMax(group...)
	}
	rec.set("sim.dispatch_gap_us_per_round", perRound(gap), "us", "wall - busiest worker, summed over phases")
	unattributed := p.wallNS - phaseSum
	rec.set("sim.unattributed_us_per_round", perRound(unattributed), "us", "round wall - phase walls")
	rec.set("sim.imbalance.decide", p.imbalance("decide"), "ratio", "")
	rec.set("sim.imbalance.accept", p.imbalance("accept"), "ratio", "")

	if s, ok := w.(*sweep); ok {
		passes := float64(len(t.samples))
		for _, id := range sweepIDs {
			short, _, _ := strings.Cut(id, "-")
			rec.set("experiment."+short+"_s", s.perExperiment[id].Seconds()/passes, "s", "per pass")
		}
		fmt.Printf("accounting: round %.3f us = phases %.3f + unattributed %.3f (first trial of each experiment)\n",
			roundUS, perRound(phaseSum), perRound(unattributed))
		return
	}

	rec.set("graph.build_ms", meanNS(tr.graphNS)/1e6, "ms", "per network")
	rec.set("sim.new_ms", meanNS(tr.newNS)/1e6, "ms", "per election")
	rec.set("sim.round_us_p50", percentile(tr.roundUS, 50), "us", fmt.Sprintf("between Observer callbacks, n=%d", len(tr.roundUS)))
	rec.set("sim.accept_ratio", float64(tr.accepts)/float64(tr.proposals), "ratio", "accepts / proposals")
	rec.set("sim.busy_lost_ratio", float64(tr.busyLost)/float64(tr.proposals), "ratio", "busy-lost / proposals")
	rec.set("dyngraph.graph_at_us", float64(tr.schedNS)/float64(tr.schedN)/1e3, "us", fmt.Sprintf("mean of %d calls", tr.schedN))
	rec.set("dyngraph.round_share", float64(tr.schedNS)/float64(p.wallNS), "ratio", "GraphAt time / round wall")
	rec.set("dyngraph.rebuilds_per_round", float64(tr.rebuilds)/float64(p.rounds), "count", "")
	rec.set("dyngraph.allocs_per_rebuild", tr.rebuildMallocs, "count", "")
	var coreNS int64
	for algo := range tr.algos {
		a := &tr.algos[algo]
		if a.rounds == 0 {
			continue
		}
		prefix := "core." + mobiletel.Algorithm(algo).String() + "."
		var calls int64
		for m := 0; m < numMethods; m++ {
			calls += a.calls[m]
			coreNS += a.ns[m]
			mean := 0.0
			if a.calls[m] > 0 {
				mean = float64(a.ns[m]) / float64(a.calls[m])
			}
			rec.set(prefix+methodNames[m]+"_ns", mean, "ns", fmt.Sprintf("%d calls", a.calls[m]))
		}
		rounds := float64(a.rounds)
		rec.set(prefix+"calls_per_round", float64(calls)/rounds, "count", fmt.Sprintf("%d rounds", a.rounds))
		rec.set(prefix+"allocs_per_round", a.mallocs/rounds, "count", "Run allocations less graph rebuilds'")
		rec.set(prefix+"alloc_bytes_per_round", a.bytes/rounds, "B", "")
	}
	// The protocol runs inside the phases and GraphAt inside the round's
	// unattributed glue; what is left of each is the engine's own time.
	coreUS, graphUS := perRound(coreNS), perRound(tr.schedNS)
	obsUS := 0.0
	for _, us := range tr.roundUS {
		obsUS += us
	}
	obsUS /= float64(p.rounds)
	fmt.Printf("accounting per round (us): round %.3f = phases %.3f [core %.3f + engine %.3f] + unattributed %.3f [dyngraph %.3f + residual %.3f]\n",
		roundUS, perRound(phaseSum), coreUS, perRound(phaseSum)-coreUS, perRound(unattributed), graphUS, perRound(unattributed)-graphUS)
	fmt.Printf("accounting per round (us): between Observer callbacks %.3f = round %.3f + stop check and observer %.3f\n",
		obsUS, roundUS, obsUS-roundUS)
}

func meanNS(ns []int64) float64 {
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return float64(sum) / float64(len(ns))
}
