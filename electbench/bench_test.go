package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobiletel"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
)

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{10, 0, false},
		{20, 50, true}, // p50 leaves 10 beyond, p75 only 5
		{99, 75, true}, // p90 leaves 9 beyond
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if supported(90, 99) || !supported(90, 100) {
		t.Error("p90 needs exactly 100 samples to leave 10 beyond it")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{0: 1, 10: 1, 50: 5, 90: 9, 100: 10} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// fakeProtocol records which sim.Protocol methods were called.
type fakeProtocol struct{ called map[string]int }

func (f *fakeProtocol) Advertise(*sim.Context) uint64 { f.called["Advertise"]++; return 7 }
func (f *fakeProtocol) Decide(*sim.Context) (int32, bool) {
	f.called["Decide"]++
	return 3, true
}
func (f *fakeProtocol) Outgoing(*sim.Context, int32) sim.Message {
	f.called["Outgoing"]++
	return sim.Message{Aux: 9}
}
func (f *fakeProtocol) Deliver(*sim.Context, int32, sim.Message) { f.called["Deliver"]++ }
func (f *fakeProtocol) EndRound(*sim.Context)                    { f.called["EndRound"]++ }
func (f *fakeProtocol) Leader() uint64                           { f.called["Leader"]++; return 11 }

// fakeSchedule records which dyngraph.Schedule methods were called.
type fakeSchedule struct {
	called map[string]int
	g      *graph.Graph
}

func (f *fakeSchedule) GraphAt(int) *graph.Graph { f.called["GraphAt"]++; return f.g }
func (f *fakeSchedule) Tau() int                 { f.called["Tau"]++; return 5 }
func (f *fakeSchedule) N() int                   { f.called["N"]++; return 6 }
func (f *fakeSchedule) MaxDegree() int           { f.called["MaxDegree"]++; return 2 }
func (f *fakeSchedule) Alpha() float64           { f.called["Alpha"]++; return 0.5 }
func (f *fakeSchedule) Name() string             { f.called["Name"]++; return "fake" }

// methodNamesOf lists the methods of the interface type *I.
func methodNamesOf(iface any) []string {
	t := reflect.TypeOf(iface).Elem()
	names := make([]string, t.NumMethod())
	for i := range names {
		names[i] = t.Method(i).Name
	}
	return names
}

func TestDecoratorsForwardEveryMethod(t *testing.T) {
	inner := &fakeProtocol{called: map[string]int{}}
	p := &timedProtocol{inner: inner}
	ctx := &sim.Context{}
	if p.Advertise(ctx) != 7 {
		t.Error("Advertise result not forwarded")
	}
	if target, propose := p.Decide(ctx); target != 3 || !propose {
		t.Error("Decide result not forwarded")
	}
	if p.Outgoing(ctx, 1).Aux != 9 {
		t.Error("Outgoing result not forwarded")
	}
	p.Deliver(ctx, 1, sim.Message{})
	p.EndRound(ctx)
	if p.Leader() != 11 {
		t.Error("Leader result not forwarded")
	}
	for _, m := range methodNamesOf((*sim.Protocol)(nil)) {
		if inner.called[m] != 1 {
			t.Errorf("sim.Protocol.%s forwarded %d times, want 1", m, inner.called[m])
		}
	}
	for m := 0; m < numMethods; m++ {
		if p.calls[m] != 1 {
			t.Errorf("%s counted %d calls, want 1", methodNames[m], p.calls[m])
		}
	}

	g := gen.Path(6).Graph
	sched := &fakeSchedule{called: map[string]int{}, g: g}
	s := &timedSchedule{inner: sched}
	if s.GraphAt(1) != g || s.Tau() != 5 || s.N() != 6 || s.MaxDegree() != 2 || s.Alpha() != 0.5 || s.Name() != "fake" {
		t.Error("schedule results not forwarded")
	}
	for _, m := range methodNamesOf((*dyngraph.Schedule)(nil)) {
		if sched.called[m] != 1 {
			t.Errorf("dyngraph.Schedule.%s forwarded %d times, want 1", m, sched.called[m])
		}
	}
	if s.calls != 1 || s.rebuilds != 1 {
		t.Errorf("GraphAt counted %d calls and %d rebuilds, want 1 and 1", s.calls, s.rebuilds)
	}
}

// testSpec is elect's configuration at a size above the engine's pool
// dispatch floor, so that Workers 2 runs the parallel core on the pool.
var testSpec = electionSpec{
	algos:            electSpec.algos,
	networks:         2,
	instances:        2,
	maxRounds:        20_000,
	activationSpread: 50,
	topology:         func(s uint64) mobiletel.Topology { return mobiletel.RandomRegular(1200, 6, s) },
	schedule:         electSpec.schedule,
	family:           func(s uint64) gen.Family { return gen.RandomRegular(1200, 6, s) },
	tracedSchedule:   electSpec.tracedSchedule,
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 elections at n=1200")
	}
	digests := map[int]string{}
	for _, workers := range []int{1, 2} {
		w := newElections(testSpec, 5)
		w.workers = workers
		plain := loop(w, 0, w.op)
		tr := newTracer()
		w.traceSetup(tr)
		traced := loop(w, 0, func(i int) outcome { return w.tracedOp(i, tr) })
		for name, r := range map[string]loopResult{"untraced": plain, "traced": traced} {
			if r.problem != "" || r.failed != 0 || r.attempted != testSpec.instances {
				t.Fatalf("workers %d %s: problem %q, %d of %d failed", workers, name, r.problem, r.failed, r.attempted)
			}
		}
		if traced.digest != plain.digest {
			t.Errorf("workers %d: traced digest %s, untraced %s", workers, traced.digest, plain.digest)
		}
		if rep := tr.prof.Report(); workers == 2 && rep.Dispatch != "pool" {
			t.Errorf("workers 2 dispatched %q, want the pool", rep.Dispatch)
		}
		digests[workers] = plain.digest
	}
	if digests[1] != digests[2] {
		t.Errorf("digest at workers 1 %s differs from workers 2 %s", digests[1], digests[2])
	}
}

func TestWrongLeaderIsIncorrect(t *testing.T) {
	w := newElections(testSpec, 5)
	w.insts[0].want[mobiletel.BlindGossip]++
	r := loop(w, 0, w.op)
	if !strings.Contains(r.problem, "blindgossip elected") {
		t.Errorf("problem %q, want a wrong blind gossip leader", r.problem)
	}
}

func TestBudgetOverrunCountsAsFailed(t *testing.T) {
	spec := testSpec
	spec.maxRounds = 2
	w := newElections(spec, 5)
	r := loop(w, 0, w.op)
	if r.problem != "" || r.attempted != spec.instances || r.failed != r.attempted || len(r.samples) != 0 {
		t.Errorf("elections over budget: problem %q, %d of %d failed, %d timed", r.problem, r.failed, r.attempted, len(r.samples))
	}

	s := newSweep(5)
	s.deadline = time.Nanosecond
	r = loop(s, 0, s.op)
	if r.problem != "" || r.attempted != 1 || r.failed != 1 {
		t.Errorf("sweep past its deadline: problem %q, %d of %d failed", r.problem, r.failed, r.attempted)
	}
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "op_ms_p50", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Better: "higher", Bound: 0.1},
	}}
	rec := func(h host, digest string, p50, ops float64) *recording {
		return &recording{Workload: "elect", Seed: 1, Host: h, Digest: digest, Metrics: map[string]metric{
			"op_ms_p50": {Value: p50}, "ops_per_s": {Value: ops}}}
	}
	here := host{CPUModel: "A", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1", GOOS: "linux", GOARCH: "amd64"}
	other := here
	other.NumCPU, other.GOMAXPROCS = 1, 1

	// Twice as slow on another host: named as a mismatch, not a regression.
	report, err := compare(rec(here, "d", 10, 100), rec(other, "d", 20, 50), spec)
	if err != nil || !strings.Contains(report, "host mismatch: nproc 2 vs 1; gomaxprocs 2 vs 1") {
		t.Errorf("other host: err %v, report %q", err, report)
	}
	// The same slowdown on the same host is a regression of both metrics.
	report, err = compare(rec(here, "d", 10, 100), rec(here, "d", 20, 50), spec)
	if !errors.Is(err, errRegression) || strings.Count(report, "REGRESSION") != 2 {
		t.Errorf("same host: err %v, report %q", err, report)
	}
	// Within the bound, and faster, is fine.
	if _, err := compare(rec(here, "d", 10, 100), rec(here, "d", 10.5, 120), spec); err != nil {
		t.Errorf("within bound: %v", err)
	}
	// Different results at the same seed fail on any host.
	if _, err := compare(rec(here, "d", 10, 100), rec(other, "e", 10, 100), spec); !errors.Is(err, errDigest) {
		t.Errorf("digest mismatch: err %v", err)
	}
}
