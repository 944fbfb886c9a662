package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
)

// probe wraps a random send/receive behavior and records every established
// connection so tests can check engine invariants.
type probe struct {
	id        int32
	mu        *sync.Mutex
	conns     *[][2]int32 // shared log of (self, peer) per delivery
	sentRound map[int]bool
	lastRound int
}

func newProbeNetwork(n int) ([]sim.Protocol, *sync.Mutex, *[][2]int32) {
	mu := &sync.Mutex{}
	log := &[][2]int32{}
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = &probe{id: int32(i), mu: mu, conns: log, sentRound: map[int]bool{}}
	}
	return protocols, mu, log
}

func (p *probe) Advertise(*sim.Context) uint64 { return 0 }

func (p *probe) Decide(ctx *sim.Context) (int32, bool) {
	p.lastRound = ctx.Round
	if ctx.RNG.Bool() {
		return 0, false
	}
	t, ok := ctx.RandomNeighbor()
	if !ok {
		return 0, false
	}
	p.sentRound[ctx.Round] = true
	return t, true
}

func (p *probe) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }

func (p *probe) Deliver(ctx *sim.Context, peer int32, _ sim.Message) {
	p.mu.Lock()
	*p.conns = append(*p.conns, [2]int32{p.id, peer})
	p.mu.Unlock()
}

func (p *probe) EndRound(*sim.Context) {}
func (p *probe) Leader() uint64        { return 0 }

func TestEngineInvariants(t *testing.T) {
	f := gen.RandomRegular(60, 4, 3)
	sched := dyngraph.NewPermuted(f, 1, 5)
	const rounds = 50

	for _, workers := range []int{1, 4} {
		protocols, mu, connLog := newProbeNetwork(60)
		var stats []sim.RoundStats
		eng, err := sim.New(sched, protocols, sim.Config{
			Seed:      7,
			TagBits:   0,
			Workers:   workers,
			MaxRounds: rounds,
			Observer:  func(s sim.RoundStats) { stats = append(stats, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run(nil)
		if !errors.Is(err, sim.ErrNotStabilized) {
			t.Fatalf("expected ErrNotStabilized sentinel, got %v", err)
		}

		mu.Lock()
		conns := append([][2]int32(nil), *connLog...)
		mu.Unlock()

		// Each delivery appears twice (once per endpoint); total deliveries
		// must equal 2 * sum of per-round connection counts.
		totalConns := 0
		for _, s := range stats {
			totalConns += s.Connections
			if s.ActiveNodes != 60 {
				t.Fatalf("round %d: active=%d", s.Round, s.ActiveNodes)
			}
			if s.Connections > s.Proposals {
				t.Fatalf("round %d: more connections (%d) than proposals (%d)", s.Round, s.Connections, s.Proposals)
			}
			if s.Connections > 30 {
				t.Fatalf("round %d: %d connections exceeds n/2", s.Round, s.Connections)
			}
		}
		if len(conns) != 2*totalConns {
			t.Fatalf("delivery log has %d entries, want %d", len(conns), 2*totalConns)
		}
		if totalConns == 0 {
			t.Fatal("no connections at all in 50 rounds (engine broken)")
		}
	}
}

func TestSendersNeverAccept(t *testing.T) {
	// In every round, a node that proposed must not also appear as a
	// receiver. We detect this by checking each node has at most one
	// delivery per round, and a sender's delivery partner must be the node
	// it proposed to (sender connected as proposer, not acceptor).
	n := 40
	f := gen.Clique(n)
	sched := dyngraph.NewStatic(f)
	protocols, mu, connLog := newProbeNetwork(n)
	eng, err := sim.New(sched, protocols, sim.Config{Seed: 3, MaxRounds: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nil); !errors.Is(err, sim.ErrNotStabilized) {
		t.Fatalf("unexpected err %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[int32]int{}
	for _, c := range *connLog {
		seen[c[0]]++
	}
	for node, count := range seen {
		if count > 1 {
			t.Fatalf("node %d participated in %d connections in one round", node, count)
		}
	}
}

// TestDeterminismAcrossWorkerCounts compares the inline engine against the
// pool. n=512 is under the pool's dispatch floor, so the 8-worker run goes
// through sim.WithPool to reach the pool on any host.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	f := gen.RandomRegular(512, 6, 9)
	run := func(workers int) (uint64, sim.Result) {
		sched := dyngraph.NewPermuted(f, 2, 11)
		uids := core.UniqueUIDs(512, 77)
		protocols := core.NewBlindGossipNetwork(uids)
		eng, err := sim.New(sched, protocols, sim.WithPool(sim.Config{
			Seed: 5, TagBits: 0, Workers: workers, MaxRounds: 200_000,
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Run(sim.AllLeadersEqual)
		if err != nil {
			t.Fatal(err)
		}
		return protocols[0].Leader(), res
	}
	l1, r1 := run(1)
	l8, r8 := run(8)
	if l1 != l8 || r1 != r8 {
		t.Fatalf("parallel execution diverged: (%d, %+v) vs (%d, %+v)", l1, r1, l8, r8)
	}
}

// TestRaceSmokeParallelElection extends the divergence check above into a
// race-detector smoke test: it runs a full election with every available
// worker (at least two) on the worker pool — forced through sim.WithPool,
// since n=600 is under the pool's dispatch floor — and asserts
// bit-identical results against the sequential engine. Under `go test
// -race` (see the Makefile's race target and CI) this exercises every
// parallel phase of a round.
func TestRaceSmokeParallelElection(t *testing.T) {
	f := gen.RandomRegular(600, 6, 21)
	run := func(workers int) (uint64, sim.Result) {
		sched := dyngraph.NewPermuted(f, 2, 13)
		uids := core.UniqueUIDs(600, 33)
		protocols := core.NewBlindGossipNetwork(uids)
		eng, err := sim.New(sched, protocols, sim.WithPool(sim.Config{
			Seed: 9, Workers: workers, MaxRounds: 100_000,
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Run(sim.AllLeadersEqual)
		if err != nil {
			t.Fatal(err)
		}
		return protocols[0].Leader(), res
	}
	wantLeader, wantRes := run(1)
	gotLeader, gotRes := run(max(2, runtime.GOMAXPROCS(0)))
	if gotLeader != wantLeader || gotRes != wantRes {
		t.Fatalf("Workers=max(2, GOMAXPROCS) diverged from Workers=1: (%#x, %+v) vs (%#x, %+v)",
			gotLeader, gotRes, wantLeader, wantRes)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	f := gen.Cycle(30)
	run := func(seed uint64) sim.Result {
		uids := core.UniqueUIDs(30, 1)
		eng, err := sim.New(dyngraph.NewStatic(f), core.NewBlindGossipNetwork(uids),
			sim.Config{Seed: seed, MaxRounds: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(sim.AllLeadersEqual)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := run(43)
	if a.StabilizedRound == c.StabilizedRound && a.Proposals == c.Proposals {
		t.Fatal("different seeds produced identical executions (suspicious)")
	}
}

func TestTagBudgetEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized tag did not panic")
		}
	}()
	protocols := []sim.Protocol{&badTagProto{}, &badTagProto{}}
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(2)), protocols, sim.Config{Seed: 1, TagBits: 1, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
}

type badTagProto struct{}

func (b *badTagProto) Advertise(*sim.Context) uint64            { return 2 } // needs 2 bits
func (b *badTagProto) Decide(*sim.Context) (int32, bool)        { return 0, false }
func (b *badTagProto) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (b *badTagProto) Deliver(*sim.Context, int32, sim.Message) {}
func (b *badTagProto) EndRound(*sim.Context)                    {}
func (b *badTagProto) Leader() uint64                           { return 0 }

func TestMessageBudgetEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized message did not panic")
		}
	}()
	protocols := []sim.Protocol{&chattyProto{}, &chattyProto{}}
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(2)), protocols,
		sim.Config{Seed: 4, MaxUIDs: 1, MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
}

// chattyProto always proposes to its first neighbor and sends 2 UIDs, one
// over TestMessageBudgetEnforced's MaxUIDs of 1.
type chattyProto struct{}

func (c *chattyProto) Advertise(*sim.Context) uint64 { return 0 }
func (c *chattyProto) Decide(ctx *sim.Context) (int32, bool) {
	// Node 0 proposes to 1; node 1 receives.
	if ctx.Node == 0 {
		return 1, true
	}
	return 0, false
}
func (c *chattyProto) Outgoing(*sim.Context, int32) sim.Message {
	return sim.Message{}.WithUID(1).WithUID(2)
}
func (c *chattyProto) Deliver(*sim.Context, int32, sim.Message) {}
func (c *chattyProto) EndRound(*sim.Context)                    {}
func (c *chattyProto) Leader() uint64                           { return 0 }

func TestProposalToNonNeighborPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-neighbor proposal did not panic")
		}
	}()
	protocols := []sim.Protocol{&rogueProto{}, &rogueProto{}, &rogueProto{}}
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(3)), protocols, sim.Config{Seed: 1, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
}

// rogueProto: node 0 proposes to node 2, which is not adjacent on path(3).
type rogueProto struct{}

func (p *rogueProto) Advertise(*sim.Context) uint64 { return 0 }
func (p *rogueProto) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Node == 0 {
		return 2, true
	}
	return 0, false
}
func (p *rogueProto) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *rogueProto) Deliver(*sim.Context, int32, sim.Message) {}
func (p *rogueProto) EndRound(*sim.Context)                    {}
func (p *rogueProto) Leader() uint64                           { return 0 }

func TestConfigValidation(t *testing.T) {
	f := gen.Path(3)
	protocols, _, _ := newProbeNetwork(3)

	if _, err := sim.New(dyngraph.NewStatic(f), protocols[:2], sim.Config{}); err == nil {
		t.Fatal("protocol count mismatch accepted")
	}
	if _, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{TagBits: 65}); err == nil {
		t.Fatal("TagBits=65 accepted")
	}
	if _, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{Activations: []int{1, 2}}); err == nil {
		t.Fatal("short activations accepted")
	}
	if _, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{Activations: []int{1, 0, 1}}); err == nil {
		t.Fatal("activation round 0 accepted")
	}
}

// TestMaxUIDsValidated pins the message budget's range: MaxUIDs can only
// tighten the MessageCap UIDs a Message carries. A negative budget would
// make every message over budget, and one above MessageCap could never be
// used, so New rejects both instead of failing at the first exchange.
func TestMaxUIDsValidated(t *testing.T) {
	f := gen.Path(3)
	protocols, _, _ := newProbeNetwork(3)
	for _, tc := range []struct {
		maxUIDs int
		ok      bool
	}{
		{-1, false},
		{0, true},
		{1, true},
		{sim.MessageCap, true},
		{sim.MessageCap + 1, false},
	} {
		_, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{MaxUIDs: tc.maxUIDs})
		if (err == nil) != tc.ok {
			t.Errorf("MaxUIDs=%d: err = %v, want ok=%v", tc.maxUIDs, err, tc.ok)
		}
	}
}

func TestInactiveNodesInvisible(t *testing.T) {
	// Node 2 activates at round 100; before that, node 1 must never see it
	// as a neighbor and never connect to it.
	n := 3
	uids := []uint64{30, 20, 10} // node 2 holds the minimum
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(n)), protocols, sim.Config{
		Seed:        9,
		MaxRounds:   99,
		Activations: []int{1, 1, 100},
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run 99 rounds: stop condition can't fire with node 2 inactive.
	_, err = eng.Run(sim.AllLeadersEqual)
	if !errors.Is(err, sim.ErrNotStabilized) {
		t.Fatalf("run with inactive min-holder should not stabilize: %v", err)
	}
	// Nodes 0 and 1 must have converged to 20, not 10: UID 10 was invisible.
	if protocols[0].Leader() != 20 || protocols[1].Leader() != 20 {
		t.Fatalf("leaders %d,%d; inactive node's UID leaked", protocols[0].Leader(), protocols[1].Leader())
	}
	if protocols[2].Leader() != 10 {
		t.Fatalf("inactive node changed state: leader=%d", protocols[2].Leader())
	}
}

func TestStopConditionWaitsForAllActive(t *testing.T) {
	// With equal UIDs impossible, but with staggered activation the stop
	// condition must not fire while some node is inactive even if the active
	// subset agrees.
	uids := []uint64{5, 7}
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(2)), protocols, sim.Config{
		Seed:        2,
		MaxRounds:   500,
		Activations: []int{1, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(sim.AllLeadersEqual)
	if err != nil {
		t.Fatal(err)
	}
	if res.StabilizedRound < 50 {
		t.Fatalf("stabilized at %d, before node 1 activated", res.StabilizedRound)
	}
}

func TestRandomNeighborMatchingUniform(t *testing.T) {
	// On a star with the center deciding, selection among leaves must be
	// uniform. We run many rounds and count who the center proposes to;
	// every leaf advertises the tag the center draws on.
	n := 9
	counts := make([]int, n)
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = &centerCounter{counts: counts}
	}
	eng, err := sim.New(dyngraph.NewStatic(gen.Star(n)), protocols,
		sim.Config{Seed: 12, MaxRounds: 8000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	for leaf := 1; leaf < n; leaf++ {
		if counts[leaf] < 800 || counts[leaf] > 1200 {
			t.Fatalf("leaf %d chosen %d/8000 times; not uniform: %v", leaf, counts[leaf], counts)
		}
	}
}

// centerCounter: node 0 (the star center) proposes to a random neighbor
// advertising tag 0 every round and tallies its choices.
type centerCounter struct{ counts []int }

func (p *centerCounter) Advertise(*sim.Context) uint64 { return 0 }
func (p *centerCounter) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Node != 0 {
		return 0, false
	}
	t, ok := ctx.RandomNeighborTagged(0)
	if !ok {
		return 0, false
	}
	p.counts[t]++
	return t, true
}
func (p *centerCounter) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *centerCounter) Deliver(*sim.Context, int32, sim.Message) {}
func (p *centerCounter) EndRound(*sim.Context)                    {}
func (p *centerCounter) Leader() uint64                           { return 0 }

// TestRandomNeighborTaggedUniformMixedLeaves draws over a star whose leaves
// mix matching tags, non-matching tags and leaves that never activate, so
// both draws run their activity-filtered (act != nil) scans. The tagged
// draw must be uniform over the active matching leaves and never pick a
// non-matching or inactive one; the untagged draw must be uniform over the
// active leaves. The center draws on tag 0, the tag the engine records for
// inactive nodes, so a missing activity check would show up as picks of
// leaves 4 and 9.
func TestRandomNeighborTaggedUniformMixedLeaves(t *testing.T) {
	const n, rounds = 13, 6000
	inactive := map[int]bool{4: true, 9: true}
	acts := make([]int, n)
	for u := range acts {
		acts[u] = 1
		if inactive[u] {
			acts[u] = rounds + 1
		}
	}
	tagged, untagged := make([]int, n), make([]int, n)
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = &mixedStarCenter{tagged: tagged, untagged: untagged}
	}
	eng, err := sim.New(dyngraph.NewStatic(gen.Star(n)), protocols,
		sim.Config{Seed: 13, TagBits: 1, MaxRounds: rounds, Activations: acts, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	var matching, active int
	for leaf := 1; leaf < n; leaf++ {
		if !inactive[leaf] {
			active++
			if leaf%2 == 1 {
				matching++
			}
		}
	}
	for leaf := 1; leaf < n; leaf++ {
		wantTagged, wantUntagged := 0, 0
		if !inactive[leaf] {
			wantUntagged = rounds / active
			if leaf%2 == 1 {
				wantTagged = rounds / matching
			}
		}
		for _, c := range []struct {
			name      string
			got, want int
		}{{"tagged", tagged[leaf], wantTagged}, {"untagged", untagged[leaf], wantUntagged}} {
			if c.got < c.want*4/5 || c.got > c.want*6/5 {
				t.Fatalf("%s draw chose leaf %d %d/%d times, want about %d: tagged %v, untagged %v",
					c.name, leaf, c.got, rounds, c.want, tagged, untagged)
			}
		}
	}
}

// mixedStarCenter: odd leaves advertise 0 and even leaves 1; the star
// center draws one tagged (tag 0) and one untagged neighbor every round,
// tallies both, and proposes to neither.
type mixedStarCenter struct{ tagged, untagged []int }

func (p *mixedStarCenter) Advertise(ctx *sim.Context) uint64 {
	return uint64(1 - ctx.Node%2)
}
func (p *mixedStarCenter) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Node != 0 {
		return 0, false
	}
	if v, ok := ctx.RandomNeighborTagged(0); ok {
		p.tagged[v]++
	}
	if v, ok := ctx.RandomNeighbor(); ok {
		p.untagged[v]++
	}
	return 0, false
}
func (p *mixedStarCenter) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *mixedStarCenter) Deliver(*sim.Context, int32, sim.Message) {}
func (p *mixedStarCenter) EndRound(*sim.Context)                    {}
func (p *mixedStarCenter) Leader() uint64                           { return 0 }

func TestAcceptUniformAmongProposers(t *testing.T) {
	// All leaves of a star propose to the center every round; the center
	// must accept each with roughly equal frequency.
	n := 6
	accepted := make([]int, n)
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = &leafPusher{accepted: accepted}
	}
	eng, err := sim.New(dyngraph.NewStatic(gen.Star(n)), protocols,
		sim.Config{Seed: 31, MaxRounds: 5000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	for leaf := 1; leaf < n; leaf++ {
		if accepted[leaf] < 800 || accepted[leaf] > 1200 {
			t.Fatalf("leaf %d accepted %d/5000 times; not uniform: %v", leaf, accepted[leaf], accepted)
		}
	}
}

// leafPusher: leaves always propose to the center (node 0); the center
// records which proposal was accepted via Deliver.
type leafPusher struct{ accepted []int }

func (p *leafPusher) Advertise(*sim.Context) uint64 { return 0 }
func (p *leafPusher) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Node == 0 {
		return 0, false
	}
	return 0, true // all leaves' only neighbor is the center
}
func (p *leafPusher) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *leafPusher) Deliver(ctx *sim.Context, peer int32, _ sim.Message) {
	if ctx.Node == 0 {
		p.accepted[peer]++
	}
}
func (p *leafPusher) EndRound(*sim.Context) {}
func (p *leafPusher) Leader() uint64        { return 0 }

func BenchmarkEngineRoundClique1000(b *testing.B) {
	uids := core.UniqueUIDs(1000, 1)
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.Clique(1000)), protocols,
		sim.Config{Seed: 1, MaxRounds: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunRounds(1, b.N)
}

func BenchmarkEngineRoundRegular10000(b *testing.B) {
	f := gen.RandomRegular(10000, 8, 1)
	uids := core.UniqueUIDs(10000, 1)
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(f), protocols,
		sim.Config{Seed: 1, MaxRounds: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunRounds(1, b.N)
}

func TestStableForDelaysFiring(t *testing.T) {
	// A condition true from round 5 on: StableFor(_, 3) fires at round 7.
	inner := func(round int, _ []sim.Protocol) bool { return round >= 5 }
	cond := sim.StableFor(inner, 3)
	fired := -1
	for r := 1; r <= 10; r++ {
		if cond(r, nil) {
			fired = r
			break
		}
	}
	if fired != 7 {
		t.Fatalf("fired at %d, want 7", fired)
	}
}

func TestStableForResetsOnFlicker(t *testing.T) {
	// True at rounds 2,3 then false at 4, then true from 5: a streak of 3
	// only completes at round 7.
	inner := func(round int, _ []sim.Protocol) bool { return round != 4 && round >= 2 }
	cond := sim.StableFor(inner, 3)
	fired := -1
	for r := 1; r <= 10; r++ {
		if cond(r, nil) {
			fired = r
			break
		}
	}
	if fired != 7 {
		t.Fatalf("fired at %d, want 7", fired)
	}
}

func TestStableForMatchesInstantDetectorOutcome(t *testing.T) {
	// For blind gossip, the StableFor detector must elect the same leader,
	// exactly k-1 rounds later than the instant detector.
	f := gen.Cycle(24)
	run := func(stop sim.StopCondition) (uint64, int) {
		uids := core.UniqueUIDs(24, 3)
		protocols := core.NewBlindGossipNetwork(uids)
		eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{Seed: 6, MaxRounds: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(stop)
		if err != nil {
			t.Fatal(err)
		}
		return protocols[0].Leader(), res.StabilizedRound
	}
	leaderA, roundA := run(sim.AllLeadersEqual)
	leaderB, roundB := run(sim.StableFor(sim.AllLeadersEqual, 10))
	if leaderA != leaderB {
		t.Fatal("detectors elected different leaders")
	}
	if roundB != roundA+9 {
		t.Fatalf("StableFor fired at %d, want %d", roundB, roundA+9)
	}
}

func TestStableForPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	sim.StableFor(sim.AllLeadersEqual, 0)
}

func BenchmarkEngineRoundParallelism(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f := gen.RandomRegular(50000, 8, 1)
			uids := core.UniqueUIDs(50000, 1)
			protocols := core.NewBlindGossipNetwork(uids)
			eng, err := sim.New(dyngraph.NewStatic(f), protocols,
				sim.Config{Seed: 1, MaxRounds: 1 << 30, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			eng.RunRounds(1, b.N)
		})
	}
}

func TestNodeLoadAccounting(t *testing.T) {
	// Total per-node load must equal twice the connection count, and on a
	// star the hub must carry far more load than any leaf.
	n := 32
	uids := core.UniqueUIDs(n, 2)
	protocols := core.NewBlindGossipNetwork(uids)
	var total int
	eng, err := sim.New(dyngraph.NewStatic(gen.Star(n)), protocols, sim.Config{
		Seed: 4, MaxRounds: 2000, Workers: 1,
		Observer: func(s sim.RoundStats) { total += s.Connections },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)

	load := eng.NodeLoad()
	var sum int64
	for _, c := range load {
		sum += c
	}
	if sum != int64(2*total) {
		t.Fatalf("load sum %d != 2×connections %d", sum, 2*total)
	}
	stats := eng.Load()
	if load[0] != stats.Max {
		t.Fatalf("star hub load %d is not the maximum %d", load[0], stats.Max)
	}
	if stats.Imbalance < 5 {
		t.Fatalf("star imbalance %.2f suspiciously even", stats.Imbalance)
	}
	if stats.Min > stats.Max || stats.Mean <= 0 {
		t.Fatalf("inconsistent stats %+v", stats)
	}
}

func TestNodeLoadEvenOnClique(t *testing.T) {
	n := 32
	uids := core.UniqueUIDs(n, 3)
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.Clique(n)), protocols, sim.Config{
		Seed: 5, MaxRounds: 4000, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	if imb := eng.Load().Imbalance; imb > 1.5 {
		t.Fatalf("clique imbalance %.2f; load should be near-even", imb)
	}
}

func TestLargeNetworkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-network smoke test skipped in -short mode")
	}
	// 100k devices, a few rounds: the engine must stay allocation-sane and
	// produce sensible connection counts at laptop scale.
	n := 100_000
	f := gen.RandomRegular(n, 6, 2)
	uids := core.UniqueUIDs(n, 3)
	protocols := core.NewBlindGossipNetwork(uids)
	var conns int
	eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{
		Seed: 1, MaxRounds: 5,
		Observer: func(s sim.RoundStats) { conns += s.Connections },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	// Expect a healthy fraction of n/2 possible connections per round.
	if conns < n/2 {
		t.Fatalf("only %d connections over 5 rounds at n=%d", conns, n)
	}
}
