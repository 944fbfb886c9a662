// External test package, like allocs_test.go: core implements sim.Protocol,
// so importing it from an in-package test would be an import cycle.
package sim_test

import (
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
)

func mustInjector(t *testing.T, plan fault.Plan, n int) *fault.Injector {
	t.Helper()
	in, err := fault.NewInjector(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSteadyStateZeroAllocsFaultFree pins the stronger form of the fault
// layer's zero-cost contract: not just a nil Config.Faults (covered by
// TestSteadyStateZeroAllocs), but an *attached* injector whose rates are all
// zero must keep the steady-state round at exactly 0 allocs — every fault
// hook reduces to predictable branches and a per-round RNG reseed.
func TestSteadyStateZeroAllocsFaultFree(t *testing.T) {
	const n = 256
	// A scripted crash in round 1 keeps the down-mask path exercised (the
	// mask check runs every round for the rest of the run) without any
	// rate-driven churn.
	plan := fault.Plan{Seed: 7, Crashes: []fault.NodeRound{{Round: 1, Node: 0}}}
	eng, err := sim.New(
		dyngraph.NewStatic(gen.RandomRegular(n, 8, 1)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42)),
		sim.Config{Seed: 42, Workers: 1, Faults: mustInjector(t, plan, n)},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(1, 50)
	next := 51
	avg := testing.AllocsPerRun(200, func() {
		eng.RunRounds(next, 1)
		next++
	})
	if avg != 0 {
		t.Fatalf("fault-free steady-state round allocates: %v allocs/round, want 0", avg)
	}
}

// TestFaultDeterminismAcrossWorkers: with a fixed (seed, plan), the faulted
// execution is bit-identical at any worker count — per-node fault draws are
// node-addressed (pure functions of plan seed, kind, node, and round), so
// they run inside the parallel phase bodies without any draw-order coupling.
// The full repertoire sweep with traces lives in
// TestParallelRoundConformanceAcrossWorkers; this is the long-run version.
// The multi-worker run goes through sim.WithPool: n is under the pool's
// dispatch floor, where the production resolution would run inline.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	const n = 300
	plan := fault.Plan{
		Seed: 9, CrashRate: 0.01, RecoverRate: 0.3, ResetOnRecover: true,
		ProposalLoss: 0.1, ConnLoss: 0.05,
	}
	run := func(workers int) (sim.Result, []uint64) {
		eng, err := sim.New(
			dyngraph.NewStatic(gen.RandomRegular(n, 6, 3)),
			core.NewBlindGossipNetwork(core.UniqueUIDs(n, 5)),
			sim.WithPool(sim.Config{Seed: 5, Workers: workers, MaxRounds: 4000, Faults: mustInjector(t, plan, n)}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Run(sim.AllLeadersEqual)
		if err != nil {
			t.Fatal(err)
		}
		leaders := make([]uint64, n)
		for i, p := range eng.Protocols() {
			leaders[i] = p.Leader()
		}
		return res, leaders
	}
	res1, l1 := run(1)
	res4, l4 := run(4)
	if res1 != res4 {
		t.Errorf("results differ across workers: %+v vs %+v", res1, res4)
	}
	for i := range l1 {
		if l1[i] != l4[i] {
			t.Fatalf("node %d leader differs across workers: %d vs %d", i, l1[i], l4[i])
		}
	}
}

// TestFaultTraceDeterminism: two traced runs of the same (seed, plan)
// produce identical event streams, fault events included.
func TestFaultTraceDeterminism(t *testing.T) {
	const n = 32
	plan := fault.Plan{
		Seed: 21, CrashRate: 0.02, RecoverRate: 0.4, TagFlipRate: 0.05,
		ProposalLoss: 0.1,
		Corruptions:  []fault.Burst{{Round: 40, Nodes: []int{1, 5, 9}}},
	}
	record := func() []obs.Event {
		ring := obs.NewRing(1 << 18)
		protocols, _ := core.NewAsyncBitConvNetwork(
			core.UniqueUIDs(n, 11), core.BitConvParams{K: 8, GroupLen: 4}, 11)
		eng, err := sim.New(
			dyngraph.NewStatic(gen.RandomRegular(n, 6, 2)),
			protocols,
			sim.Config{Seed: 11, TagBits: core.TagBitsNeeded(core.BitConvParams{K: 8, GroupLen: 4}),
				Sink: ring, Faults: mustInjector(t, plan, n)},
		)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunRounds(1, 80)
		return ring.Events()
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i].Type == obs.TypeFault {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no fault events in a heavily faulted trace")
	}
}

// TestCrashedNodeInvisible: a down node leaves the active set and returns on
// recovery, composing with the activation machinery.
func TestCrashedNodeInvisible(t *testing.T) {
	const n = 4
	plan := fault.Plan{
		Crashes:    []fault.NodeRound{{Round: 2, Node: 1}},
		Recoveries: []fault.NodeRound{{Round: 4, Node: 1}},
	}
	var active []int
	eng, err := sim.New(
		dyngraph.NewStatic(gen.Clique(n)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 1)),
		sim.Config{Seed: 1, Workers: 1, Faults: mustInjector(t, plan, n),
			Observer: func(s sim.RoundStats) { active = append(active, s.ActiveNodes) }},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(1, 5)
	want := []int{4, 3, 3, 4, 4}
	for r, a := range active {
		if a != want[r] {
			t.Errorf("round %d active = %d, want %d (crash r2, recover r4)", r+1, a, want[r])
		}
	}
}

// TestProposalLossStarves: total loss means proposals are sent but no
// connection ever forms.
func TestProposalLossStarves(t *testing.T) {
	const n = 16
	var proposals, connections int
	eng, err := sim.New(
		dyngraph.NewStatic(gen.Clique(n)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 2)),
		sim.Config{Seed: 2, Workers: 1, MaxRounds: 20,
			Faults: mustInjector(t, fault.Plan{Seed: 3, ProposalLoss: 1}, n),
			Observer: func(s sim.RoundStats) {
				proposals += s.Proposals
				connections += s.Connections
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err == nil {
		t.Fatal("stabilized under total proposal loss")
	}
	if proposals == 0 {
		t.Fatal("no proposals sent")
	}
	if connections != 0 {
		t.Fatalf("%d connections formed under total proposal loss", connections)
	}
}

// TestConnLossStarves: total connection loss keeps accepts at zero while the
// accept-phase RNG draws still match the fault-free run's (the choice is
// made, then the connection fails).
func TestConnLossStarves(t *testing.T) {
	const n = 16
	var connections, accepts int
	eng, err := sim.New(
		dyngraph.NewStatic(gen.Clique(n)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 2)),
		sim.Config{Seed: 2, Workers: 1, MaxRounds: 20,
			Faults: mustInjector(t, fault.Plan{Seed: 3, ConnLoss: 1}, n),
			Observer: func(s sim.RoundStats) {
				connections += s.Connections
				accepts += s.Accepts
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err == nil {
		t.Fatal("stabilized under total connection loss")
	}
	if connections != 0 || accepts != 0 {
		t.Fatalf("connections=%d accepts=%d under total connection loss", connections, accepts)
	}
}

// TestCorruptionSelfStabilizes: blow away every node's state mid-run; the
// protocol re-converges to the same correct leader (Section VIII's claim,
// exercised at engine level; the R-series experiments measure the cost).
func TestCorruptionSelfStabilizes(t *testing.T) {
	const n = 24
	const burst = 30
	uids := core.UniqueUIDs(n, 77)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	plan := fault.Plan{Corruptions: []fault.Burst{{Round: burst, Nodes: all}}}
	eng, err := sim.New(
		dyngraph.NewStatic(gen.Clique(n)),
		core.NewBlindGossipNetwork(uids),
		sim.Config{Seed: 77, Workers: 1, MaxRounds: 5000, Faults: mustInjector(t, plan, n)},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Gate the stop past the burst, or the run "stabilizes" before the
	// adversary gets to act.
	stop := func(round int, protocols []sim.Protocol) bool {
		return round > burst && sim.AllLeadersEqual(round, protocols)
	}
	res, err := eng.Run(stop)
	if err != nil {
		t.Fatal(err)
	}
	if res.StabilizedRound <= burst {
		t.Fatalf("stabilized at %d, before the burst at %d", res.StabilizedRound, burst)
	}
	min := core.MinUID(uids)
	for i, p := range eng.Protocols() {
		if p.Leader() != min {
			t.Fatalf("node %d leader %d after recovery, want %d", i, p.Leader(), min)
		}
	}
}

// TestResetOnRecover: a node that recovers with amnesia restarts from its
// own UID (visible in the recover event's old/new leader payload).
func TestResetOnRecover(t *testing.T) {
	const n = 3
	uids := core.UniqueUIDs(n, 4)
	// Crash the node with the largest UID so its reset state (own UID) is
	// observably different from the learned minimum.
	victim, maxUID := 0, uids[0]
	for i, u := range uids {
		if u > maxUID {
			victim, maxUID = i, u
		}
	}
	plan := fault.Plan{
		ResetOnRecover: true,
		Crashes:        []fault.NodeRound{{Round: 20, Node: victim}},
		Recoveries:     []fault.NodeRound{{Round: 25, Node: victim}},
	}
	ring := obs.NewRing(1 << 16)
	eng, err := sim.New(
		dyngraph.NewStatic(gen.Clique(n)),
		core.NewBlindGossipNetwork(uids),
		sim.Config{Seed: 4, Sink: ring, Faults: mustInjector(t, plan, n)},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(1, 30)
	min := core.MinUID(uids)
	var sawCrash, sawRecover bool
	for _, e := range ring.Events() {
		if e.Type != obs.TypeFault {
			continue
		}
		switch e.Kind {
		case obs.KindCrash:
			if e.Round != 20 || e.Node != int32(victim) {
				t.Errorf("crash event = %+v", e)
			}
			sawCrash = true
		case obs.KindRecover:
			if e.Round != 25 || e.Node != int32(victim) {
				t.Errorf("recover event = %+v", e)
			}
			// By round 20 the clique has gossiped the minimum everywhere;
			// amnesia resets the victim back to its own UID.
			if e.A != min || e.B != maxUID {
				t.Errorf("recover leaders %d -> %d, want %d -> %d (reset)", e.A, e.B, min, maxUID)
			}
			sawRecover = true
		}
	}
	if !sawCrash || !sawRecover {
		t.Fatalf("missing fault events: crash=%v recover=%v", sawCrash, sawRecover)
	}
}

// TestInjectorSizeMismatch: an injector compiled for the wrong n is a
// configuration error, not a latent panic.
func TestInjectorSizeMismatch(t *testing.T) {
	in := mustInjector(t, fault.Plan{}, 8)
	_, err := sim.New(
		dyngraph.NewStatic(gen.Clique(4)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(4, 1)),
		sim.Config{Seed: 1, Faults: in},
	)
	if err == nil {
		t.Fatal("engine accepted a mis-sized fault injector")
	}
}
