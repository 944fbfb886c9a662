// External test package: core implements sim.Protocol, so importing it from
// an in-package test would be an import cycle.
package sim_test

import (
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
)

// TestSteadyStateZeroAllocs pins the engine's zero-allocation contract: once
// warm, a blind-gossip round on a static mesh with Workers=1 must not
// allocate at all. Any regression here (an escaping Context, a per-round
// closure, a message slice literal) shows up as a nonzero average. With no
// Config.Sink configured, every observability emission site must reduce to
// one predictable nil-check branch — this test is what holds the tracing
// layer to its zero-overhead-when-disabled invariant.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const n = 256
	eng, err := sim.New(
		dyngraph.NewStatic(gen.RandomRegular(n, 8, 1)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42)),
		sim.Config{Seed: 42, Workers: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: one-time growth (inboxTo high-water mark, lazy state).
	eng.RunRounds(1, 50)
	next := 51
	avg := testing.AllocsPerRun(200, func() {
		eng.RunRounds(next, 1)
		next++
	})
	if avg != 0 {
		t.Fatalf("steady-state round allocates: %v allocs/round, want 0", avg)
	}
}

// TestSteadyStateZeroAllocsTraced pins the stronger claim: even with
// tracing *enabled*, the emit path itself allocates nothing — events are
// flat values passed on the stack, and the ring sink overwrites in place
// once warm. Only a sink that itself allocates (e.g. JSONL encoding) adds
// allocations to a traced round.
func TestSteadyStateZeroAllocsTraced(t *testing.T) {
	const n = 256
	eng, err := sim.New(
		dyngraph.NewStatic(gen.RandomRegular(n, 8, 1)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42)),
		sim.Config{Seed: 42, Workers: 1, Sink: obs.NewRing(4096)},
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
		t.Fatalf("traced steady-state round allocates: %v allocs/round, want 0", avg)
	}
}

// TestSteadyStateZeroAllocsTracedParallel pins the parallel-emission claim:
// with Workers > 1 on the worker pool the emit path itself — per-worker
// buffer appends plus the chunk-order flush — must amortize to zero
// allocations per round once the buffers are warm. The pin is differential:
// a traced pool round may cost at most a fraction of an allocation per
// round more than an untraced pool round of the same configuration.
func TestSteadyStateZeroAllocsTracedParallel(t *testing.T) {
	const (
		n       = 512 // under the pool's dispatch floor, so forced through sim.WithPool
		workers = 4
	)
	run := func(sink obs.Sink) float64 {
		eng, err := sim.New(
			dyngraph.NewStatic(gen.RandomRegular(n, 8, 1)),
			core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42)),
			sim.WithPool(sim.Config{Seed: 42, Workers: workers, Sink: sink}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		// Warm up: one-time growth (inboxTo and worker-buffer high-water
		// marks, lazy state).
		eng.RunRounds(1, 50)
		next := 51
		return testing.AllocsPerRun(200, func() {
			eng.RunRounds(next, 1)
			next++
		})
	}
	untraced := run(nil)
	traced := run(obs.NewRing(1 << 13))
	if delta := traced - untraced; delta > 0.25 {
		t.Fatalf("traced parallel round allocates %v/round over untraced (%v vs %v), want amortized 0",
			delta, traced, untraced)
	}
}

// TestPaperProtocolsZeroAllocsTau1 extends the zero-allocation contract to
// all three of the paper's leader election algorithms and both of its
// rumor spreading strategies (Section V's PUSH-PULL and PPUSH) in its
// adversarial regime, τ=1: the topology is relabelled every round
// (dyngraph.Permuted), so a warm round covers the relabel into a recycled
// buffer, the protocol callbacks, the tagged neighbor draws and the
// value-typed message exchange. AsyncBitConv runs with staggered
// activations, so its rounds take the activity-filtered scans and draws.
// Each must be exactly 0 allocations per round at Workers=1.
func TestPaperProtocolsZeroAllocsTau1(t *testing.T) {
	const n = 256
	params := core.DefaultBitConvParams(n, 8)
	stagger := make([]int, n)
	for u := range stagger {
		stagger[u] = 1 + (u*37)%400 // some nodes still inactive past the window
	}
	for _, tc := range []struct {
		name        string
		tagBits     int
		activations []int
		build       func() []sim.Protocol
	}{
		{"blindgossip", 0, nil, func() []sim.Protocol {
			return core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42))
		}},
		{"bitconv", 1, nil, func() []sim.Protocol {
			p, _ := core.NewBitConvNetwork(core.UniqueUIDs(n, 43), params, 5)
			return p
		}},
		{"asyncbitconv", core.TagBitsNeeded(params), stagger, func() []sim.Protocol {
			p, _ := core.NewAsyncBitConvNetwork(core.UniqueUIDs(n, 44), params, 5)
			return p
		}},
		{"pushpull", 0, nil, func() []sim.Protocol {
			return rumor.NewPushPullNetwork(n, map[int]bool{0: true})
		}},
		{"ppush", 1, nil, func() []sim.Protocol {
			return rumor.NewPPushNetwork(n, map[int]bool{0: true})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := sim.New(
				dyngraph.NewPermuted(gen.RandomRegular(n, 8, 1), 1, 3),
				tc.build(),
				sim.Config{Seed: 42, TagBits: tc.tagBits, Activations: tc.activations, Workers: 1},
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
				t.Fatalf("τ=1 steady-state round allocates: %v allocs/round, want 0", avg)
			}
		})
	}
}
