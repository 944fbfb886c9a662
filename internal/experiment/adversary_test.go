package experiment

import (
	"runtime"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/sim"
)

func TestAdaptiveStarsStructure(t *testing.T) {
	n, points, tau := 32, 7, 3
	adv := newAdaptiveStars(n, points, tau)
	uids := core.UniqueUIDs(n, 1)
	params := core.DefaultBitConvParams(n, points+2)
	protocols, _ := core.NewBitConvNetwork(uids, params, 2)
	adv.SetSource(protocols)

	g := adv.GraphAt(1)
	if g.N() != n {
		t.Fatalf("n=%d", g.N())
	}
	if !g.Connected() {
		t.Fatal("adversary graph disconnected")
	}
	if g.MaxDegree() > points+2 {
		t.Fatalf("Δ=%d exceeds declared %d", g.MaxDegree(), points+2)
	}
	// Stars: exactly n/(points+1) centers with degree >= points.
	centers := 0
	for u := 0; u < n; u++ {
		if g.Degree(u) >= points {
			centers++
		}
	}
	if centers != n/(points+1) {
		t.Fatalf("found %d hub-degree nodes, want %d", centers, n/(points+1))
	}
}

func TestAdaptiveStarsRespectsTau(t *testing.T) {
	n, points, tau := 32, 7, 4
	adv := newAdaptiveStars(n, points, tau)
	uids := core.UniqueUIDs(n, 3)
	params := core.DefaultBitConvParams(n, points+2)
	protocols, _ := core.NewBitConvNetwork(uids, params, 4)
	adv.SetSource(protocols)
	if err := dyngraph.Validate(adv, 3*tau); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveStarsSortsFrontier(t *testing.T) {
	// The node with the globally smallest pair must be placed as the first
	// star's center (position 0 in the sorted layout) — i.e. its degree is
	// hub-sized and its line neighbor holds the next-smallest block.
	n, points := 24, 7
	adv := newAdaptiveStars(n, points, 1)
	uids := core.UniqueUIDs(n, 5)
	params := core.DefaultBitConvParams(n, points+2)
	protocols, tags := core.NewBitConvNetwork(uids, params, 6)
	adv.SetSource(protocols)
	g := adv.GraphAt(1)

	pairs := make([]core.IDPair, n)
	for i := range pairs {
		pairs[i] = core.IDPair{UID: uids[i], Tag: tags[i]}
	}
	minIdx := 0
	for i, p := range pairs {
		if p.Less(pairs[minIdx]) {
			minIdx = i
		}
	}
	if g.Degree(minIdx) < points {
		t.Fatalf("min-pair node %d has degree %d; expected to be a star center", minIdx, g.Degree(minIdx))
	}
}

func TestAdaptiveStarsRejectsBadParams(t *testing.T) {
	cases := []func(){
		func() { newAdaptiveStars(30, 7, 1) }, // 30 % 8 != 0
		func() { newAdaptiveStars(8, 7, 1) },  // single star
		func() { newAdaptiveStars(16, 7, 0) }, // tau < 1
		func() { newAdaptiveStars(16, 0, 1) }, // no leaves
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAdaptiveStarsNeedsSource(t *testing.T) {
	adv := newAdaptiveStars(16, 7, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("GraphAt before SetSource did not panic")
		}
	}()
	adv.GraphAt(1)
}

func TestAdaptiveStarsBlindGossipSource(t *testing.T) {
	n, points := 16, 7
	adv := newAdaptiveStars(n, points, 2)
	uids := core.UniqueUIDs(n, 9)
	protocols := core.NewBlindGossipNetwork(uids)
	adv.SetSource(protocols)
	if !adv.GraphAt(1).Connected() {
		t.Fatal("disconnected")
	}
	// End-to-end election against the adversary still elects the minimum.
	eng, err := sim.New(adv, protocols, sim.Config{Seed: 4, MaxRounds: 5_000_000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err != nil {
		t.Fatal(err)
	}
	if protocols[0].Leader() != core.MinUID(uids) {
		t.Fatal("wrong leader under adaptive adversary")
	}
}

// TestLookaheadAdaptiveStarsWorkers pins the schedule lookahead's opt-in
// from the adaptive side: adaptiveStars rebuilds each epoch from the
// protocols' current ID pairs, so building epoch r+1 while round r runs
// would read half-updated state. It is not declared oblivious, so an engine
// at Workers 2 on a host with a second P starts no lookahead helper, and
// its election — E7's adaptive point at τ=1 and τ=8 — equals Workers 1.
func TestLookaheadAdaptiveStarsWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n, points = 160, 15
	for _, tau := range []int{1, 8} {
		run := func(workers int) (sim.Result, uint64) {
			params := core.DefaultBitConvParams(n, points+2)
			protocols, _ := core.NewBitConvNetwork(core.UniqueUIDs(n, 4), params, 5)
			adv := newAdaptiveStars(n, points, tau)
			adv.SetSource(protocols)
			if dyngraph.Oblivious(adv) {
				t.Fatal("adaptiveStars reports itself oblivious")
			}
			before := runtime.NumGoroutine()
			eng, err := sim.New(adv, protocols, sim.Config{Seed: 6, TagBits: 1, Workers: workers, MaxRounds: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("Workers=%d: New started %d goroutines on an adaptive schedule", workers, after-before)
			}
			res, err := eng.Run(sim.AllLeadersEqual)
			if err != nil {
				t.Fatalf("τ=%d Workers=%d: %v", tau, workers, err)
			}
			h := uint64(14695981039346656037)
			for _, p := range protocols {
				h = (h ^ p.Leader()) * 1099511628211
			}
			return res, h
		}
		wantRes, wantDigest := run(1)
		if res, digest := run(2); res != wantRes || digest != wantDigest {
			t.Fatalf("τ=%d: Workers=2 gave (%+v, %#x), Workers=1 (%+v, %#x)", tau, res, digest, wantRes, wantDigest)
		}
	}
}
