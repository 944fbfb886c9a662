package experiment

import (
	"fmt"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
	"mobiletel/internal/xrand"
)

func init() {
	register(Experiment{
		ID: "E8-async-bitconv",
		Claim: "Theorem VIII.2: the non-synchronized bit convergence algorithm " +
			"(b = loglog n + O(1)) stabilizes within polylog factors of the " +
			"synchronized algorithm, measured from the last activation.",
		Run: runE8,
	})
	register(Experiment{
		ID: "E9-self-stabilization",
		Claim: "Section VIII: joining components that ran the non-synchronized " +
			"algorithm for arbitrary durations still stabilizes to one leader in " +
			"the usual time — post-merge rounds should not grow with pre-merge age.",
		Run: runE9,
	})
	register(Experiment{
		ID: "E10-churn-robustness",
		Claim: "All algorithms adapt to whatever stability they encounter (no " +
			"advance knowledge of τ): they stabilize correctly under adversarial " +
			"permutation, link churn, and random-waypoint mobility schedules.",
		Run: runE10,
	})
}

func runE8(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	n := pick(cfg.Quick, 48, 96)
	d := 8
	base := gen.RandomRegular(n, d, cfg.Seed+5000)
	params := core.DefaultBitConvParams(n, d)

	table := trace.NewTable("E8 synchronized vs non-synchronized bit convergence (Theorem VIII.2)",
		"variant", "b (bits)", "activation spread", "median rounds*", "p90", "vs sync median")

	// Spec 0 is the synchronized baseline; specs 1.. are the async variants
	// at increasing activation spreads. All share one pipelined pool.
	spreads := []int{0, 200, 2000}
	specs := make([]pointSpec, 0, 1+len(spreads))
	specs = append(specs, pointSpec{Trials: trials, Spec: trialSpec{
		Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
			seed := trialSeed(cfg.Seed, 800, trial)
			uids := core.UniqueUIDs(n, seed)
			protocols, _ := core.NewBitConvNetwork(uids, params, seed+1)
			return dyngraph.NewStatic(base), protocols,
				sim.Config{Seed: seed + 2, TagBits: 1, MaxRounds: 50_000_000}
		},
	}})
	for _, spread := range spreads {
		spread := spread
		specs = append(specs, pointSpec{Trials: trials, Spec: trialSpec{
			Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
				seed := trialSeed(cfg.Seed, 810+spread, trial)
				uids := core.UniqueUIDs(n, seed)
				protocols, _ := core.NewAsyncBitConvNetwork(uids, params, seed+1)
				cfgSim := sim.Config{
					Seed: seed + 2, TagBits: core.TagBitsNeeded(params), MaxRounds: 50_000_000,
				}
				if spread > 0 {
					rng := xrand.New(seed + 3)
					acts := make([]int, n)
					for i := range acts {
						acts[i] = 1 + rng.Intn(spread)
					}
					cfgSim.Activations = acts
				}
				return dyngraph.NewStatic(base), protocols, cfgSim
			},
		}})
	}
	allRounds, err := runPointTrials(cfg, specs)
	if err != nil {
		return nil, err
	}

	syncRounds := allRounds[0]
	syncMed := stats.IntSummary(syncRounds).Median
	table.AddRow("bitconv (sync)", 1, 0, syncMed, stats.IntSummary(syncRounds).P90, 1.0)

	// Rounds measured after the last activation (the Section VIII
	// convention): subtract the activation spread. StabilizedRound includes
	// the ramp-up, so report the adjusted value via the spread upper bound.
	for si, spread := range spreads {
		rounds := allRounds[1+si]
		adjusted := make([]int, len(rounds))
		for i, r := range rounds {
			adjusted[i] = r - spread
			if adjusted[i] < 0 {
				adjusted[i] = 0
			}
		}
		s := stats.IntSummary(adjusted)
		table.AddRow("asyncbitconv", core.TagBitsNeeded(params), spread, s.Median, s.P90, s.Median/syncMed)
	}
	return table, nil
}

// twoComponents builds a disconnected union of two random-regular halves.
func twoComponents(n, d int, seed uint64) gen.Family {
	half := n / 2
	a := gen.RandomRegular(half, d, seed)
	b := gen.RandomRegular(half, d, seed+1)
	bl := graph.NewBuilder(n)
	a.Graph.Edges(func(u, v int) { bl.AddEdge(u, v) })
	b.Graph.Edges(func(u, v int) { bl.AddEdge(half+u, half+v) })
	return gen.Family{Name: "two-components", Graph: bl.MustBuild()}
}

func runE9(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	n := pick(cfg.Quick, 48, 96)
	d := 6
	params := core.DefaultBitConvParams(n, d+1)

	table := trace.NewTable("E9 self-stabilization under component merges (Section VIII)",
		"pre-merge rounds", "median post-merge rounds", "p90", "correct leader")

	preMerges := []int{1, 500, 5000}
	specs := make([]pointSpec, len(preMerges))
	for pi, preMerge := range preMerges {
		preMerge := preMerge
		uidsBox := make([][]uint64, trials)
		tagsBox := make([][]uint64, trials)
		specs[pi] = pointSpec{Trials: trials, Spec: trialSpec{
			Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
				seed := trialSeed(cfg.Seed, 900+preMerge, trial)
				pre := twoComponents(n, d, seed+10)
				post := gen.RandomRegular(n, d, seed+11)
				sched := dyngraph.NewSwitch(dyngraph.NewStatic(pre), dyngraph.NewStatic(post), preMerge+1)

				uids := core.UniqueUIDs(n, seed)
				protocols, tags := core.NewAsyncBitConvNetwork(uids, params, seed+1)
				uidsBox[trial], tagsBox[trial] = uids, tags
				return sched, protocols, sim.Config{
					Seed: seed + 2, TagBits: core.TagBitsNeeded(params), MaxRounds: 50_000_000,
				}
			},
			Check: func(trial int, protocols []sim.Protocol) error {
				if err := checkMinPair(uidsBox[trial], tagsBox[trial], protocols); err != nil {
					return fmt.Errorf("pre-merge %d: %w", preMerge, err)
				}
				return nil
			},
		}}
	}
	allRounds, err := runPointTrials(cfg, specs)
	if err != nil {
		return nil, err
	}
	for pi, preMerge := range preMerges {
		postRounds := make([]float64, trials)
		for trial, r := range allRounds[pi] {
			postRounds[trial] = float64(max(r-preMerge, 0))
		}
		s := stats.Summarize(postRounds)
		table.AddRow(preMerge, s.Median, s.P90, "yes")
	}
	return table, nil
}

func runE10(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 10)
	n := pick(cfg.Quick, 40, 80)
	d := 6
	base := gen.RandomRegular(n, d, cfg.Seed+6000)

	type schedPoint struct {
		name string
		mk   func(seed uint64) dyngraph.Schedule
	}
	schedules := []schedPoint{
		{"static", func(seed uint64) dyngraph.Schedule { return dyngraph.NewStatic(base) }},
		{"permuted τ=4", func(seed uint64) dyngraph.Schedule { return dyngraph.NewPermuted(base, 4, seed) }},
		{"churn τ=4", func(seed uint64) dyngraph.Schedule { return dyngraph.NewChurn(base, 4, n/4, seed) }},
		{"waypoint τ=4", func(seed uint64) dyngraph.Schedule {
			return dyngraph.NewWaypoint(n, 0.35, 0.05, 4, seed)
		}},
	}

	// build returns the network and its tags (nil for a tagless protocol);
	// check validates a converged network against them.
	type algoPoint struct {
		name    string
		tagBits func() int
		build   func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64)
		check   func(uids, tags []uint64, protocols []sim.Protocol) error
	}
	params := core.DefaultBitConvParams(n, n-1) // waypoint Δ can be large; be generous
	algos := []algoPoint{
		{
			name:    "blindgossip",
			tagBits: func() int { return 0 },
			build: func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64) {
				return core.NewBlindGossipNetwork(uids), nil
			},
			check: func(uids, _ []uint64, protocols []sim.Protocol) error {
				if protocols[0].Leader() != core.MinUID(uids) {
					return fmt.Errorf("wrong leader")
				}
				return nil
			},
		},
		{
			name:    "bitconv",
			tagBits: func() int { return 1 },
			build: func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64) {
				return core.NewBitConvNetwork(uids, params, seed)
			},
			check: checkMinPair,
		},
		{
			name:    "asyncbitconv",
			tagBits: func() int { return core.TagBitsNeeded(params) },
			build: func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64) {
				return core.NewAsyncBitConvNetwork(uids, params, seed)
			},
			check: checkMinPair,
		},
	}

	table := trace.NewTable("E10 robustness across dynamic schedules (τ-adaptivity)",
		"schedule", "algorithm", "median rounds", "p90", "all correct")

	var specs []pointSpec
	for si, sp := range schedules {
		for ai, ap := range algos {
			si, ai, sp, ap := si, ai, sp, ap
			// Per-trial boxes: trials of one point run concurrently.
			uidsBox := make([][]uint64, trials)
			tagsBox := make([][]uint64, trials)
			specs = append(specs, pointSpec{Trials: trials, Spec: trialSpec{
				Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
					seed := trialSeed(cfg.Seed, 1000+si*10+ai, trial)
					uids := core.UniqueUIDs(n, seed)
					protocols, tags := ap.build(uids, seed+1)
					uidsBox[trial], tagsBox[trial] = uids, tags
					return sp.mk(seed + 2), protocols, sim.Config{
						Seed: seed + 3, TagBits: ap.tagBits(), MaxRounds: 50_000_000,
					}
				},
				Check: func(trial int, protocols []sim.Protocol) error {
					if err := ap.check(uidsBox[trial], tagsBox[trial], protocols); err != nil {
						return fmt.Errorf("%s/%s trial %d: %w", sp.name, ap.name, trial, err)
					}
					return nil
				},
			}})
		}
	}
	allRounds, err := runPointTrials(cfg, specs)
	if err != nil {
		return nil, err
	}
	for si, sp := range schedules {
		for ai, ap := range algos {
			s := stats.IntSummary(allRounds[si*len(algos)+ai])
			table.AddRow(sp.name, ap.name, s.Median, s.P90, "yes")
		}
	}
	return table, nil
}
