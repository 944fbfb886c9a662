package experiment

import (
	"fmt"
	"sort"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/trace"
)

func init() {
	register(Experiment{
		ID: "E11-good-edge-probability",
		Claim: "Definition VI.2 / Theorem VI.1 key step: for any directed edge " +
			"(u,v), the probability that blind gossip connects u to v in a round " +
			"is at least the 'good edge' probability 1/(4·d(u)·d(v)) ≥ 1/(4Δ²). " +
			"Measured per-edge connection frequencies must clear that floor.",
		Run: runE11,
	})
}

// connCounter wraps blind gossip behavior and counts, for each directed
// neighbor pair (self, peer), how many rounds ended with a connection in
// which self was the proposer.
type connCounter struct {
	inner    *core.BlindGossip
	id       int32
	proposed int32 // neighbor proposed to this round, or -1
	counts   map[[2]int32]int
}

func (c *connCounter) Advertise(ctx *sim.Context) uint64 { return c.inner.Advertise(ctx) }

func (c *connCounter) Decide(ctx *sim.Context) (int32, bool) {
	target, propose := c.inner.Decide(ctx)
	if propose {
		c.proposed = target
	} else {
		c.proposed = -1
	}
	return target, propose
}

func (c *connCounter) Outgoing(ctx *sim.Context, peer int32) sim.Message {
	return c.inner.Outgoing(ctx, peer)
}

func (c *connCounter) Deliver(ctx *sim.Context, peer int32, msg sim.Message) {
	if c.proposed == peer {
		c.counts[[2]int32{c.id, peer}]++
	}
	c.inner.Deliver(ctx, peer, msg)
}

func (c *connCounter) EndRound(ctx *sim.Context) {
	c.proposed = -1
	c.inner.EndRound(ctx)
}

func (c *connCounter) Leader() uint64 { return c.inner.Leader() }

func runE11(cfg Config) (*trace.Table, error) {
	rounds := pick(cfg.Quick, 60_000, 250_000)

	families := []gen.Family{
		gen.Star(16),           // maximal asymmetry: hub degree 15, leaves 1
		gen.SqrtLineOfStars(5), // the lower-bound construction
		gen.RandomRegular(24, 4, cfg.Seed+9000),
		gen.Clique(12),
	}

	table := trace.NewTable("E11 good-edge probability floor (Definition VI.2)",
		"family", "n", "edges checked", "min measured/floor", "median measured/floor")

	for fi, f := range families {
		n := f.N()
		counts := make(map[[2]int32]int)
		protocols := make([]sim.Protocol, n)
		uids := core.UniqueUIDs(n, trialSeed(cfg.Seed, 9100+fi, 0))
		for i := range protocols {
			protocols[i] = &connCounter{
				inner:  core.NewBlindGossip(uids[i]),
				id:     int32(i),
				counts: counts,
			}
		}
		eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{
			Seed: trialSeed(cfg.Seed, 9200+fi, 0), MaxRounds: rounds, Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		// Run the full horizon: no stop condition, so Run reports a
		// not-stabilized error by design.
		if _, err := eng.Run(nil); err == nil {
			return nil, fmt.Errorf("E11: unexpected clean stop")
		}

		// Every directed edge must clear its floor 1/(4·d(u)·d(v)).
		minRatio, ratios := 1e18, make([]float64, 0, 2*f.Graph.M())
		f.Graph.Edges(func(u, v int) {
			for _, pair := range [][2]int{{u, v}, {v, u}} {
				floor := 1 / (4 * float64(f.Graph.Degree(pair[0])) * float64(f.Graph.Degree(pair[1])))
				measured := float64(counts[[2]int32{int32(pair[0]), int32(pair[1])}]) / float64(rounds)
				ratio := measured / floor
				ratios = append(ratios, ratio)
				if ratio < minRatio {
					minRatio = ratio
				}
			}
		})
		med := medianOf(ratios)
		table.AddRow(f.Name, n, len(ratios), minRatio, med)
		if minRatio < 0.85 { // the floor is exactly tight for hub→leaf edges; allow sampling noise
			return table, fmt.Errorf("E11: %s edge connection frequency %.3f of floor — bound violated",
				f.Name, minRatio)
		}
	}
	return table, nil
}

// medianOf returns the upper median of xs, leaving xs unchanged.
func medianOf(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}
