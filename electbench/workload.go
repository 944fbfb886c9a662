package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"mobiletel"
	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// outcome is what one op produced.
type outcome struct {
	// results are canonical result lines, folded into the run's digest.
	results []string
	// nodeRounds is Σ n·rounds over the op's elections (0 for sweep).
	nodeRounds int64
	// err marks a failed op: a budget or deadline overrun, or an error
	// returned by the program. Failed ops are counted, never retried.
	err error
	// wrong marks a result that fails its correctness check.
	wrong error
	// abandoned means the op is still running in the background and no
	// further op may start.
	abandoned bool
}

// workload runs ops on inputs built from the workload seed, either through
// the public entry points users call (op) or through the layers'
// constructors under a tracer (tracedOp).
type workload interface {
	// cycle is the number of distinct inputs ops rotate through; op i uses
	// input i mod cycle, and the digest covers one cycle.
	cycle() int
	// warmUp runs untimed work before the loop, so that the code, the heap
	// and the engine's worker pool are warm when timing starts.
	warmUp() error
	op(i int) outcome
	// traceSetup builds the traced run's inputs through the layers'
	// constructors. It must be called once before tracedOp.
	traceSetup(tr *tracer)
	tracedOp(i int, tr *tracer) outcome
}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "elect":
		return newElections(electSpec, seed), nil
	case "scale":
		return newElections(scaleSpec, seed), nil
	case "sweep":
		return newSweep(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want elect, scale or sweep)", name)
}

// electionSpec describes an election workload.
type electionSpec struct {
	algos []mobiletel.Algorithm
	// networks is the number of distinct seeded networks; instances
	// rotate through them.
	networks, instances int
	// maxRounds bounds every election, far above observed stabilization.
	maxRounds int
	// activationSpread staggers AsyncBitConv start rounds over
	// [1, spread] (the Section VIII setting); 0 starts all at round 1.
	activationSpread int
	// topology and schedule build the network through the facade;
	// family and tracedSchedule build the same network through the layers.
	topology       func(seed uint64) mobiletel.Topology
	schedule       func(t mobiletel.Topology, seed uint64) mobiletel.Schedule
	family         func(seed uint64) gen.Family
	tracedSchedule func(f gen.Family, seed uint64) dyngraph.Schedule
}

// electSpec: the paper's three algorithms on a random 8-regular n=512
// network relabelled every round (τ=1), the adversarial regime.
var electSpec = electionSpec{
	algos:            []mobiletel.Algorithm{mobiletel.BlindGossip, mobiletel.BitConv, mobiletel.AsyncBitConv},
	networks:         16,
	instances:        64,
	maxRounds:        20_000,
	activationSpread: 200,
	topology:         func(s uint64) mobiletel.Topology { return mobiletel.RandomRegular(512, 8, s) },
	schedule:         func(t mobiletel.Topology, s uint64) mobiletel.Schedule { return mobiletel.Permuted(t, 1, s) },
	family:           func(s uint64) gen.Family { return gen.RandomRegular(512, 8, s) },
	tracedSchedule:   func(f gen.Family, s uint64) dyngraph.Schedule { return dyngraph.NewPermuted(f, 1, s) },
}

// scaleSpec: blind gossip on the static 2^16-node degree-8 expander.
var scaleSpec = electionSpec{
	algos:          []mobiletel.Algorithm{mobiletel.BlindGossip},
	networks:       1,
	instances:      16,
	maxRounds:      5_000,
	topology:       func(uint64) mobiletel.Topology { return mobiletel.Expander(1<<16, 8, expanderSeed) },
	schedule:       func(t mobiletel.Topology, _ uint64) mobiletel.Schedule { return mobiletel.Static(t) },
	family:         func(uint64) gen.Family { return gen.Expander(1<<16, 8, expanderSeed) },
	tracedSchedule: func(f gen.Family, _ uint64) dyngraph.Schedule { return dyngraph.NewStatic(f) },
}

// expanderSeed fixes scale's topology to mtmbench's expander65536, the
// ROADMAP's whole-election target. Blind gossip needs 99 to 153 rounds
// depending on which expander the generator draws, but only ±4% across
// elections on one expander, so a seeded topology would make op_ms_p50
// measure the draw rather than the program. The workload seed still draws
// every election's UIDs and seed.
const expanderSeed = 20170529

// Seed streams: every input is a pure function of (workload seed, stream,
// index).
const (
	streamTopology = iota + 1
	streamSchedule
	streamElection
	streamUIDs
	streamActivations
	streamOrder
)

func mix(seed uint64, stream, index int) uint64 {
	return xrand.Mix3(seed, uint64(stream), uint64(index))
}

// election is one instance's per-election inputs, shared by all its
// algorithms.
type election struct {
	network int
	seed    uint64
	uids    []uint64
	acts    []int
	params  core.BitConvParams
	// want is the leader each algorithm must elect, indexed by
	// mobiletel.Algorithm.
	want [3]uint64
}

type elections struct {
	spec electionSpec
	seed uint64
	// workers is the engine's worker count; 0 leaves the default, as users
	// do.
	workers int
	insts   []election
	scheds  []mobiletel.Schedule
	// Traced inputs, built by traceSetup.
	tscheds []*timedSchedule
}

func newElections(spec electionSpec, seed uint64) *elections {
	w := &elections{spec: spec, seed: seed}
	n, maxDeg := 0, 0
	for k := 0; k < spec.networks; k++ {
		t := spec.topology(mix(seed, streamTopology, k))
		n, maxDeg = t.N(), t.MaxDegree()
		w.scheds = append(w.scheds, spec.schedule(t, mix(seed, streamSchedule, k)))
	}
	for j := 0; j < spec.instances; j++ {
		e := election{network: j % spec.networks, seed: mix(seed, streamElection, j),
			params: core.DefaultBitConvParams(n, maxDeg)}
		e.uids = distinctUIDs(n, mix(seed, streamUIDs, j))
		for _, algo := range spec.algos {
			_, tags, _ := network(algo, e.uids, e.params, e.seed)
			e.want[algo] = expectedLeader(e.uids, tags)
		}
		if spec.activationSpread > 0 {
			rng := xrand.New(mix(seed, streamActivations, j))
			e.acts = make([]int, n)
			for u := range e.acts {
				e.acts[u] = 1 + rng.Intn(spec.activationSpread)
			}
		}
		w.insts = append(w.insts, e)
	}
	return w
}

// distinctUIDs draws n distinct nonzero UIDs.
func distinctUIDs(n int, seed uint64) []uint64 {
	rng := xrand.New(seed)
	seen := make(map[uint64]bool, n)
	uids := make([]uint64, 0, n)
	for len(uids) < n {
		u := rng.Uint64()
		if u == 0 || seen[u] {
			continue
		}
		seen[u] = true
		uids = append(uids, u)
	}
	return uids
}

// expectedLeader returns the UID an election must stabilize to. Blind
// gossip (no tags) elects the minimum UID; bit convergence elects the UID of
// the minimum (tag, UID) pair, tags being the random ID prefixes of
// Section VII.
func expectedLeader(uids, tags []uint64) uint64 {
	best := 0
	for u := range uids {
		if tags == nil {
			if uids[u] < uids[best] {
				best = u
			}
			continue
		}
		if (core.IDPair{UID: uids[u], Tag: tags[u]}).Less(core.IDPair{UID: uids[best], Tag: tags[best]}) {
			best = u
		}
	}
	return uids[best]
}

// Protocol seed salts, as mobiletel.ElectLeader derives them from
// Options.Seed.
const (
	bitConvSalt      = 0xb17c0
	asyncBitConvSalt = 0xa57c0
)

// network builds one algorithm's protocols the way mobiletel.ElectLeader
// does, returning them with their tag assignment (nil for blind gossip) and
// advertisement width.
func network(algo mobiletel.Algorithm, uids []uint64, params core.BitConvParams, seed uint64) ([]sim.Protocol, []uint64, int) {
	switch algo {
	case mobiletel.BitConv:
		p, tags := core.NewBitConvNetwork(uids, params, seed^bitConvSalt)
		return p, tags, 1
	case mobiletel.AsyncBitConv:
		p, tags := core.NewAsyncBitConvNetwork(uids, params, seed^asyncBitConvSalt)
		return p, tags, core.TagBitsNeeded(params)
	default:
		return core.NewBlindGossipNetwork(uids), nil, 0
	}
}

func (w *elections) cycle() int { return len(w.insts) }

// warmUp runs the first op.
func (w *elections) warmUp() error {
	o := w.op(0)
	if o.wrong != nil {
		return o.wrong
	}
	return o.err
}

func (w *elections) options(e election, algo mobiletel.Algorithm) mobiletel.Options {
	opts := mobiletel.Options{Seed: e.seed, MaxRounds: w.spec.maxRounds, UIDs: e.uids, Workers: w.workers}
	if algo == mobiletel.AsyncBitConv {
		opts.Activations = e.acts
	}
	return opts
}

func (w *elections) op(i int) outcome {
	e := w.insts[i%len(w.insts)]
	sched := w.scheds[e.network]
	var out outcome
	for _, algo := range w.spec.algos {
		res, err := mobiletel.ElectLeader(sched, algo, w.options(e, algo))
		if !out.add(algo, e, res.Leader, res.Rounds, err) {
			break
		}
	}
	return out
}

// add folds one election's result into the op's outcome and reports
// whether the op may go on.
func (out *outcome) add(algo mobiletel.Algorithm, e election, leader uint64, rounds int, err error) bool {
	switch {
	case err != nil:
		out.err = fmt.Errorf("%v: %w", algo, err)
	case leader != e.want[algo]:
		out.wrong = fmt.Errorf("%v elected %#x, want %#x", algo, leader, e.want[algo])
	case rounds < 1:
		out.wrong = fmt.Errorf("%v stabilized at round %d", algo, rounds)
	default:
		out.results = append(out.results, fmt.Sprintf("%v leader=%#x rounds=%d", algo, leader, rounds))
		out.nodeRounds += int64(len(e.uids)) * int64(rounds)
		return true
	}
	return false
}

// sweepSeed is mtmexp's default seed: the configuration the paper's tables
// are regenerated at.
const sweepSeed = 20170529

// sweepIDs are the registered experiments whose full run takes under 0.6 s
// on a 2-CPU host, so that a run holds enough passes for a steady median.
// They cover the fault layer (R1-R4), rumor spreading (E3, E5), expansion
// and matching (E4) and the paper's asynchronous bit convergence (E8).
var sweepIDs = []string{
	"E1-blindgossip-scaling", "E2-blindgossip-lowerbound", "E3-pushpull-bound",
	"E4-lemma-v1-gamma", "E5-ppush-approx", "E8-async-bitconv", "A1-ablation-grouplen",
	"R1-leader-crash-reelection", "R2-corruption-recovery", "R3-message-loss-slowdown",
	"R4-partition-heal",
}

// sweepDeadline bounds one pass (about 2 s on a 2-CPU host). At the
// deadline the pass is interrupted; an experiment whose in-flight trials
// still run sweepGrace later is abandoned and the run ends.
const (
	sweepDeadline = 30 * time.Second
	sweepGrace    = 30 * time.Second
)

// sweep regenerates the paper's tables at the default experiment seed. The
// workload seed fixes the order of the experiments within a pass.
type sweep struct {
	order         []string
	deadline      time.Duration
	perExperiment map[string]time.Duration // traced run: time per experiment
}

func newSweep(seed uint64) *sweep {
	order := append([]string(nil), sweepIDs...)
	rng := xrand.New(mix(seed, streamOrder, 0))
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return &sweep{order: order, deadline: sweepDeadline, perExperiment: map[string]time.Duration{}}
}

func (s *sweep) cycle() int { return 1 }

// sweepWarmUp is the pass's shortest experiment (about 40 ms): a full pass
// takes too long to repeat in set-up.
const sweepWarmUp = "E4-lemma-v1-gamma"

func (s *sweep) warmUp() error {
	_, err := mobiletel.RunExperiment(sweepWarmUp, mobiletel.ExperimentOptions{Seed: sweepSeed})
	return err
}

func (s *sweep) op(int) outcome { return s.pass(nil) }

// pass runs every experiment once. With a tracer it also collects each
// experiment's first-trial phase profile and wall time.
func (s *sweep) pass(tr *tracer) outcome {
	interrupt := make(chan struct{})
	timer := time.AfterFunc(s.deadline, func() { close(interrupt) })
	defer timer.Stop()
	hard := time.Now().Add(s.deadline + sweepGrace)
	tables := make(map[string]string, len(s.order))
	var out outcome
	for _, id := range s.order {
		opts := mobiletel.ExperimentOptions{Seed: sweepSeed, Interrupt: interrupt}
		var prof bytes.Buffer
		if tr != nil {
			opts.PhaseProfTo = &prof
		}
		t0 := time.Now()
		table, done, err := runExperiment(id, opts, hard)
		if !done {
			out.err = fmt.Errorf("%s: still running %v after the pass deadline", id, sweepGrace)
			out.abandoned = true
			return out
		}
		if err != nil {
			out.err = fmt.Errorf("%s: %w", id, err)
			return out
		}
		if tr != nil {
			s.perExperiment[id] += time.Since(t0)
			if err := tr.addProfile(prof.Bytes()); err != nil {
				out.wrong = fmt.Errorf("%s: %w", id, err)
				return out
			}
		}
		if table == "" {
			out.wrong = fmt.Errorf("%s: empty table", id)
			return out
		}
		tables[id] = table
	}
	for _, id := range sweepIDs {
		out.results = append(out.results, id+"\n"+tables[id])
	}
	return out
}

// runExperiment runs one experiment, giving up waiting at hard. done is
// false when it was abandoned; its goroutine then ends with the process.
func runExperiment(id string, opts mobiletel.ExperimentOptions, hard time.Time) (table string, done bool, err error) {
	type result struct {
		table string
		err   error
	}
	ch := make(chan result, 1) // never blocks the experiment if abandoned
	go func() {
		t, err := mobiletel.RunExperiment(id, opts)
		ch <- result{t, err}
	}()
	wait := time.NewTimer(time.Until(hard))
	defer wait.Stop()
	select {
	case r := <-ch:
		if errors.Is(r.err, mobiletel.ErrInterrupted) {
			r.err = fmt.Errorf("pass deadline exceeded: %w", r.err)
		}
		return r.table, true, r.err
	case <-wait.C:
		return "", false, nil
	}
}
