package sim_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// The tests in this file cover the schedule lookahead: an inline engine
// with Workers > 1 on a host with a second P builds the next epoch's graph
// on a helper goroutine while the current round runs. Their names carry
// "Workers" so the race-smoke target runs them under the race detector.

// twoPs raises GOMAXPROCS to 2 for the test when the host runs with one,
// so the engine's lookahead gate opens.
func twoPs(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// lookaheadSchedules are the oblivious schedules the lookahead must leave
// byte-identical, each built fresh per call: schedules carry per-epoch state.
// ahead says whether a Workers=2 engine looks ahead on it: only τ=1
// schedules qualify (the switch's τ is the smaller of its halves').
func lookaheadSchedules(f gen.Family) []struct {
	name  string
	ahead bool
	mk    func() dyngraph.Schedule
} {
	return []struct {
		name  string
		ahead bool
		mk    func() dyngraph.Schedule
	}{
		{"permuted-tau1", true, func() dyngraph.Schedule { return dyngraph.NewPermuted(f, 1, 17) }},
		{"permuted-tau5", false, func() dyngraph.Schedule { return dyngraph.NewPermuted(f, 5, 17) }},
		{"churn", true, func() dyngraph.Schedule { return dyngraph.NewChurn(f, 1, 16, 23) }},
		{"waypoint", true, func() dyngraph.Schedule { return dyngraph.NewWaypoint(f.N(), 0.2, 0.05, 1, 29) }},
		{"switch", true, func() dyngraph.Schedule {
			return dyngraph.NewSwitch(dyngraph.NewChurn(f, 3, 16, 31), dyngraph.NewPermuted(f, 1, 37), 40)
		}},
	}
}

// TestLookaheadWorkersByteIdentical pins the lookahead's contract: Workers
// stays a throughput knob. On every oblivious schedule, at n under the pool
// floor, Workers=2 (inline phases plus, at τ=1, the lookahead helper) must
// give the Workers=1 result, final protocol state and JSONL trace byte for
// byte.
func TestLookaheadWorkersByteIdentical(t *testing.T) {
	twoPs(t)
	f := gen.RandomRegular(200, 6, 3)
	for _, sc := range lookaheadSchedules(f) {
		for _, tc := range conformanceCases(f.N(), 6) {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				run := func(workers int) (sim.Result, uint64, []byte) {
					protocols := tc.build(f.N())
					var buf bytes.Buffer
					eng, err := sim.New(sc.mk(), protocols, sim.Config{
						Seed: 41, TagBits: tc.tagBits, Workers: workers,
						MaxRounds: 200_000, Sink: obs.NewJSONL(&buf),
					})
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					if got := sim.LooksAhead(eng); got != (workers > 1 && sc.ahead) {
						t.Fatalf("Workers=%d: LooksAhead = %v", workers, got)
					}
					res, err := eng.Run(tc.stop)
					if err != nil {
						t.Fatalf("Workers=%d: %v", workers, err)
					}
					return res, tc.digest(protocols), buf.Bytes()
				}
				wantRes, wantDigest, wantTrace := run(1)
				res, digest, trace := run(2)
				if res != wantRes || digest != wantDigest {
					t.Fatalf("Workers=2 diverged: (%+v, %#x) vs (%+v, %#x)", res, digest, wantRes, wantDigest)
				}
				if !bytes.Equal(trace, wantTrace) {
					t.Fatalf("Workers=2 trace diverged: %d vs %d bytes (first difference at byte %d)",
						len(trace), len(wantTrace), firstDiff(trace, wantTrace))
				}
			})
		}
	}
}

// roundClock is a schedule defined outside dyngraph, hence not oblivious:
// it records, for each GraphAt call, how many rounds the engine had
// finished (counted by the Observer) when the call came.
type roundClock struct {
	dyngraph.Schedule
	finished int
	calls    [][2]int // (round asked, rounds finished)
}

func (c *roundClock) GraphAt(r int) *graph.Graph {
	c.calls = append(c.calls, [2]int{r, c.finished})
	return c.Schedule.GraphAt(r)
}

// TestLookaheadWorkersForeignScheduleSynchronous pins the opt-in: a
// schedule dyngraph does not declare oblivious — it might read the
// protocols' state, like experiment's adaptiveStars — gets no helper at any
// worker count, and every GraphAt(r) comes after round r-1 has finished.
func TestLookaheadWorkersForeignScheduleSynchronous(t *testing.T) {
	twoPs(t)
	f := gen.RandomRegular(128, 6, 5)
	clock := &roundClock{Schedule: dyngraph.NewPermuted(f, 1, 7)}
	eng, err := sim.New(clock, core.NewBlindGossipNetwork(core.UniqueUIDs(f.N(), 3)), sim.Config{
		Seed: 2, Workers: 2, MaxRounds: 30, Observer: func(sim.RoundStats) { clock.finished++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if sim.LooksAhead(eng) {
		t.Fatal("a schedule defined outside dyngraph got a lookahead helper")
	}
	if _, err := eng.Run(nil); !errors.Is(err, sim.ErrNotStabilized) {
		t.Fatalf("Run without a stop condition: %v", err)
	}
	if len(clock.calls) != 30 {
		t.Fatalf("%d GraphAt calls for 30 rounds", len(clock.calls))
	}
	for i, c := range clock.calls {
		if c != [2]int{i + 1, i} {
			t.Fatalf("call %d asked round %d after %d finished rounds, want round %d after %d", i, c[0], c[1], i+1, i)
		}
	}
}

// TestLookaheadWorkersScheduleFreeAfterRun pins the join on the way out:
// Run and RunRounds return only once no lookahead request is in flight, so
// the caller may use the schedule at once (the race detector checks the
// hand-back), and what it reads is the schedule's own topology.
func TestLookaheadWorkersScheduleFreeAfterRun(t *testing.T) {
	twoPs(t)
	f := gen.RandomRegular(256, 8, 9)
	sched := dyngraph.NewPermuted(f, 1, 11)
	fresh := dyngraph.NewPermuted(f, 1, 11)
	eng, err := sim.New(sched, core.NewBlindGossipNetwork(core.UniqueUIDs(f.N(), 5)),
		sim.Config{Seed: 4, Workers: 2, MaxRounds: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !sim.LooksAhead(eng) {
		t.Fatal("Workers=2 inline engine on a permuted schedule has no lookahead")
	}
	res, err := eng.Run(sim.AllLeadersEqual)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{res.StabilizedRound + 1, 3, res.StabilizedRound} {
		if !sched.GraphAt(r).Equal(fresh.GraphAt(r)) {
			t.Fatalf("after Run: GraphAt(%d) differs from a fresh schedule's", r)
		}
	}
	eng.RunRounds(res.StabilizedRound+1, 25)
	r := res.StabilizedRound + 25
	if !sched.GraphAt(r).Equal(fresh.GraphAt(r)) {
		t.Fatalf("after RunRounds: GraphAt(%d) differs from a fresh schedule's", r)
	}
}

// waitGoroutines polls, collecting garbage, until at most want goroutines
// run, and reports whether that happened within a few seconds.
func waitGoroutines(want int) bool {
	for i := 0; i < 500; i++ {
		if runtime.NumGoroutine() <= want {
			return true
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// settledGoroutines collects garbage until the goroutine count holds
// still, so the finalizers of engines earlier tests dropped unclosed have
// stopped their workers, and returns the count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, i := 0, 0; still < 3 && i < 500; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestLookaheadWorkersGoroutinesReleased pins the helper's lifecycle: Close
// stops it, and so does the finalizer of an engine that is never closed.
func TestLookaheadWorkersGoroutinesReleased(t *testing.T) {
	twoPs(t)
	f := gen.RandomRegular(128, 6, 13)
	build := func() *sim.Engine {
		eng, err := sim.New(dyngraph.NewPermuted(f, 1, 15),
			core.NewBlindGossipNetwork(core.UniqueUIDs(f.N(), 7)), sim.Config{Seed: 6, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !sim.LooksAhead(eng) {
			t.Fatal("no lookahead helper")
		}
		eng.RunRounds(1, 20)
		return eng
	}
	base := settledGoroutines()
	eng := build()
	if runtime.NumGoroutine() <= base {
		t.Fatal("the lookahead helper is not running")
	}
	eng.Close()
	if !waitGoroutines(base) {
		t.Fatalf("after Close: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
	}
	func() { build() }() // dropped without Close
	if !waitGoroutines(base) {
		t.Fatalf("after the finalizer: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
	}
}

// TestLookaheadWorkersZeroAllocs pins the steady state: a τ=1 round whose
// next epoch is relabelled by a live lookahead allocates nothing, on either
// goroutine. testing.AllocsPerRun would drop GOMAXPROCS to 1, where the
// lookahead stands down for want of a spare P, so the test counts mallocs
// itself — averaged per RunRounds call with AllocsPerRun's integer
// division, which absorbs the runtime's own rare allocations — and checks
// that the requests really went to the helper.
func TestLookaheadWorkersZeroAllocs(t *testing.T) {
	twoPs(t)
	const n, calls, k = 512, 50, 8
	eng, err := sim.New(dyngraph.NewPermuted(gen.RandomRegular(n, 8, 1), 1, 2),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42)), sim.Config{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !sim.LooksAhead(eng) {
		t.Fatal("no lookahead helper")
	}
	eng.RunRounds(1, 50)
	next := 51
	requests := sim.LookaheadRequests(eng)
	runtime.GC() // run finalizers queued by earlier tests before counting
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		eng.RunRounds(next, k)
		next += k
	}
	runtime.ReadMemStats(&after)
	if got, want := sim.LookaheadRequests(eng)-requests, uint64(calls*(k-1)); got != want {
		t.Fatalf("%d lookahead requests in %d calls of %d rounds, want %d", got, calls, k, want)
	}
	if perCall := (after.Mallocs - before.Mallocs) / calls; perCall != 0 {
		t.Fatalf("lookahead steady state allocates: %d allocs per %d rounds, want 0", perCall, k)
	}
}

// TestLookaheadWorkersPanicReraised pins panic propagation: a GraphAt that
// panics on the helper goroutine panics out of Run on the caller's
// goroutine with the same value, as the synchronous engine does.
func TestLookaheadWorkersPanicReraised(t *testing.T) {
	twoPs(t)
	const seed, badEpoch = 19, 6
	type boom struct{ epoch int }
	bad := xrand.Mix3(seed, badEpoch, 0) // Regenerate's epoch-seed derivation
	for _, workers := range []int{1, 2} {
		sched := dyngraph.NewRegenerate("regular", 1, seed, func(s uint64) gen.Family {
			if s == bad {
				panic(boom{badEpoch})
			}
			return gen.RandomRegular(64, 4, s)
		})
		eng, err := sim.New(sched, core.NewBlindGossipNetwork(core.UniqueUIDs(64, 1)),
			sim.Config{Seed: 3, Workers: workers, MaxRounds: 50})
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.LooksAhead(eng); got != (workers > 1) {
			t.Fatalf("Workers=%d: LooksAhead = %v", workers, got)
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			_, _ = eng.Run(nil)
			return nil
		}()
		if got != (boom{badEpoch}) {
			t.Fatalf("Workers=%d: Run panicked with %v, want %v", workers, got, boom{badEpoch})
		}
		eng.Close()
	}
}

// TestLookaheadWorkersDropsUnrunRound pins what happens to the one request
// whose round never runs: GraphAt(r+1), made while round r runs, when the
// stop condition fires at r or round r panics. Here that call panics. The
// synchronous engine never makes it, so Workers=2 must return the same
// result without a panic, and a round's own panic must surface unchanged.
func TestLookaheadWorkersDropsUnrunRound(t *testing.T) {
	twoPs(t)
	const seed, last = 23, 10
	type boom struct{ round int }
	type roundPanic struct{}
	bad := xrand.Mix3(seed, last, 0) // round last+1's epoch seed under τ=1
	run := func(workers int, observer func(sim.RoundStats)) (res sim.Result, err error, v any) {
		sched := dyngraph.NewRegenerate("regular", 1, seed, func(s uint64) gen.Family {
			if s == bad {
				panic(boom{last + 1})
			}
			return gen.RandomRegular(64, 4, s)
		})
		eng, err := sim.New(sched, core.NewBlindGossipNetwork(core.UniqueUIDs(64, 2)),
			sim.Config{Seed: 5, Workers: workers, MaxRounds: 50, Observer: observer})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if got := sim.LooksAhead(eng); got != (workers > 1) {
			t.Fatalf("Workers=%d: LooksAhead = %v", workers, got)
		}
		defer func() { v = recover() }()
		res, err = eng.Run(func(r int, _ []sim.Protocol) bool { return r >= last })
		return res, err, nil
	}
	wantRes, wantErr, _ := run(1, nil)
	if wantErr != nil || wantRes.StabilizedRound != last {
		t.Fatalf("Workers=1: (%+v, %v), want a stop at round %d", wantRes, wantErr, last)
	}
	if res, err, v := run(2, nil); v != nil || err != nil || res != wantRes {
		t.Fatalf("Workers=2: (%+v, %v) and panic %v, want (%+v, <nil>) and none", res, err, v, wantRes)
	}
	rounds := 0
	panicAtLast := func(sim.RoundStats) {
		if rounds++; rounds == last {
			panic(roundPanic{})
		}
	}
	for _, workers := range []int{1, 2} {
		rounds = 0
		if _, _, v := run(workers, panicAtLast); v != (roundPanic{}) {
			t.Fatalf("Workers=%d: round %d's panic surfaced as %v, want %v", workers, last, v, roundPanic{})
		}
	}
}

// TestWorkersRunAfterClosePanics pins Close as terminal on every engine,
// also inline ones with no worker goroutines at all.
func TestWorkersRunAfterClosePanics(t *testing.T) {
	twoPs(t)
	f := gen.RandomRegular(64, 4, 1)
	const want = "sim: dispatch on a closed engine (Run/RunRounds after Close)"
	for _, workers := range []int{1, 2} {
		eng, err := sim.New(dyngraph.NewPermuted(f, 1, 2),
			core.NewBlindGossipNetwork(core.UniqueUIDs(f.N(), 1)), sim.Config{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		eng.RunRounds(1, 5)
		eng.Close()
		for _, c := range []struct {
			name string
			call func()
		}{
			{"Run", func() { _, _ = eng.Run(nil) }},
			{"RunRounds", func() { eng.RunRounds(6, 1) }},
		} {
			got := func() (v any) {
				defer func() { v = recover() }()
				c.call()
				return nil
			}()
			if got != want {
				t.Errorf("Workers=%d: %s after Close panicked with %v, want %q", workers, c.name, got, want)
			}
		}
	}
}

// TestLookaheadWorkersStandsDownWithoutSpareP pins the spare-P rule: with
// GOMAXPROCS=2 and another engine already inside Run, the P a helper would
// spin on is taken, so the lookahead makes no requests; alone, it makes one
// per round.
func TestLookaheadWorkersStandsDownWithoutSpareP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f := gen.RandomRegular(128, 6, 17)
	ahead, err := sim.New(dyngraph.NewPermuted(f, 1, 19),
		core.NewBlindGossipNetwork(core.UniqueUIDs(f.N(), 9)), sim.Config{Seed: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ahead.Close()
	requests := func(start int) uint64 {
		before := sim.LookaheadRequests(ahead)
		ahead.RunRounds(start, 10)
		return sim.LookaheadRequests(ahead) - before
	}
	if got := requests(1); got != 9 {
		t.Fatalf("alone: %d requests in 10 rounds, want 9", got)
	}
	var inside uint64
	other, err := sim.New(dyngraph.NewStatic(f), core.NewBlindGossipNetwork(core.UniqueUIDs(f.N(), 10)),
		sim.Config{Seed: 9, Workers: 1, MaxRounds: 1,
			Observer: func(sim.RoundStats) { inside = requests(11) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(nil); !errors.Is(err, sim.ErrNotStabilized) {
		t.Fatalf("one-round run: %v", err)
	}
	if inside != 0 {
		t.Fatalf("beside a running engine: %d requests in 10 rounds, want 0", inside)
	}
	if got := requests(21); got != 9 {
		t.Fatalf("alone again: %d requests in 10 rounds, want 9", got)
	}
}
