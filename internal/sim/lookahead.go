package sim

import (
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
)

// lookahead builds the next round's topology on an inline engine's spare
// worker while the current round runs (see DESIGN §14, "Topology
// lookahead"). An engine without a pool but with Workers > 1 and a second P
// has nothing else for that worker to do, and on a τ=1 schedule the
// per-round GraphAt (Permuted's relabel) is a quarter of the round.
//
// It is a one-helper workerPool driven asynchronously: start publishes the
// request and returns, the engine runs its round, and take joins before the
// round that needs the graph. The pool's epoch barrier carries both edges —
// the request slots (fn, bounds) reach the helper through the epoch advance,
// and the result fields below reach the engine through the done counter —
// so this adds no second concurrency mechanism.
//
// Only τ=1 schedules whose GraphAt is a pure function of the round qualify
// (dyngraph.Oblivious): the helper makes exactly the GraphAt calls the
// engine would make, in the same order, only on another goroutine, and
// never while the engine itself touches the schedule. τ=1 is the regime the
// gain was measured in: a request arrives every round, so the helper's
// spinning always waits for work due within the round. The one extra call
// is the round after a Run's stop fires (or after a round panics): drop
// discards its graph and any panic from it, so Run returns or panics as
// the synchronous engine does.
//
// The spare P must really be spare: the engine makes requests only while
// the engines inside Run or RunRounds across the process leave one idle
// (busyPs). Otherwise the round builds its own graph, as without a
// lookahead, and the helper parks.
//
// Like the pool, the helper holds no engine reference: fetch is bound to
// the lookahead, which reaches only the schedule.
type lookahead struct {
	pool  *workerPool
	sched dyngraph.Schedule

	fetch  func(w, lo, hi int) // l.build, bound once so a request allocates nothing
	bounds []int               // [0, r, r]: the helper's chunk is lo = r

	// Result slots, written by the helper before its done signal and read
	// by the engine after join.
	g     *graph.Graph
	fault any // a panic recovered from GraphAt, re-raised by take, discarded by drop

	pending bool // a request is in flight (engine-side)
	on      bool // the helper is engaged: the pool's awake flag (engine-side copy)
}

func newLookahead(sched dyngraph.Schedule) *lookahead {
	l := &lookahead{pool: newWorkerPool(2), sched: sched, bounds: make([]int, 3)}
	l.fetch = l.build
	return l
}

// build is the helper's body: GraphAt(r) for the requested round r = lo.
func (l *lookahead) build(_, r, _ int) {
	defer l.catch()
	l.g = l.sched.GraphAt(r)
}

// catch records a panic from GraphAt so take can re-raise it on the engine
// goroutine, where callers such as runConformance recover it.
func (l *lookahead) catch() {
	if v := recover(); v != nil {
		l.fault = v
	}
}

// engage sets whether the helper yield-spins between requests (on) or
// parks, and returns on. The engine engages it while its Run or RunRounds
// call has a P to spare for it: requests come one round apart, longer than
// the pool's spin window, so a helper left to park would park and wake
// again every round.
//
//mtmlint:hotpath
func (l *lookahead) engage(on bool) bool {
	if on != l.on {
		l.on = on
		l.pool.awake.Store(on)
	}
	return on
}

// start asks the helper for GraphAt(r).
//
//mtmlint:hotpath
func (l *lookahead) start(r int) {
	l.bounds[1], l.bounds[2] = r, r
	l.pending = true
	l.pool.publish(0, l.fetch, l.bounds, nil, false)
}

// take joins the request in flight and returns its graph, re-raising a
// panic from GraphAt: the round it serves is running.
//
//mtmlint:hotpath
func (l *lookahead) take() *graph.Graph {
	l.pool.join()
	l.pending = false
	g, v := l.g, l.fault
	l.g, l.fault = nil, nil
	if v != nil {
		panic(v)
	}
	return g
}

// drop joins the request in flight and discards its result, a panic from
// GraphAt included: the round it would serve never runs.
func (l *lookahead) drop() {
	l.pool.join()
	l.pending = false
	l.g, l.fault = nil, nil
}
