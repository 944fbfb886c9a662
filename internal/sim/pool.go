package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mobiletel/internal/obs"
)

// workerPool is the persistent dispatch core behind parallelFor: workers-1
// long-lived goroutines created once (start), parked on an epoch barrier, so
// a phase dispatch is one atomic publish plus at most one Broadcast instead
// of `go func` × workers and a WaitGroup per phase. At paper-scale n (a few
// thousand nodes, thousands of rounds) the per-round dispatch cost is what
// decides whether parallelism pays at all — see DESIGN §14.
//
// The happens-before discipline is the epoch-publish idiom, which the
// happensbefore analyzer checks statically (and race-smoke dynamically):
//
//	dispatcher                         worker w
//	---------                          --------
//	fn, bounds, ph, prof = ...         e := await(last)   // acquire: epoch.Load
//	done.Store(0)                      read fn, bounds, ph, prof
//	epoch.Add(1)       // release      run fn(w, bounds[w], bounds[w+1])
//	run own chunk                      done.Add(1)        // release
//	spin until done == workers-1       last = e
//	fn, bounds = nil, nil  // un-pin
//
// Every plain field (fn, bounds, ph, prof, profOn) is written strictly
// before the epoch advance and read strictly after the worker observes the
// new epoch, so the atomic epoch carries the release/acquire edge; the done
// counter carries the reverse edge before the dispatcher clears the fields.
// Clearing fn/bounds after the join matters beyond hygiene: a parked pool
// must not pin its engine, or the engine finalizer that stops the pool could
// never fire.
//
// All spin loops call runtime.Gosched every iteration: the pool must stay
// live-lock free at GOMAXPROCS=1 (testing.AllocsPerRun pins exactly that),
// where a worker can only observe the epoch after the dispatcher yields.
type workerPool struct {
	// Dispatch slots, published by the epoch advance (see above).
	fn     func(w, lo, hi int)
	bounds []int
	ph     obs.Phase
	prof   *obs.Profiler
	profOn bool

	epoch atomic.Uint64
	done  atomic.Int64

	// awake, while set, keeps idle workers yield-spinning past poolSpin
	// instead of parking (see await). Only the schedule lookahead sets it
	// (see lookahead.engage).
	awake atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	parked int // workers blocked in cond.Wait, guarded by mu

	workers int // total worker indices including the dispatching caller (w=0)
}

// poolSpin is how many epoch checks a worker makes (yielding between each)
// before parking on the condition variable. Back-to-back phase dispatches —
// the steady state of a round — land within the spin window; the Cond is the
// fallback for idle engines and single-P hosts, where spinning is wasted.
const poolSpin = 64

// newWorkerPool creates and starts a pool driving workers-1 goroutines.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	for w := 1; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// dispatch runs fn over the chunks in bounds — fn(w, bounds[w], bounds[w+1])
// for every worker index — returning after all chunks complete. The caller
// runs chunk 0 inline. When prof is non-nil the dispatch records each
// worker's busy time under ph; fused phase bodies self-time their sweeps, so
// their dispatches pass selfTimed=true and only the caller records wall time
// (see parallelForFused). Zero allocations on every path: the dispatch slots
// are plain field stores and the barrier is two atomics plus a Broadcast.
//
//mtmlint:hotpath
func (p *workerPool) dispatch(ph obs.Phase, fn func(w, lo, hi int), bounds []int, prof *obs.Profiler, selfTimed bool) {
	p.publish(ph, fn, bounds, prof, selfTimed)
	if p.profOn {
		t0 := prof.Clock()
		fn(0, bounds[0], bounds[1])
		prof.AddBusy(ph, 0, prof.Clock()-t0)
	} else {
		fn(0, bounds[0], bounds[1])
	}
	p.join()
}

// publish fills the dispatch slots and advances the epoch, waking parked
// workers: the first half of a dispatch. The caller may run other work
// before join; the schedule lookahead runs a whole round there.
//
//mtmlint:hotpath
func (p *workerPool) publish(ph obs.Phase, fn func(w, lo, hi int), bounds []int, prof *obs.Profiler, selfTimed bool) {
	p.fn, p.bounds = fn, bounds
	p.ph, p.prof = ph, prof
	p.profOn = prof != nil && !selfTimed
	p.done.Store(0)
	p.epoch.Add(1)
	p.mu.Lock()
	if p.parked > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// join waits until every worker has finished the published epoch, then
// un-pins the dispatch slots: the second half of a dispatch.
//
//mtmlint:hotpath
func (p *workerPool) join() {
	for p.done.Load() < int64(p.workers-1) {
		runtime.Gosched()
	}
	p.fn, p.bounds = nil, nil
	p.prof = nil
}

// worker is the loop each pool goroutine runs: await the next epoch, read
// the published dispatch slots, run the chunk, signal done. A nil fn is the
// close signal.
func (p *workerPool) worker(w int) {
	last := uint64(0)
	for {
		last = p.await(last)
		fn := p.fn
		if fn == nil {
			p.done.Add(1)
			return
		}
		lo, hi := p.bounds[w], p.bounds[w+1]
		if p.profOn {
			prof, ph := p.prof, p.ph
			t0 := prof.Clock()
			fn(w, lo, hi)
			prof.AddBusy(ph, w, prof.Clock()-t0)
		} else {
			fn(w, lo, hi)
		}
		p.done.Add(1)
	}
}

// await blocks until the epoch moves past last and returns the new value:
// a yield-spin first (covering back-to-back dispatches), then a park on the
// condition variable. The spin is bounded by poolSpin unless awake is set,
// in which case it lasts until awake clears. The parked path re-checks the
// epoch under mu after registering in parked, and the dispatcher broadcasts
// under mu after advancing the epoch, so a wakeup can never be missed.
func (p *workerPool) await(last uint64) uint64 {
	for i := 0; i < poolSpin || p.awake.Load(); i++ {
		if e := p.epoch.Load(); e != last {
			return e
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	for {
		if e := p.epoch.Load(); e != last {
			p.mu.Unlock()
			return e
		}
		p.parked++
		p.cond.Wait()
		p.parked--
	}
}

// close publishes a nil fn — the workers' exit signal — and joins them. The
// pool cannot be restarted; Engine.Close calls it at most once (Close is
// terminal, and the finalizer path only runs when the engine is garbage).
func (p *workerPool) close() {
	p.publish(0, nil, nil, nil, false)
	p.join()
}
