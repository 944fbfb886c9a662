// Package experiment is the reproduction harness: every theorem and
// construction in the paper is turned into a registered, regenerable
// experiment that prints a table (the paper has no empirical tables or
// figures of its own — it is a theory paper — so the experiment IDs index
// its theorems; see DESIGN.md §4 and EXPERIMENTS.md).
//
// Run experiments via `go run ./cmd/mtmexp -run <ID>` or the corresponding
// benchmarks in bench_test.go. Each experiment supports a Quick mode with
// reduced scales for CI.
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
	"mobiletel/internal/trace"
	"mobiletel/internal/xrand"
)

// Config parameterizes an experiment run.
//
// Sink, Profiler, Checkpoint and Interrupt act through runPointTrials, the
// shared parallel trial runner. Three experiments bypass it and ignore all
// four: E4 draws every trial from one shared RNG stream, so its trials are
// not independent tasks; A2 treats hitting its round cap as an expected
// outcome, which the runner would report as a failed trial; and E11 runs
// one long horizon per family rather than a batch of trials.
type Config struct {
	// Seed drives all randomness; every experiment is deterministic in it.
	Seed uint64
	// Trials is the number of independent repetitions per data point.
	// Zero selects each experiment's default.
	Trials int
	// Quick reduces problem sizes for fast CI runs.
	Quick bool
	// Progress, when non-nil, receives throttled live progress lines while
	// a trial batch runs: trials and points completed, elapsed wall time,
	// and an ETA. It is written from worker goroutines under a mutex, so
	// any io.Writer is safe. Results are unaffected.
	Progress io.Writer
	// Now supplies the wall clock for Progress elapsed/ETA figures. This
	// package never reads the clock itself (results must be reproducible),
	// so callers wanting timed progress pass time.Now; when nil, progress
	// lines carry counts only.
	Now func() time.Time
	// Sink, when non-nil, receives the structured event trace of the
	// batch's first trial (point 0, trial 0); all other trials run
	// untraced so the batch keeps its parallel throughput. Experiments
	// that bypass runPointTrials (E4, A2, E11) ignore it.
	Sink obs.Sink
	// Profiler, when non-nil, attaches the phase-timing profiler to the same
	// first trial Sink observes (point 0, trial 0); the caller renders its
	// mtmprof/v1 report after the run. Progress lines additionally carry the
	// hottest phases once the profiled trial has finished. Like Now, the
	// profiler's clock is injected by the caller — this package still never
	// reads wall time itself. Experiments that bypass runPointTrials (E4,
	// A2, E11) ignore it.
	Profiler *obs.Profiler
	// Checkpoint, when non-nil, makes the sweep crash-safe: every completed
	// trial is recorded as it finishes and already-recorded trials are
	// replayed instead of re-simulated, so a killed run resumed with the
	// same checkpoint produces a bit-identical table. Experiments that
	// bypass runPointTrials (E4, A2, E11) ignore it: they re-run from
	// scratch.
	Checkpoint *Checkpoint
	// Interrupt, when non-nil, requests a graceful abort when closed:
	// the feeder stops handing out new trials, in-flight trials drain (and
	// are still checkpointed), and the run returns ErrInterrupted.
	// Experiments that bypass runPointTrials (E4, A2, E11) ignore it.
	Interrupt <-chan struct{}
}

// Experiment is one registered reproduction target.
type Experiment struct {
	// ID is the stable identifier used by the CLI and benchmarks (e.g.
	// "E1-blindgossip-scaling").
	ID string
	// Claim cites what in the paper this experiment validates.
	Claim string
	// Run executes the experiment and returns its result table.
	Run func(cfg Config) (*trace.Table, error)
}

var (
	registryMu sync.Mutex
	registry   []Experiment
)

// register adds an experiment at package init time.
func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	for _, old := range registry {
		if old.ID == e.ID {
			panic("experiment: duplicate ID " + e.ID)
		}
	}
	registry = append(registry, e)
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// trialSpec describes one simulation trial for the parallel runner.
type trialSpec struct {
	// Build creates the schedule, protocols, and engine config for the
	// trial. Called once, in the trial's own goroutine.
	Build func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config)
	// Stop is the stop condition (defaults to sim.AllLeadersEqual).
	Stop sim.StopCondition
	// MakeStop, if non-nil, builds a per-trial stop condition and overrides
	// Stop. It is called after Build, in the trial's goroutine, with the
	// trial's engine config — so fault experiments can close over the
	// trial's injector (e.g. "all *up* nodes agree").
	MakeStop func(trial int, simCfg sim.Config) sim.StopCondition
	// Check, if non-nil, validates the converged state (e.g. elected leader
	// equals the true minimum); failures become errors.
	Check func(trial int, protocols []sim.Protocol) error
	// Value, if non-nil, is what the trial reports in place of its
	// stabilization round — e.g. a count read off the protocols at a fixed
	// horizon. It runs after Check; an error fails the trial.
	Value func(trial int, res sim.Result, protocols []sim.Protocol) (int, error)
}

// pointSpec bundles one data point's batch of trials for runPointTrials.
type pointSpec struct {
	Trials int
	Spec   trialSpec
}

// runPointTrials executes every (point, trial) task through one shared
// worker pool and returns the stabilization rounds (or, for specs with a
// Value, the reported values) indexed [point][trial].
//
// Feeding all points into a single pipelined pool — instead of running a
// per-point pool with a barrier between points — means a slow straggler
// trial of point p no longer idles the other workers: they immediately pick
// up trials of point p+1. Results are written to distinct (point, trial)
// cells and rows are emitted by the caller after the pool drains, so table
// output is bit-identical to the per-point version; seeds are derived per
// (point, trial) and never depend on execution order.
//
// The first error in (point, trial) order aborts the batch.
//
// When cfg.Sink is non-nil, the batch's first trial (point 0, trial 0)
// runs with the sink attached; when cfg.Progress is non-nil, throttled
// progress lines are written as trials complete. Neither affects results.
func runPointTrials(cfg Config, points []pointSpec) ([][]int, error) {
	total := 0
	rounds := make([][]int, len(points))
	errs := make([][]error, len(points))
	for p := range points {
		if points[p].Spec.Stop == nil {
			points[p].Spec.Stop = sim.AllLeadersEqual
		}
		rounds[p] = make([]int, points[p].Trials)
		errs[p] = make([]error, points[p].Trials)
		total += points[p].Trials
	}
	// The batch ordinal must advance even for empty batches so a resumed
	// process hands out the same ordinals to the same runPointTrials calls.
	batch := -1
	if cfg.Checkpoint != nil {
		batch = cfg.Checkpoint.NextBatch()
	}
	if total == 0 {
		return rounds, nil
	}

	progress := newProgress(cfg.Progress, cfg.Now, cfg.Profiler, total, points)

	type task struct{ point, trial int }
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	var wg sync.WaitGroup
	next := make(chan task)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				spec := &points[t.point].Spec
				if cfg.Checkpoint != nil {
					// Replay a recorded cell instead of re-simulating. The
					// result is identical because the trial's seed depends
					// only on (cfg.Seed, point, trial); Check already passed
					// before the cell was recorded. A replayed (0,0) trial
					// does not re-emit its trace, so a resumed -trace sink
					// stays empty.
					if r, ok := cfg.Checkpoint.Lookup(batch, t.point, t.trial); ok {
						rounds[t.point][t.trial] = r
						progress.done(t.point)
						continue
					}
				}
				sched, protocols, simCfg := spec.Build(t.trial)
				// Inner engine steps stay sequential: parallelism lives at
				// the (point, trial) level here.
				simCfg.Workers = 1
				if t.point == 0 && t.trial == 0 {
					if cfg.Sink != nil {
						simCfg.Sink = cfg.Sink
					}
					if cfg.Profiler != nil {
						simCfg.Profiler = cfg.Profiler
					}
				}
				stop := spec.Stop
				if spec.MakeStop != nil {
					stop = spec.MakeStop(t.trial, simCfg)
				}
				eng, err := sim.New(sched, protocols, simCfg)
				if err != nil {
					errs[t.point][t.trial] = err
					progress.done(t.point)
					continue
				}
				res, err := eng.Run(stop)
				if err != nil {
					errs[t.point][t.trial] = err
					progress.done(t.point)
					continue
				}
				value := res.StabilizedRound
				if spec.Check != nil {
					errs[t.point][t.trial] = spec.Check(t.trial, protocols)
				}
				if errs[t.point][t.trial] == nil && spec.Value != nil {
					value, errs[t.point][t.trial] = spec.Value(t.trial, res, protocols)
				}
				rounds[t.point][t.trial] = value
				if errs[t.point][t.trial] == nil && cfg.Checkpoint != nil {
					errs[t.point][t.trial] = cfg.Checkpoint.Record(batch, t.point, t.trial, value)
				}
				progress.done(t.point)
			}
		}()
	}
	interrupted := false
feed:
	for p := range points {
		for trial := 0; trial < points[p].Trials; trial++ {
			// The pre-check makes an already-signalled interrupt win even
			// when a worker is simultaneously ready to receive (a two-way
			// select would pick between the ready cases at random).
			select {
			case <-cfg.Interrupt:
				interrupted = true
				break feed
			default:
			}
			select {
			case next <- task{p, trial}:
			case <-cfg.Interrupt:
				// Graceful abort: stop feeding, let in-flight trials drain
				// (they still checkpoint), then report the interruption.
				interrupted = true
				break feed
			}
		}
	}
	close(next)
	wg.Wait()

	for p := range errs {
		for trial, err := range errs[p] {
			if err != nil {
				return nil, fmt.Errorf("point %d trial %d: %w", p, trial, err)
			}
		}
	}
	if interrupted {
		return nil, ErrInterrupted
	}
	return rounds, nil
}

// runTrials executes `trials` independent simulations of a single point and
// returns the stabilization round of each. Any engine error or failed Check
// aborts with that error.
func runTrials(cfg Config, trials int, spec trialSpec) ([]int, error) {
	rounds, err := runPointTrials(cfg, []pointSpec{{Trials: trials, Spec: spec}})
	if err != nil {
		return nil, err
	}
	return rounds[0], nil
}

// progressReporter emits throttled live progress lines for a trial batch.
// The zero-value-like nil-writer form is a no-op, so call sites need no
// branching.
type progressReporter struct {
	w     io.Writer
	now   func() time.Time // injected clock; nil = counts-only lines
	prof  *obs.Profiler    // optional; adds hottest-phase timing to lines
	total int

	mu         sync.Mutex
	start      time.Time
	lastReport time.Time
	completed  int
	perPoint   []int // trials finished per point
	trialsPer  []int // trials expected per point
	pointsDone int
}

// progressInterval is the minimum spacing between progress lines; the final
// line (batch complete) is always written.
const progressInterval = 500 * time.Millisecond

// newProgress builds a reporter for the batch; w == nil disables it.
func newProgress(w io.Writer, now func() time.Time, prof *obs.Profiler, total int, points []pointSpec) *progressReporter {
	p := &progressReporter{w: w, now: now, prof: prof, total: total}
	if w != nil {
		if now != nil {
			p.start = now()
		}
		p.perPoint = make([]int, len(points))
		p.trialsPer = make([]int, len(points))
		for i := range points {
			p.trialsPer[i] = points[i].Trials
		}
	}
	return p
}

// done records one finished trial of the given point and reports progress if
// the throttle interval elapsed (or the batch just completed).
func (p *progressReporter) done(point int) {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completed++
	p.perPoint[point]++
	if p.perPoint[point] == p.trialsPer[point] {
		p.pointsDone++
	}
	if p.now == nil {
		// No clock injected: report every trial, counts only. Progress is
		// best-effort diagnostics, so write errors are discarded.
		_, _ = fmt.Fprintf(p.w, "progress: %d/%d trials, %d/%d points%s\n",
			p.completed, p.total, p.pointsDone, len(p.perPoint), p.phaseSuffix())
		return
	}
	now := p.now()
	if p.completed < p.total && now.Sub(p.lastReport) < progressInterval {
		return
	}
	p.lastReport = now
	elapsed := now.Sub(p.start)
	eta := time.Duration(float64(elapsed) / float64(p.completed) * float64(p.total-p.completed))
	_, _ = fmt.Fprintf(p.w, "progress: %d/%d trials, %d/%d points, %s elapsed, ~%s left%s\n",
		p.completed, p.total, p.pointsDone, len(p.perPoint),
		elapsed.Round(100*time.Millisecond), eta.Round(100*time.Millisecond), p.phaseSuffix())
}

// phaseSuffix renders the profiler's hottest phases for a progress line, or
// "" when no profiler is attached or the profiled trial hasn't produced any
// timing yet. The profiler's counters are atomic, so reading them while the
// profiled trial is still running is safe — the line just shows the split so
// far.
func (p *progressReporter) phaseSuffix() string {
	if p.prof == nil {
		return ""
	}
	top := p.prof.TopPhases(3)
	if len(top) == 0 {
		return ""
	}
	return ", phases: " + strings.Join(top, ", ")
}

// trialSeed derives a per-(experiment, point, trial) seed.
func trialSeed(base uint64, point, trial int) uint64 {
	return xrand.Mix3(base, uint64(point), uint64(trial))
}

// log2 returns ⌈log₂ x⌉ as float64 for bound formulas (x >= 2).
func log2f(x int) float64 {
	l := 0
	for v := x - 1; v > 0; v >>= 1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return float64(l)
}

// pick returns a if quick, else b.
func pick(quick bool, a, b int) int {
	if quick {
		return a
	}
	return b
}

// pickTrials resolves the trial count: explicit config wins, else quick/full
// defaults.
func pickTrials(cfg Config, quickDefault, fullDefault int) int {
	if cfg.Trials > 0 {
		return cfg.Trials
	}
	return pick(cfg.Quick, quickDefault, fullDefault)
}
