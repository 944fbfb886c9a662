// Command electbench is the repository's end-to-end benchmark. It runs one
// workload as a closed loop with a single caller, checks every result, and
// prints its metrics; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	electbench --workload elect|scale|sweep --seed N --seconds S --trace 0|1 [--record FILE]
//	electbench --compare OLD.json NEW.json
//
// With --trace 0 the run goes through the public entry points
// (mobiletel.ElectLeader, mobiletel.RunExperiment) and the final line holds
// the end-to-end metrics BENCHMARK.json lists. With --trace 1 the first half
// of the time repeats that untraced loop and the second half runs the same
// inputs through the layers' constructors under timing decorators and the
// mtmprof/v1 phase profiler; the final line holds the per-layer metrics.
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"time"
)

// processStart approximates process start: package initialization runs
// before main.
var processStart = time.Now()

// setupReps is how many times a run builds its inputs and warms up; setup_s
// is the median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("electbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: elect, scale or sweep")
	seed := fs.Uint64("seed", 1, "workload seed; every input is a pure function of it")
	seconds := fs.Float64("seconds", 10, "timed loop length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end run; 1: untraced then traced run, printing per-layer metrics")
	record := fs.String("record", "", "also write the run's recording (host, digest, every metric) as JSON to this file")
	compare := fs.Bool("compare", false, "compare two recordings given as arguments: OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "electbench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "electbench: --compare needs OLD and NEW recordings")
			return 2
		}
		return compareRecordings(fs.Arg(0), fs.Arg(1), spec)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "electbench: need --seconds > 0, --trace 0 or 1, and no arguments")
		return 2
	}
	rec, err := measure(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "electbench:", err)
		return 1
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	code := 0
	if err := printResult(rec, want); err != nil {
		fmt.Fprintln(os.Stderr, "electbench:", err)
		code = 1
	}
	if *record != "" {
		if err := writeRecording(*record, rec); err != nil {
			fmt.Fprintln(os.Stderr, "electbench:", err)
			code = 1
		}
	}
	if !rec.Correct {
		fmt.Fprintln(os.Stderr, "electbench: incorrect results:", rec.Problem)
		code = 1
	}
	return code
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recording is everything one run measured.
type recording struct {
	Schema    string            `json:"schema"`
	Host      host              `json:"host"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Digest    string            `json:"digest"`
	Correct   bool              `json:"correct"`
	Problem   string            `json:"problem,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const recordingSchema = "electbench/v1"

func (r *recording) set(name string, value float64, unit, note string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("metric %-46s %14.6g %s%s\n", name, value, unit, note)
}

func (r *recording) fail(problem string) {
	if r.Correct {
		r.Correct, r.Problem = false, problem
	}
}

// measure sets the workload up, runs its timed loop (and, when traced, the
// traced loop) and returns the recording. Every metric is also printed.
func measure(name string, seed uint64, d time.Duration, traced bool) (*recording, error) {
	rec := &recording{Schema: recordingSchema, Host: thisHost(), Workload: name, Seed: seed,
		Seconds: d.Seconds(), Trace: traced, Correct: true, Metrics: map[string]metric{}}
	fmt.Printf("host %v\n", rec.Host)

	var w workload
	setups := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return nil, err
		}
		if err := w.warmUp(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Collect the previous repetition's inputs so that they do not
		// inflate peak_rss_mb.
		runtime.GC()
	}

	half := d
	if traced {
		half = d / 2
	}
	m0 := readMem()
	plain := loop(w, half, w.op)
	m1 := readMem()
	rec.Digest = plain.digest
	rec.Attempted, rec.Failed = plain.attempted, plain.failed
	fmt.Printf("workload %s seed %d digest %s attempted %d failed %d\n",
		name, seed, plain.digest, plain.attempted, plain.failed)
	if plain.problem != "" {
		rec.fail(plain.problem)
	}
	if !traced {
		endToEnd(rec, plain, percentile(setups, 50))
		return rec, nil
	}
	if plain.abandoned {
		return nil, errors.New("an op was abandoned still running; no traced run")
	}

	ops := float64(plain.attempted)
	rec.set("runtime.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/ops, "count", "untraced half")
	rec.set("runtime.gc_pause_ms_per_op", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/ops, "ms", "untraced half")
	rec.set("runtime.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/ops, "MB", "untraced half")

	tr := newTracer()
	w.traceSetup(tr)
	t := loop(w, half, func(i int) outcome { return w.tracedOp(i, tr) })
	rec.Attempted += t.attempted
	rec.Failed += t.failed
	if t.problem != "" {
		rec.fail("traced: " + t.problem)
	}
	fmt.Printf("traced digest %s attempted %d failed %d\n", t.digest, t.attempted, t.failed)
	if t.digest != plain.digest {
		rec.fail(fmt.Sprintf("traced digest %s differs from untraced %s", t.digest, plain.digest))
	}
	if len(t.samples) > 0 && len(plain.samples) > 0 {
		rec.set("trace.overhead_ratio", percentile(t.samples, 50)/percentile(plain.samples, 50), "ratio", "traced op_ms_p50 / untraced op_ms_p50")
	}
	perLayer(rec, w, tr, t)
	return rec, nil
}

// loopResult is what one timed loop measured.
type loopResult struct {
	samples           []float64 // ms per completed op
	attempted, failed int
	nodeRounds        int64
	wall              time.Duration
	digest            string
	problem           string
	abandoned         bool
}

// loop runs ops as a closed loop with one caller until d has passed and at
// least one full input cycle has run. Every op counts as attempted; a failed
// op is counted and never retried. The digest folds the first cycle's
// results; every later op must reproduce its input's first result.
func loop(w workload, d time.Duration, op func(i int) outcome) loopResult {
	var res loopResult
	cycle := w.cycle()
	first := make([]string, cycle)
	h := fnv.New64a()
	start := time.Now()
	for i := 0; i < cycle || time.Since(start) < d; i++ {
		t0 := time.Now()
		o := op(i)
		el := time.Since(t0)
		res.attempted++
		got := strings.Join(o.results, "\n")
		switch {
		case o.wrong != nil:
			res.problem = fmt.Sprintf("op %d: %v", i, o.wrong)
		case o.err != nil:
			res.failed++
			got = "failed"
			fmt.Fprintf(os.Stderr, "electbench: op %d failed: %v\n", i, o.err)
		default:
			res.samples = append(res.samples, float64(el)/1e6)
			res.nodeRounds += o.nodeRounds
		}
		if i < cycle {
			first[i] = got
			_, _ = fmt.Fprintf(h, "%d\n%s\n", i, got) // hash writes never fail
		} else if o.err == nil && got != first[i%cycle] && first[i%cycle] != "failed" {
			res.problem = fmt.Sprintf("op %d repeats input %d but its results differ", i, i%cycle)
		}
		if res.problem != "" || o.abandoned {
			res.abandoned = o.abandoned
			break
		}
	}
	res.wall = time.Since(start)
	res.digest = fmt.Sprintf("%016x", h.Sum64())
	return res
}

// endToEnd records the untraced run's metrics.
func endToEnd(rec *recording, r loopResult, setupS float64) {
	n := len(r.samples)
	wall := r.wall.Seconds()
	rec.set("ops_per_s", float64(n)/wall, "1/s", fmt.Sprintf("%d ops in %.3f s", n, wall))
	if r.nodeRounds > 0 {
		rec.set("node_rounds_per_s", float64(r.nodeRounds)/wall, "1/s", "")
	}
	if n > 0 {
		rec.set("op_ms_p50", percentile(r.samples, 50), "ms", fmt.Sprintf("n=%d", n))
	}
	if supported(90, n) {
		rec.set("op_ms_p90", percentile(r.samples, 90), "ms", fmt.Sprintf("n=%d, %d beyond", n, n-rank(90, n)))
	} else {
		fmt.Printf("metric op_ms_p90 not reported: %d samples leave fewer than %d beyond it\n", n, minBeyond)
	}
	if p, ok := highestTail(n); ok && p > 90 {
		rec.set(fmt.Sprintf("op_ms_p%g", p), percentile(r.samples, p), "ms", fmt.Sprintf("highest supported percentile, n=%d", n))
	}
	rec.set("setup_s", setupS, "s", fmt.Sprintf("median of %d", setupReps))
	if rss, err := peakRSSMB(); err == nil {
		rec.set("peak_rss_mb", rss, "MB", "VmHWM")
	} else {
		fmt.Println("metric peak_rss_mb not reported:", err)
	}
	rec.set("failed_ops_ratio", float64(r.failed)/float64(r.attempted), "ratio",
		fmt.Sprintf("%d of %d", r.failed, r.attempted))
}

// printResult prints the final JSON line holding the wanted metrics.
func printResult(rec *recording, want []specMetric) error {
	metrics := make(map[string]metric, len(want))
	var missing []string
	for _, m := range want {
		v, ok := rec.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		metrics[m.Name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct && len(missing) == 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured on %s: %v", rec.Workload, missing)
	}
	return nil
}

func writeRecording(path string, rec *recording) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing recording: %w", err)
	}
	return nil
}

func readRecording(path string) (*recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec recording
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordingSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordingSchema)
	}
	return &rec, nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// Errors compare reports. A digest mismatch means the two runs computed
// different results; a regression means a metric got worse than its bound.
var (
	errDigest     = errors.New("results differ")
	errRegression = errors.New("regression")
)

// compare judges cur against old and returns its report. Timings taken on
// different hosts are not comparable, so a host mismatch is named and no
// metric is judged. Digests do not depend on the host and are compared
// whenever the seeds match.
func compare(old, cur *recording, spec *benchSpec) (string, error) {
	if old.Workload != cur.Workload {
		return "", fmt.Errorf("recordings are of workloads %q and %q", old.Workload, cur.Workload)
	}
	var sb strings.Builder
	var errs []error
	if old.Seed == cur.Seed && old.Digest != cur.Digest {
		errs = append(errs, fmt.Errorf("%w: digest %s vs %s at seed %d", errDigest, old.Digest, cur.Digest, old.Seed))
	}
	if mm := old.Host.mismatches(cur.Host); len(mm) > 0 {
		sb.WriteString("host mismatch: " + strings.Join(mm, "; ") + "; timings are not compared\n")
		return sb.String(), errors.Join(errs...)
	}
	var worse []string
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		a, okA := old.Metrics[m.Name]
		b, okB := cur.Metrics[m.Name]
		if !okA || !okB || a.Value == 0 {
			continue
		}
		change := b.Value/a.Value - 1
		verdict := "ok"
		switch {
		case m.Bound == 0:
			verdict = "no bound"
		case (m.Better == "lower" && change > m.Bound) || (m.Better == "higher" && -change > m.Bound):
			verdict = "REGRESSION"
			worse = append(worse, fmt.Sprintf("%s %+.1f%% (bound %.0f%%)", m.Name, 100*change, 100*m.Bound))
		}
		sb.WriteString(fmt.Sprintf("%-46s %14.6g -> %-14.6g %+7.1f%%  %s\n", m.Name, a.Value, b.Value, 100*change, verdict))
	}
	if len(worse) > 0 {
		errs = append(errs, fmt.Errorf("%w: %s", errRegression, strings.Join(worse, "; ")))
	}
	return sb.String(), errors.Join(errs...)
}

func compareRecordings(oldPath, newPath string, spec *benchSpec) int {
	old, err := readRecording(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "electbench:", err)
		return 2
	}
	cur, err := readRecording(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "electbench:", err)
		return 2
	}
	report, err := compare(old, cur, spec)
	fmt.Print(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "electbench:", err)
		return 1
	}
	return 0
}
