package sim_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
)

// connRecording is the observable behavior of an execution as read back
// from its mtmtrace/v1 JSONL trace: the canonical connection set of every
// round (from connect events) plus every node's final leader variable.
// Executions are pure functions of (seed, schedule, protocol, config), so
// replaying a configuration must reproduce its recording exactly.
type connRecording struct {
	N       int
	Rounds  map[int][][2]int32 // round -> pairs, sorted ascending
	Leaders []uint64
}

func (rec *connRecording) connections() int {
	total := 0
	for _, pairs := range rec.Rounds {
		total += len(pairs)
	}
	return total
}

// diff returns nil when the two recordings are identical, else the first
// difference found.
func (rec *connRecording) diff(o *connRecording) error {
	if rec.N != o.N {
		return fmt.Errorf("n %d vs %d", rec.N, o.N)
	}
	if len(rec.Rounds) != len(o.Rounds) {
		return fmt.Errorf("%d rounds with connections vs %d", len(rec.Rounds), len(o.Rounds))
	}
	for r, pairs := range rec.Rounds {
		other := o.Rounds[r]
		if len(pairs) != len(other) {
			return fmt.Errorf("round %d: %d pairs vs %d", r, len(pairs), len(other))
		}
		for i := range pairs {
			if pairs[i] != other[i] {
				return fmt.Errorf("round %d pair %d: %v vs %v", r, i, pairs[i], other[i])
			}
		}
	}
	for i := range rec.Leaders {
		if rec.Leaders[i] != o.Leaders[i] {
			return fmt.Errorf("node %d leader %d vs %d", i, rec.Leaders[i], o.Leaders[i])
		}
	}
	return nil
}

// readRecording parses a JSONL trace into a recording.
func readRecording(trace []byte, leaders []uint64) (*connRecording, error) {
	rd, err := obs.NewReader(bytes.NewReader(trace))
	if err != nil {
		return nil, err
	}
	events, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	return eventsRecording(rd.Header().N, events, leaders), nil
}

// eventsRecording folds the connect events of a trace into a recording.
func eventsRecording(n int, events []obs.Event, leaders []uint64) *connRecording {
	rec := &connRecording{N: n, Rounds: make(map[int][][2]int32), Leaders: leaders}
	for _, e := range events {
		if e.Type == obs.TypeConnect {
			rec.Rounds[e.Round] = append(rec.Rounds[e.Round], [2]int32{e.Node, e.Peer})
		}
	}
	for _, pairs := range rec.Rounds {
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
	}
	return rec
}

// traceRun executes one election with a JSONL sink attached and returns
// the raw trace plus every node's final leader.
func traceRun(t *testing.T, sched dyngraph.Schedule, n int, cfg sim.Config) ([]byte, []uint64) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	cfg.Sink = sink
	protocols := core.NewBlindGossipNetwork(core.UniqueUIDs(n, 9))
	eng, err := sim.New(sched, protocols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	leaders := make([]uint64, n)
	for i, p := range protocols {
		leaders[i] = p.Leader()
	}
	return buf.Bytes(), leaders
}

// recordRun executes a blind gossip election on a permuted dynamic
// schedule and returns its recording and raw trace.
func recordRun(t *testing.T, seed uint64) (*connRecording, []byte) {
	t.Helper()
	const n = 32
	sched := dyngraph.NewPermuted(gen.RandomRegular(n, 4, 3), 2, 5)
	raw, leaders := traceRun(t, sched, n, sim.Config{Seed: seed, MaxRounds: 500_000})
	rec, err := readRecording(raw, leaders)
	if err != nil {
		t.Fatal(err)
	}
	return rec, raw
}

func TestRecordingReplayIdentical(t *testing.T) {
	a, rawA := recordRun(t, 7)
	b, rawB := recordRun(t, 7)
	if err := a.diff(b); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("replay traces differ byte-wise")
	}
	if a.connections() == 0 || len(a.Rounds) == 0 {
		t.Fatal("empty recording")
	}
}

func TestRecordingDifferentSeedsDiffer(t *testing.T) {
	a, _ := recordRun(t, 7)
	b, _ := recordRun(t, 8)
	if err := a.diff(b); err == nil {
		t.Fatal("different seeds produced identical recordings (suspicious)")
	}
}

// TestRecordingJSONLRoundtrip checks that the JSONL trace loses nothing:
// the events read back from it equal the events an in-memory ring saw
// from the same run.
func TestRecordingJSONLRoundtrip(t *testing.T) {
	const n = 32
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	ring := obs.NewRing(1 << 20)
	eng, err := sim.New(
		dyngraph.NewPermuted(gen.RandomRegular(n, 4, 3), 2, 5),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 9)),
		sim.Config{Seed: 11, MaxRounds: 500_000, Sink: obs.Tee(ring, jsonl)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	rd, err := obs.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := ring.Events()
	if int64(len(want)) != ring.Total() {
		t.Fatalf("ring overflowed: kept %d of %d events", len(want), ring.Total())
	}
	if len(got) != len(want) {
		t.Fatalf("JSONL roundtrip: %d events, ring saw %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("JSONL roundtrip lost information at event %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if h := rd.Header(); h.N != n || h.Seed != 11 || h.Schedule != ring.Header().Schedule {
		t.Fatalf("header roundtrip: %+v vs %+v", h, ring.Header())
	}
}

func TestRecordingEqualCatchesCorruption(t *testing.T) {
	a, raw := recordRun(t, 13)
	rd, err := obs.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	events, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	// Pair corruption: move the first connect event to another peer.
	corrupt := append([]obs.Event(nil), events...)
	for i, e := range corrupt {
		if e.Type == obs.TypeConnect {
			corrupt[i].Peer = (e.Peer + 1) % int32(a.N)
			break
		}
	}
	if err := a.diff(eventsRecording(a.N, corrupt, a.Leaders)); err == nil {
		t.Fatal("pair corruption not detected")
	}

	// Leader corruption.
	leaders := append([]uint64(nil), a.Leaders...)
	leaders[0]++
	if err := a.diff(eventsRecording(a.N, events, leaders)); err == nil {
		t.Fatal("leader corruption not detected")
	}

	// Truncation: drop the events of the last round with connections.
	last := 0
	for r := range a.Rounds {
		if r > last {
			last = r
		}
	}
	var kept []obs.Event
	for _, e := range events {
		if e.Round != last {
			kept = append(kept, e)
		}
	}
	if err := a.diff(eventsRecording(a.N, kept, a.Leaders)); err == nil {
		t.Fatal("truncation not detected")
	}

	// A write cut off mid-record is rejected by the reader itself.
	if _, err := readRecording(raw[:len(raw)-4], a.Leaders); err == nil {
		t.Fatal("mid-record truncation accepted")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := readRecording([]byte("not json"), nil); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestRecordingPairsSortedAndValid checks every recorded connection is a
// canonical (smaller, larger) in-range pair and that no pair repeats within
// a round.
func TestRecordingPairsSortedAndValid(t *testing.T) {
	rec, _ := recordRun(t, 17)
	for round, pairs := range rec.Rounds {
		for i, p := range pairs {
			if p[0] >= p[1] {
				t.Fatalf("round %d pair %v not canonical", round, p)
			}
			if i > 0 && pairs[i-1][0] >= p[0] {
				t.Fatalf("round %d pairs not ascending: %v", round, pairs)
			}
			if p[0] < 0 || int(p[1]) >= rec.N {
				t.Fatalf("round %d pair %v out of range", round, p)
			}
		}
	}
}

func TestRecordingClassicalMode(t *testing.T) {
	const n = 16
	raw, leaders := traceRun(t, dyngraph.NewStatic(gen.Star(n)), n,
		sim.Config{Seed: 1, MaxRounds: 100_000, Classical: true})
	rec, err := readRecording(raw, leaders)
	if err != nil {
		t.Fatal(err)
	}
	if rec.connections() == 0 {
		t.Fatal("classical recording captured no connections")
	}
}
