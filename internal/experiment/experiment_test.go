package experiment

import (
	"runtime"
	"strings"
	"testing"

	"mobiletel/internal/obs"
)

func TestRegistryComplete(t *testing.T) {
	// Every experiment in the DESIGN.md §4 index must be registered.
	want := []string{
		"E1-blindgossip-scaling",
		"E2-blindgossip-lowerbound",
		"E3-pushpull-bound",
		"E4-lemma-v1-gamma",
		"E5-ppush-approx",
		"E6-bitconv-tau",
		"E7-zero-vs-one-bit",
		"E8-async-bitconv",
		"E9-self-stabilization",
		"E10-churn-robustness",
		"E11-good-edge-probability",
		"E12-classical-vs-mobile",
		"A1-ablation-grouplen",
		"A2-ablation-tagbits",
		"A3-ablation-accept",
		"R1-leader-crash-reelection",
		"R2-corruption-recovery",
		"R3-message-loss-slowdown",
		"R4-partition-heal",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		ids := make([]string, 0)
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
		t.Errorf("registry has %d experiments, want %d: %v", len(All()), len(want), ids)
	}
}

func TestAllExperimentsHaveClaims(t *testing.T) {
	for _, e := range All() {
		if e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %s missing claim or runner", e.ID)
		}
		if !strings.Contains(e.Claim, "heorem") && !strings.Contains(e.Claim, "emma") &&
			!strings.Contains(e.Claim, "ection") && !strings.Contains(e.Claim, "orollary") &&
			!strings.Contains(e.Claim, "esign") && !strings.Contains(e.Claim, "odel") &&
			!strings.Contains(e.Claim, "gap") && !strings.Contains(e.Claim, "adapt") {
			t.Errorf("experiment %s claim does not cite the paper: %q", e.ID, e.Claim)
		}
	}
}

func TestByIDMiss(t *testing.T) {
	if _, ok := ByID("nonexistent"); ok {
		t.Fatal("ByID found a nonexistent experiment")
	}
}

// TestQuickRuns executes every experiment in quick mode with a minimal trial
// count: a full integration pass over the whole reproduction pipeline.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			table, err := e.Run(Config{Seed: 12345, Trials: 2, Quick: true})
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if table == nil || len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			text := table.Text()
			if !strings.Contains(text, "==") {
				t.Fatalf("%s produced malformed table:\n%s", e.ID, text)
			}
		})
	}
}

func TestHelperFunctions(t *testing.T) {
	if log2f(2) != 1 || log2f(3) != 2 || log2f(1024) != 10 {
		t.Fatal("log2f wrong")
	}
	if pick(true, 1, 2) != 1 || pick(false, 1, 2) != 2 {
		t.Fatal("pick wrong")
	}
	if pickTrials(Config{Trials: 7}, 1, 2) != 7 {
		t.Fatal("explicit trials ignored")
	}
	if pickTrials(Config{Quick: true}, 1, 2) != 1 {
		t.Fatal("quick default wrong")
	}
	if pickTrials(Config{}, 1, 2) != 2 {
		t.Fatal("full default wrong")
	}
	if trialSeed(1, 2, 3) == trialSeed(1, 3, 2) {
		t.Fatal("trialSeed symmetric")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	register(Experiment{ID: "E1-blindgossip-scaling", Claim: "dup", Run: nil})
}

// TestE5TableIndependentOfGOMAXPROCS pins that E5's trials, now spread over
// the parallel runner, render the same table on one core as on two.
func TestE5TableIndependentOfGOMAXPROCS(t *testing.T) {
	e, ok := ByID("E5-ppush-approx")
	if !ok {
		t.Fatal("E5-ppush-approx not registered")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var tables [2]string
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		table, err := e.Run(Config{Seed: 12345, Quick: true})
		if err != nil {
			t.Fatalf("GOMAXPROCS(%d): %v", procs, err)
		}
		tables[i] = table.Text()
	}
	if tables[0] != tables[1] {
		t.Fatalf("E5 table differs across GOMAXPROCS:\n--- 1\n%s\n--- 2\n%s", tables[0], tables[1])
	}
}

// TestE5SinkReceivesFirstTrial checks that Config.Sink observes E5's first
// trial (r = 1 on the static cut graph of 2m = 128 nodes in quick mode).
func TestE5SinkReceivesFirstTrial(t *testing.T) {
	e, ok := ByID("E5-ppush-approx")
	if !ok {
		t.Fatal("E5-ppush-approx not registered")
	}
	ring := obs.NewRing(16)
	if _, err := e.Run(Config{Seed: 12345, Trials: 2, Quick: true, Sink: ring}); err != nil {
		t.Fatal(err)
	}
	h := ring.Header()
	if ring.Total() == 0 || h.N != 128 || !strings.Contains(h.Schedule, "e5cut") {
		t.Fatalf("sink saw %d events, header %+v; want the first e5cut trial on 128 nodes", ring.Total(), h)
	}
}
