package dyngraph

import (
	"math"
	"testing"

	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/xrand"
)

func TestStaticNeverChanges(t *testing.T) {
	s := NewStatic(gen.Cycle(10))
	if s.Tau() != InfiniteTau {
		t.Fatalf("static tau = %d", s.Tau())
	}
	if err := Validate(s, 50); err != nil {
		t.Fatal(err)
	}
	if s.N() != 10 || s.MaxDegree() != 2 {
		t.Fatalf("static metadata wrong: n=%d Δ=%d", s.N(), s.MaxDegree())
	}
	if s.Alpha() != gen.Cycle(10).Alpha {
		t.Fatal("static alpha does not match family")
	}
}

func TestStaticRejectsRoundZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("round 0 did not panic")
		}
	}()
	NewStatic(gen.Cycle(5)).GraphAt(0)
}

func TestRegenerateRespectsTau(t *testing.T) {
	for _, tau := range []int{1, 3, 7} {
		s := NewRegenerate("rr", tau, 42, func(seed uint64) gen.Family {
			return gen.RandomRegular(20, 4, seed)
		})
		if err := Validate(s, 40); err != nil {
			t.Fatalf("tau=%d: %v", tau, err)
		}
		// Within an epoch, identical; across, (almost surely) different.
		if !s.GraphAt(1).Equal(s.GraphAt(tau)) {
			t.Fatalf("tau=%d: graph changed within epoch", tau)
		}
		if s.GraphAt(1).Equal(s.GraphAt(tau + 1)) {
			t.Fatalf("tau=%d: graph unchanged across epoch (suspicious)", tau)
		}
	}
}

func TestRegenerateDeterministicRandomAccess(t *testing.T) {
	mk := func() *Regenerate {
		return NewRegenerate("rr", 5, 7, func(seed uint64) gen.Family {
			return gen.RandomRegular(16, 4, seed)
		})
	}
	a, b := mk(), mk()
	// Query out of order; must agree with in-order queries.
	ga := a.GraphAt(23)
	for r := 1; r <= 23; r++ {
		b.GraphAt(r)
	}
	if !ga.Equal(b.GraphAt(23)) {
		t.Fatal("random access disagreed with sequential access")
	}
}

func TestPermutedPreservesShape(t *testing.T) {
	base := gen.SqrtLineOfStars(4)
	s := NewPermuted(base, 2, 99)
	for r := 1; r <= 10; r++ {
		g := s.GraphAt(r)
		if g.N() != base.N() || g.M() != base.Graph.M() {
			t.Fatalf("round %d: shape changed n=%d m=%d", r, g.N(), g.M())
		}
		if g.MaxDegree() != base.MaxDegree() {
			t.Fatalf("round %d: Δ=%d, want %d", r, g.MaxDegree(), base.MaxDegree())
		}
		if !g.Connected() {
			t.Fatalf("round %d: disconnected", r)
		}
	}
	if err := Validate(s, 20); err != nil {
		t.Fatal(err)
	}
	if s.GraphAt(1).Equal(s.GraphAt(3)) {
		t.Fatal("permutation did not change the graph across epochs (suspicious)")
	}
}

func TestPermutedTauOne(t *testing.T) {
	s := NewPermuted(gen.Cycle(12), 1, 5)
	if err := Validate(s, 15); err != nil {
		t.Fatal(err)
	}
	// With tau=1 the graph should change nearly every round.
	changes := 0
	for r := 2; r <= 15; r++ {
		if !s.GraphAt(r).Equal(s.GraphAt(r - 1)) {
			changes++
		}
	}
	if changes < 10 {
		t.Fatalf("only %d changes in 14 transitions under tau=1", changes)
	}
}

func TestChurnPreservesDegreesAndConnectivity(t *testing.T) {
	base := gen.RandomRegular(30, 4, 3)
	s := NewChurn(base, 2, 10, 17)
	for r := 1; r <= 30; r++ {
		g := s.GraphAt(r)
		if !g.Connected() {
			t.Fatalf("round %d: churned graph disconnected", r)
		}
		for u := 0; u < g.N(); u++ {
			if g.Degree(u) != 4 {
				t.Fatalf("round %d: node %d degree %d, want 4", r, u, g.Degree(u))
			}
		}
	}
	if err := Validate(s, 30); err != nil {
		t.Fatal(err)
	}
}

func TestChurnReplaysDeterministically(t *testing.T) {
	base := gen.RandomRegular(20, 4, 1)
	s := NewChurn(base, 1, 5, 9)
	g10 := s.GraphAt(10)
	// Going backward triggers a replay from scratch.
	g3 := s.GraphAt(3)
	if !s.GraphAt(10).Equal(g10) {
		t.Fatal("churn replay diverged at round 10")
	}
	if !s.GraphAt(3).Equal(g3) {
		t.Fatal("churn replay diverged at round 3")
	}
}

func TestChurnActuallyChurns(t *testing.T) {
	base := gen.RandomRegular(40, 4, 2)
	s := NewChurn(base, 1, 20, 11)
	if s.GraphAt(1).Equal(s.GraphAt(2)) {
		t.Fatal("churn with 20 swaps produced no change (suspicious)")
	}
}

func TestWaypointConnectivityAndStability(t *testing.T) {
	w := NewWaypoint(50, 0.25, 0.05, 3, 21)
	for r := 1; r <= 30; r++ {
		if !w.GraphAt(r).Connected() {
			t.Fatalf("round %d: waypoint graph disconnected", r)
		}
	}
	if err := Validate(w, 30); err != nil {
		t.Fatal(err)
	}
}

func TestWaypointReplaysDeterministically(t *testing.T) {
	w := NewWaypoint(30, 0.3, 0.1, 2, 4)
	g8 := w.GraphAt(8)
	w.GraphAt(2) // rewind
	if !w.GraphAt(8).Equal(g8) {
		t.Fatal("waypoint replay diverged")
	}
}

func TestWaypointMoves(t *testing.T) {
	w := NewWaypoint(40, 0.3, 0.2, 1, 8)
	same := 0
	for r := 2; r <= 10; r++ {
		if w.GraphAt(r).Equal(w.GraphAt(r - 1)) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("waypoint with speed 0.2 kept the same graph %d/9 transitions", same)
	}
}

func TestSwitchServesBothParts(t *testing.T) {
	a := NewStatic(gen.Cycle(10))
	b := NewStatic(gen.Clique(10))
	s := NewSwitch(a, b, 6)
	if s.GraphAt(5).MaxDegree() != 2 {
		t.Fatal("pre-switch graph wrong")
	}
	if s.GraphAt(6).MaxDegree() != 9 {
		t.Fatal("post-switch graph wrong")
	}
	if s.N() != 10 || s.MaxDegree() != 9 {
		t.Fatalf("switch metadata: n=%d Δ=%d", s.N(), s.MaxDegree())
	}
	if s.Alpha() != math.Min(a.Alpha(), b.Alpha()) {
		t.Fatal("switch alpha not the min")
	}
}

func TestSwitchRejectsMismatchedN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched N did not panic")
		}
	}()
	NewSwitch(NewStatic(gen.Cycle(10)), NewStatic(gen.Cycle(12)), 5)
}

func TestValidateCatchesViolations(t *testing.T) {
	// A schedule that lies about its tau: changes every round, claims 5.
	inner := NewPermuted(gen.Cycle(12), 1, 5)
	liar := &liarSchedule{inner: inner}
	if err := Validate(liar, 10); err == nil {
		t.Fatal("Validate accepted a schedule that changes faster than its tau")
	}
	// A lying static schedule must also be caught.
	liar2 := &liarStatic{inner: inner}
	if err := Validate(liar2, 10); err == nil {
		t.Fatal("Validate accepted a changing schedule claiming tau=inf")
	}
}

// liarSchedule wraps a tau=1 schedule but claims tau=5.
type liarSchedule struct{ inner Schedule }

func (l *liarSchedule) GraphAt(r int) *graph.Graph { return l.inner.GraphAt(r) }
func (l *liarSchedule) Tau() int                   { return 5 }
func (l *liarSchedule) N() int                     { return l.inner.N() }
func (l *liarSchedule) MaxDegree() int             { return l.inner.MaxDegree() }
func (l *liarSchedule) Alpha() float64             { return l.inner.Alpha() }
func (l *liarSchedule) Name() string               { return "liar" }

// liarStatic wraps a tau=1 schedule but claims it never changes.
type liarStatic struct{ inner Schedule }

func (l *liarStatic) GraphAt(r int) *graph.Graph { return l.inner.GraphAt(r) }
func (l *liarStatic) Tau() int                   { return InfiniteTau }
func (l *liarStatic) N() int                     { return l.inner.N() }
func (l *liarStatic) MaxDegree() int             { return l.inner.MaxDegree() }
func (l *liarStatic) Alpha() float64             { return l.inner.Alpha() }
func (l *liarStatic) Name() string               { return "liar-static" }

func TestRegenerateRejectsBadTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tau=0 did not panic")
		}
	}()
	NewRegenerate("x", 0, 1, func(seed uint64) gen.Family { return gen.Cycle(5) })
}

func BenchmarkPermutedEpoch(b *testing.B) {
	s := NewPermuted(gen.RandomRegular(1000, 6, 1), 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.GraphAt(i + 1)
	}
}

func BenchmarkChurnEpoch(b *testing.B) {
	s := NewChurn(gen.RandomRegular(1000, 6, 1), 1, 50, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.GraphAt(i + 1)
	}
}

// TestPermutedRelabelMatchesBuilder pins the optimization contract of the
// Relabel-based permutation view: for 100 random epochs, the O(n+m) view must
// be graph.Equal to rebuilding the permuted edge set through a Builder — the
// exact construction Permuted used before the relabeling fast path.
func TestPermutedRelabelMatchesBuilder(t *testing.T) {
	for _, fam := range []gen.Family{
		gen.RandomRegular(64, 6, 7),
		gen.SqrtLineOfStars(6), // skewed degrees: hubs vs leaves
		gen.Cycle(17),
	} {
		s := NewPermuted(fam, 1, 99)
		for e := 0; e < 100; e++ {
			got := s.GraphAt(e + 1) // tau=1: round r is epoch r-1
			if !got.Equal(permutedBuilderGraph(fam, 99, e)) {
				t.Fatalf("%s epoch %d: relabel view differs from builder-built graph", fam.Name, e)
			}
		}
	}
}

// permutedBuilderGraph rebuilds Permuted epoch e through a Builder, the
// construction TestPermutedRelabelMatchesBuilder checks the relabel view
// against.
func permutedBuilderGraph(fam gen.Family, seed uint64, e int) *graph.Graph {
	perm := xrand.Derive(seed, uint64(e), 0x9e).Perm(fam.N())
	b := graph.NewBuilder(fam.N())
	fam.Graph.Edges(func(u, v int) { b.AddEdge(perm[u], perm[v]) })
	return b.MustBuild()
}

// TestPermutedRecycledBuffersLifetime pins the lifetime Permuted promises
// for its two recycled relabel buffers at τ=1: the epoch-e graph stays equal
// to a fresh Relabel while epoch e+1 is served, consecutive epochs get
// different graphs (the engine detects epoch changes by pointer), Validate
// passes, out-of-order queries still match the builder-built graphs, and
// once both buffers exist an epoch boundary allocates nothing.
func TestPermutedRecycledBuffersLifetime(t *testing.T) {
	const seed = 99
	fam := gen.SqrtLineOfStars(6)
	s := NewPermuted(fam, 1, seed)
	for e := 0; e < 50; e++ {
		cur := s.GraphAt(e + 1) // tau=1: round r is epoch r-1
		want := fam.Graph.Relabel(xrand.Derive(seed, uint64(e), 0x9e).Perm(fam.N()))
		next := s.GraphAt(e + 2)
		if next == cur {
			t.Fatalf("epochs %d and %d share a graph pointer", e, e+1)
		}
		if !cur.Equal(want) {
			t.Fatalf("epoch %d graph changed while epoch %d was served", e, e+1)
		}
	}
	if err := Validate(NewPermuted(fam, 1, seed), 200); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int{40, 3, 77, 3, 0, 99, 42, 43, 42, 0} {
		if !s.GraphAt(e + 1).Equal(permutedBuilderGraph(fam, seed, e)) {
			t.Fatalf("out-of-order epoch %d differs from the builder-built graph", e)
		}
	}
	r := 1000
	if avg := testing.AllocsPerRun(100, func() { s.GraphAt(r); r++ }); avg != 0 {
		t.Fatalf("Permuted epoch boundary allocates %v times, want 0", avg)
	}
}

// TestRegenerateMemoBounded checks that the per-epoch memo caps its size and
// still serves identical graphs for re-queried epochs after eviction.
func TestRegenerateMemoBounded(t *testing.T) {
	calls := 0
	s := NewRegenerate("cyc", 1, 5, func(seed uint64) gen.Family {
		calls++
		return gen.RandomRegular(16, 4, seed)
	})
	first := s.GraphAt(1)
	if got := s.GraphAt(1); got != first {
		t.Fatal("re-query of cached epoch regenerated the graph")
	}
	callsBefore := calls
	if s.GraphAt(1) != first {
		t.Fatal("cached epoch changed")
	}
	if calls != callsBefore {
		t.Fatalf("cached epoch re-ran the generator (%d -> %d calls)", callsBefore, calls)
	}
	// Walk far past the memo window, then come back: the graph must be
	// regenerated (pointer may differ) but identical in structure.
	for r := 1; r <= 4*regenMemoCap; r++ {
		s.GraphAt(r)
	}
	if len(s.memo) > regenMemoCap || len(s.memoFIFO) > regenMemoCap {
		t.Fatalf("memo grew past cap: %d entries, %d keys", len(s.memo), len(s.memoFIFO))
	}
	if again := s.GraphAt(1); !again.Equal(first) {
		t.Fatal("epoch 0 regenerated differently after eviction")
	}
}
