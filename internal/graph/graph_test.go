package graph

import (
	"testing"
	"testing/quick"

	"mobiletel/internal/xrand"
)

func mustPath(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatalf("empty graph wrong: %v", g)
	}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestSingleNode(t *testing.T) {
	g := NewBuilder(1).MustBuild()
	if !g.Connected() || g.Degree(0) != 0 {
		t.Fatalf("single-node graph wrong: %v", g)
	}
}

func TestPathBasics(t *testing.T) {
	g := mustPath(t, 5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("path(5): n=%d m=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("path(5): Δ=%d, want 2", g.MaxDegree())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 || g.Degree(4) != 1 {
		t.Fatal("path(5): wrong degrees")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("path(5): missing edge 1-2")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("path(5): phantom edge 0-4")
	}
	if !g.Connected() {
		t.Fatal("path(5): should be connected")
	}
}

func TestDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // same undirected edge
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge not rejected")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	NewBuilder(2).AddEdge(1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(3, 5)
	b.AddEdge(3, 0)
	b.AddEdge(3, 4)
	b.AddEdge(3, 1)
	g := b.MustBuild()
	nbrs := g.Neighbors(3)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbors of 3 not sorted: %v", nbrs)
		}
	}
}

func TestHandshakeLemmaProperty(t *testing.T) {
	// Sum of degrees equals 2m, on random graphs.
	err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 30, 0.2)
		sum := 0
		for u := 0; u < g.N(); u++ {
			sum += g.Degree(u)
		}
		return sum == 2*g.M()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySymmetryProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 25, 0.3)
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(int(v), u) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEdgesEnumeratesEachOnce(t *testing.T) {
	g := randomGraph(11, 40, 0.15)
	seen := make(map[[2]int]bool)
	g.Edges(func(u, v int) {
		if u >= v {
			t.Fatalf("Edges yielded non-canonical pair (%d,%d)", u, v)
		}
		key := [2]int{u, v}
		if seen[key] {
			t.Fatalf("Edges yielded (%d,%d) twice", u, v)
		}
		seen[key] = true
	})
	if len(seen) != g.M() {
		t.Fatalf("Edges yielded %d edges, want %d", len(seen), g.M())
	}
}

func TestEdgeListMatchesHasEdge(t *testing.T) {
	g := randomGraph(5, 20, 0.25)
	for _, e := range g.EdgeList() {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("EdgeList contains non-edge %v", e)
		}
	}
}

func TestBoundaryPath(t *testing.T) {
	g := mustPath(t, 6)
	inSet := make([]bool, 6)
	inSet[0], inSet[1] = true, true
	b := g.Boundary(inSet)
	if len(b) != 1 || b[0] != 2 {
		t.Fatalf("boundary of {0,1} on path(6) = %v, want [2]", b)
	}
}

func TestBoundaryWholeGraphEmpty(t *testing.T) {
	g := mustPath(t, 4)
	inSet := []bool{true, true, true, true}
	if b := g.Boundary(inSet); len(b) != 0 {
		t.Fatalf("boundary of V = %v, want empty", b)
	}
}

func TestBoundaryLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Boundary with wrong-length set did not panic")
		}
	}()
	mustPath(t, 4).Boundary([]bool{true})
}

func TestAlphaOfMiddleOfPath(t *testing.T) {
	g := mustPath(t, 5)
	inSet := make([]bool, 5)
	inSet[2] = true
	if a := g.AlphaOf(inSet); a != 2.0 {
		t.Fatalf("α({middle}) = %v, want 2", a)
	}
}

func TestAlphaOfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AlphaOf(empty) did not panic")
		}
	}()
	mustPath(t, 3).AlphaOf(make([]bool, 3))
}

func TestBFSOrderCoversComponent(t *testing.T) {
	g := mustPath(t, 7)
	order := g.BFSOrder(3)
	if len(order) != 7 {
		t.Fatalf("BFS from 3 visited %d nodes, want 7", len(order))
	}
	if order[0] != 3 {
		t.Fatalf("BFS order starts at %d, want 3", order[0])
	}
}

func TestEqual(t *testing.T) {
	a := mustPath(t, 4)
	b := mustPath(t, 4)
	if !a.Equal(b) {
		t.Fatal("identical paths not Equal")
	}
	c := NewBuilder(4).AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 3).MustBuild()
	if a.Equal(c) {
		t.Fatal("different graphs reported Equal")
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || !g.Connected() {
		t.Fatalf("FromEdges produced %v", g)
	}
	if _, err := FromEdges(3, [][2]int{{0, 1}, {0, 1}}); err == nil {
		t.Fatal("FromEdges accepted duplicate edge")
	}
}

// randomGraph builds a connected-ish Erdős–Rényi graph for property tests
// (connectivity is not required by the properties above).
func randomGraph(seed uint64, n int, p float64) *Graph {
	rng := xrand.New(seed)
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func BenchmarkBuild1000(b *testing.B) {
	edges := make([][2]int, 0, 5000)
	rng := xrand.New(1)
	for len(edges) < 5000 {
		u, v := rng.Intn(1000), rng.Intn(1000)
		if u != v {
			edges = append(edges, [2]int{min(u, v), max(u, v)})
		}
	}
	// Deduplicate to keep Build happy.
	seen := map[[2]int]bool{}
	uniq := edges[:0]
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			uniq = append(uniq, e)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(1000, uniq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := randomGraph(2, 1000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.HasEdge(i%1000, (i*7)%1000)
	}
}

func TestRelabelMatchesBuilderRandomized(t *testing.T) {
	rng := xrand.Derive(7, 0, 0)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		edges := make([][2]int, 0)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					b.AddEdge(u, v)
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := b.MustBuild()
		perm := rng.Perm(n)
		got := g.Relabel(perm)
		want := NewBuilder(n)
		for _, e := range edges {
			want.AddEdge(perm[e[0]], perm[e[1]])
		}
		if w := want.MustBuild(); !got.Equal(w) {
			t.Fatalf("trial %d (n=%d m=%d): relabel differs from rebuild", trial, n, g.M())
		}
		if got.MaxDegree() != g.MaxDegree() || got.M() != g.M() {
			t.Fatalf("trial %d: metadata changed: Δ %d->%d m %d->%d",
				trial, g.MaxDegree(), got.MaxDegree(), g.M(), got.M())
		}
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := mustPath(t, 6)
	perm := []int{0, 1, 2, 3, 4, 5}
	if !g.Relabel(perm).Equal(g) {
		t.Fatal("identity relabel changed the graph")
	}
}

func TestRelabelSharesNoStorage(t *testing.T) {
	// Schedules hand out relabeled graphs while consumers still hold the
	// previous epoch's graph, so Relabel must not reuse g's arrays.
	g := mustPath(t, 4)
	h := g.Relabel([]int{3, 2, 1, 0})
	if &g.adj[0] == &h.adj[0] || &g.offsets[0] == &h.offsets[0] {
		t.Fatal("relabel shares storage with the source graph")
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := mustPath(t, 3)
	for _, bad := range [][]int{
		{0, 1},     // wrong length
		{0, 1, 3},  // out of range
		{0, 1, 1},  // duplicate
		{-1, 1, 2}, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v did not panic", bad)
				}
			}()
			g.Relabel(bad)
		}()
	}
}

// TestRelabelIntoReusesScratchAcrossEpochs relabels 20 epochs through one
// scratch, alternating a fresh destination (nil) with a recycled one: every
// result must equal Relabel, a recycled destination must keep its arrays,
// and no result may share storage with the scratch.
func TestRelabelIntoReusesScratchAcrossEpochs(t *testing.T) {
	rng := xrand.Derive(11, 0, 0)
	g := randomGraph(3, 40, 0.1)
	var s RelabelScratch
	var recycled *Graph
	for epoch := 0; epoch < 20; epoch++ {
		perm := rng.Perm(g.N())
		var dst *Graph
		if epoch%2 == 1 {
			dst = recycled
		}
		got := g.RelabelInto(perm, &s, dst)
		if want := g.Relabel(perm); !got.Equal(want) {
			t.Fatalf("epoch %d: RelabelInto differs from Relabel", epoch)
		}
		if dst != nil && (got != dst || &got.offsets[0] != &dst.offsets[0] || &got.adj[0] != &dst.adj[0]) {
			t.Fatalf("epoch %d: RelabelInto did not recycle its destination", epoch)
		}
		if &got.offsets[0] == &s.cursor[0] || &got.offsets[0] == &s.inv[0] {
			t.Fatal("RelabelInto leaked scratch storage into the result")
		}
		recycled = got
	}
}

// TestRelabelIntoRejectsSourceAsDestination: relabeling a graph into its
// own storage would overwrite adjacency lists still being read.
func TestRelabelIntoRejectsSourceAsDestination(t *testing.T) {
	g := randomGraph(4, 10, 0.3)
	defer func() {
		if recover() == nil {
			t.Fatal("RelabelInto(…, g) did not panic")
		}
	}()
	g.RelabelInto(xrand.Derive(1, 0, 0).Perm(g.N()), &RelabelScratch{}, g)
}

func TestBalancedChunksInvariants(t *testing.T) {
	graphs := map[string]*Graph{
		"path40":   mustPath(t, 40),
		"empty5":   NewBuilder(5).MustBuild(),
		"random":   randomGraph(5, 97, 0.07),
		"single":   NewBuilder(1).MustBuild(),
		"zero":     NewBuilder(0).MustBuild(),
		"star":     mustStar(t, 64),
	}
	for name, g := range graphs {
		for _, workers := range []int{1, 2, 3, 7, 8, 16, 200} {
			chunks := make([]int, workers+1)
			g.BalancedChunks(workers, chunks)
			if chunks[0] != 0 || chunks[workers] != g.N() {
				t.Fatalf("%s w=%d: endpoints %d..%d want 0..%d", name, workers, chunks[0], chunks[workers], g.N())
			}
			for k := 0; k < workers; k++ {
				if chunks[k] > chunks[k+1] {
					t.Fatalf("%s w=%d: boundaries not monotone: %v", name, workers, chunks)
				}
			}
			// Every node lands in exactly one chunk by construction; check
			// the weight balance: no chunk exceeds ceil(total/workers) by
			// more than the heaviest single node (indivisible unit).
			total := int64(2*g.M() + g.N())
			limit := total/int64(workers) + int64(g.MaxDegree()+1)
			for k := 0; k < workers; k++ {
				var wgt int64
				for u := chunks[k]; u < chunks[k+1]; u++ {
					wgt += int64(g.Degree(u) + 1)
				}
				if wgt > limit {
					t.Fatalf("%s w=%d chunk %d: weight %d exceeds %d", name, workers, k, wgt, limit)
				}
			}
		}
	}
}

func TestBalancedChunksIsolatesHub(t *testing.T) {
	// On a star the hub holds a third of the total weight (deg+1 = n out of
	// 3n-2), so with 3 workers the first boundary must fall right after the
	// hub — the equal-index split would hand worker 0 the hub plus a third
	// of the leaves.
	g := mustStar(t, 1001)
	chunks := make([]int, 4)
	g.BalancedChunks(3, chunks)
	if chunks[1] != 1 {
		t.Fatalf("star hub split at %d, want 1 (chunks %v)", chunks[1], chunks)
	}
}

func TestBalancedChunksBadArgsPanic(t *testing.T) {
	g := mustPath(t, 4)
	for _, tc := range []struct {
		workers int
		size    int
	}{{0, 1}, {-1, 0}, {2, 2}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d len(chunks)=%d did not panic", tc.workers, tc.size)
				}
			}()
			g.BalancedChunks(tc.workers, make([]int, tc.size))
		}()
	}
}

func mustStar(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.MustBuild()
}

func TestFromCSRRoundTrips(t *testing.T) {
	for _, g := range []*Graph{
		NewBuilder(0).MustBuild(),
		mustPath(t, 9),
		mustStar(t, 12),
		randomGraph(13, 60, 0.1),
	} {
		offsets := make([]int32, len(g.offsets))
		copy(offsets, g.offsets)
		adj := make([]int32, len(g.adj))
		copy(adj, g.adj)
		h, err := FromCSR(offsets, adj)
		if err != nil {
			t.Fatalf("FromCSR rejected Builder output: %v", err)
		}
		if !h.Equal(g) || h.M() != g.M() || h.MaxDegree() != g.MaxDegree() {
			t.Fatalf("FromCSR round trip changed the graph (n=%d)", g.N())
		}
	}
}

func TestFromCSRRejectsMalformed(t *testing.T) {
	cases := map[string]struct {
		offsets []int32
		adj     []int32
	}{
		"empty offsets":     {nil, nil},
		"nonzero start":     {[]int32{1, 1}, nil},
		"length mismatch":   {[]int32{0, 2}, []int32{1}},
		"odd adjacency":     {[]int32{0, 1, 1}, []int32{1}},
		"decreasing":        {[]int32{0, 2, 1, 4}, []int32{1, 2, 0, 0}},
		"out of range":      {[]int32{0, 1, 2}, []int32{1, 2}},
		"negative neighbor": {[]int32{0, 1, 2}, []int32{1, -1}},
		"self loop":         {[]int32{0, 1, 2}, []int32{0, 0}},
		"unsorted list":     {[]int32{0, 2, 3, 5, 6}, []int32{2, 1, 0, 0, 3, 2}},
		"duplicate edge":    {[]int32{0, 2, 4}, []int32{1, 1, 0, 0}},
		"asymmetric":        {[]int32{0, 1, 2, 2}, []int32{1, 2}},
	}
	for name, tc := range cases {
		if _, err := FromCSR(tc.offsets, tc.adj); err == nil {
			t.Errorf("%s: FromCSR accepted malformed input", name)
		}
	}
}

func TestMustFromCSRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromCSR did not panic on bad input")
		}
	}()
	MustFromCSR([]int32{0, 1, 2}, []int32{1, 0, 0})
}
