package graph

import (
	"fmt"
	"slices"
	"testing"
)

// referenceBuild is the naive specification Build must meet: append both
// arcs of every edge, sort each adjacency list, and report the
// lexicographically smallest repeated pair (u,v), u < v. It returns the CSR
// arrays, or the duplicate error text.
func referenceBuild(n int, edges [][2]int) (offsets, adj []int32, dupErr string) {
	lists := make([][]int32, n)
	for _, e := range edges {
		lists[e[0]] = append(lists[e[0]], int32(e[1]))
		lists[e[1]] = append(lists[e[1]], int32(e[0]))
	}
	offsets = make([]int32, n+1)
	for u, l := range lists {
		slices.Sort(l)
		for i := 1; i < len(l) && dupErr == ""; i++ {
			if l[i] == l[i-1] && int(l[i]) > u {
				dupErr = fmt.Sprintf("graph: duplicate edge (%d,%d)", u, l[i])
			}
		}
		offsets[u+1] = offsets[u] + int32(len(l))
		adj = append(adj, l...)
	}
	if adj == nil {
		adj = []int32{}
	}
	return offsets, adj, dupErr
}

// FuzzBuilderBuild checks Build against referenceBuild on arbitrary edge
// lists. The input is a node count and a byte string read as endpoint pairs
// modulo n; self-loop pairs are skipped (AddEdge panics on them by contract).
func FuzzBuilderBuild(f *testing.F) {
	f.Add(uint8(0), []byte{})                                               // empty graph
	f.Add(uint8(5), []byte{})                                               // isolated nodes
	f.Add(uint8(9), []byte{0, 1, 0, 2, 0, 3, 4, 0, 0, 5, 8, 0, 0, 7, 6, 0}) // star hub
	f.Add(uint8(3), []byte{0, 1, 1, 0})                                     // duplicate, reversed second
	f.Add(uint8(3), []byte{1, 0, 0, 1})                                     // duplicate, reversed first
	f.Add(uint8(6), []byte{4, 5, 2, 3, 5, 4, 3, 2, 0, 1})                   // smallest repeat inserted last
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := int(nb)
		var edges [][2]int
		if n > 0 {
			for i := 0; i+1 < len(data); i += 2 {
				u, v := int(data[i])%n, int(data[i+1])%n
				if u != v {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g, err := b.Build()
		offsets, adj, dupErr := referenceBuild(n, edges)
		if dupErr != "" {
			if err == nil || err.Error() != dupErr {
				t.Fatalf("Build error = %v, want %q", err, dupErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Build rejected a simple edge list: %v", err)
		}
		ref, err := FromCSR(offsets, adj)
		if err != nil {
			t.Fatalf("reference CSR rejected by FromCSR: %v", err)
		}
		if !g.Equal(ref) || g.MaxDegree() != ref.MaxDegree() {
			t.Fatalf("Build = %v, reference = %v", g, ref)
		}
		if _, err := FromCSR(g.offsets, g.adj); err != nil {
			t.Fatalf("Build output rejected by FromCSR: %v", err)
		}
	})
}

// TestBuildAllocsIndependentOfN pins Build's allocation count as a constant:
// the same at n=64 as at n=4096. A per-node comparison sort (sort.Slice
// allocates a swapper per call) would scale it with n.
func TestBuildAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			b.AddEdge(u, (u+1)%n)
			if u < n/2 {
				b.AddEdge(u, u+n/2)
			}
		}
		// Build leaves the builder untouched, so it can be re-run as is.
		return testing.AllocsPerRun(20, func() { b.MustBuild() })
	}
	small, large := allocs(64), allocs(4096)
	if small != large {
		t.Fatalf("Build allocs: %v at n=64, %v at n=4096; want a constant", small, large)
	}
}

// FuzzFromCSR checks FromCSR on arbitrary arrays: it either returns an
// error — never panics — or a graph Equal to the Builder's graph over the
// same edges. Each input byte is one int32 entry read as a signed byte, so
// negative offsets and neighbors are reachable.
func FuzzFromCSR(f *testing.F) {
	seed := func(offsets, adj []int8) {
		f.Add(int8Bytes(offsets), int8Bytes(adj))
	}
	seed([]int8{0}, nil)                                  // empty graph
	seed([]int8{0, 1, 3, 4}, []int8{1, 0, 2, 1})          // path 0-1-2
	seed([]int8{0, 3, 4, 5, 6}, []int8{1, 2, 3, 0, 0, 0}) // star
	seed(nil, nil)                                        // empty offsets
	seed([]int8{1, 1}, nil)                               // nonzero start
	seed([]int8{0, 2}, []int8{1})                         // length mismatch
	seed([]int8{0, 1, 1}, []int8{1})                      // odd adjacency
	seed([]int8{0, 2, 1, 4}, []int8{1, 2, 0, 0})          // decreasing
	seed([]int8{0, 5, 2}, []int8{1, 0})                   // interior offset past adj
	seed([]int8{0, 1, 2}, []int8{1, 2})                   // out of range
	seed([]int8{0, 1, 2}, []int8{1, -1})                  // negative neighbor
	seed([]int8{0, 1, 2}, []int8{0, 0})                   // self loop
	seed([]int8{0, 2, 3, 5, 6}, []int8{2, 1, 0, 0, 3, 2}) // unsorted list
	seed([]int8{0, 2, 4}, []int8{1, 1, 0, 0})             // duplicate edge
	seed([]int8{0, 1, 2, 2}, []int8{1, 2})                // asymmetric
	f.Fuzz(func(t *testing.T, ob, ab []byte) {
		offsets, adj := bytesInt32(ob), bytesInt32(ab)
		g, err := FromCSR(offsets, adj)
		if err != nil {
			return
		}
		n := len(offsets) - 1
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if int(v) > u {
					b.AddEdge(u, int(v))
				}
			}
		}
		want, err := b.Build()
		if err != nil {
			t.Fatalf("FromCSR accepted %v %v, but its edges do not build: %v", offsets, adj, err)
		}
		if !g.Equal(want) || g.M() != want.M() || g.MaxDegree() != want.MaxDegree() {
			t.Fatalf("FromCSR(%v, %v) = %v, Builder = %v", offsets, adj, g, want)
		}
	})
}

func int8Bytes(s []int8) []byte {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte(v)
	}
	return b
}

func bytesInt32(b []byte) []int32 {
	s := make([]int32, len(b))
	for i, v := range b {
		s[i] = int32(int8(v))
	}
	return s
}
