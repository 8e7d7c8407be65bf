package matching

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"eblow/internal/matching/matchingtest"
)

func TestEmptyInputs(t *testing.T) {
	if m := Greedy(nil, 0); len(m) != 0 {
		t.Errorf("empty: %v", m)
	}
	if m := Greedy([][]int{{0}, {0}, {0}}, 0); !slices.Equal(m, []int{-1, -1, -1}) {
		t.Errorf("no right side: %v", m)
	}
	if m := Greedy(make([][]int, 2), 2); !slices.Equal(m, []int{-1, -1}) {
		t.Errorf("no edges: %v", m)
	}
}

func TestSimpleAssignment(t *testing.T) {
	// Left 0 takes row 0 first; left 1 can only use row 0, so the
	// augmenting path moves left 0 over to row 1.
	if m := Greedy([][]int{{0, 1}, {0}}, 2); !slices.Equal(m, []int{1, 0}) {
		t.Errorf("matching = %v, want [1 0]", m)
	}
}

func TestUnbalancedSides(t *testing.T) {
	// Three left vertices, heaviest first, one right: only the heaviest is
	// matched.
	if m := Greedy([][]int{{0}, {0}, {0}}, 1); !slices.Equal(m, []int{0, -1, -1}) {
		t.Errorf("matching = %v, want [0 -1 -1]", m)
	}
}

func TestIgnoresNegativeAndOutOfRangeEdges(t *testing.T) {
	m := Greedy([][]int{{-1, 9}, {1, 2}}, 2)
	if !slices.Equal(m, []int{-1, 1}) {
		t.Errorf("matching = %v, want [-1 1]", m)
	}
}

// Every edge of a left vertex carries that vertex's weight, so repeated
// entries are one edge: the vertex is matched (and counted) once.
func TestDuplicateEdgesKeepMax(t *testing.T) {
	m := Greedy([][]int{{0, 0, 0}, {0, 0}}, 1)
	if !slices.Equal(m, []int{0, -1}) {
		t.Errorf("matching = %v, want [0 -1]", m)
	}
}

// vertexGraph is a random vertex-weighted bipartite graph: weights in
// non-increasing order (ties included) and adjacency lists in ascending
// order, as Greedy requires.
type vertexGraph struct {
	weights []float64
	adj     [][]int
	nRight  int
}

// randomGraph draws a graph with nL left and nR right vertices in which
// each edge is present with probability p.
func randomGraph(rng *rand.Rand, nL, nR int, p float64) vertexGraph {
	g := vertexGraph{weights: make([]float64, nL), adj: make([][]int, nL), nRight: nR}
	for i := range g.weights {
		g.weights[i] = float64(1 + rng.Intn(40))
	}
	slices.Sort(g.weights)
	slices.Reverse(g.weights)
	for i := range g.adj {
		for r := range nR {
			if rng.Float64() < p {
				g.adj[i] = append(g.adj[i], r)
			}
		}
	}
	return g
}

// dense returns g's weight matrix, 0 where there is no edge.
func (g vertexGraph) dense() [][]float64 {
	w := make([][]float64, len(g.adj))
	for i, rs := range g.adj {
		w[i] = make([]float64, g.nRight)
		for _, r := range rs {
			w[i][r] = g.weights[i]
		}
	}
	return w
}

// total returns the weight of a matching of g, or -1 when it is not one:
// a right vertex is used twice or an edge is not in g.
func (g vertexGraph) total(match []int) float64 {
	used := make(map[int]bool)
	sum := 0.0
	for i, r := range match {
		if r == -1 {
			continue
		}
		if used[r] || !slices.Contains(g.adj[i], r) {
			return -1
		}
		used[r] = true
		sum += g.weights[i]
	}
	return sum
}

// bruteForce finds the optimal matching weight by trying every injective
// assignment of left vertices to right vertices (including leaving vertices
// unmatched).
func bruteForce(nLeft, nRight int, w [][]float64) float64 {
	best := 0.0
	usedR := make([]bool, nRight)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc > best {
			best = acc
		}
		if i == nLeft {
			return
		}
		rec(i+1, acc) // leave i unmatched
		for r := 0; r < nRight; r++ {
			if !usedR[r] && w[i][r] > 0 {
				usedR[r] = true
				rec(i+1, acc+w[i][r])
				usedR[r] = false
			}
		}
	}
	rec(0, 0)
	return best
}

// Property: on small random vertex-weighted graphs the greedy total equals
// brute force and the Hungarian oracle.
func TestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(7), 1+rng.Intn(7), 0.4)
		got := g.total(Greedy(g.adj, g.nRight))
		w := g.dense()
		hung := matchingtest.Hungarian(w, g.nRight)
		want := bruteForce(len(g.adj), g.nRight, w)
		return got == want && math.Abs(hung-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: on sparse graphs of post-insertion's shape (up to 200
// candidates, 50 rows, about two edges per row) the greedy total equals the
// Hungarian oracle's.
func TestMatchesHungarianSparse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL, nR := 20+rng.Intn(181), 5+rng.Intn(46)
		g := randomGraph(rng, nL, nR, 2/float64(nL))
		got := g.total(Greedy(g.adj, g.nRight))
		want := matchingtest.Hungarian(g.dense(), g.nRight)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the result is a matching — injective, and only along edges of
// the graph, duplicated and out-of-range adjacency entries included.
func TestMatchingIsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.5)
		adj := make([][]int, len(g.adj))
		for i, rs := range g.adj {
			adj[i] = append(slices.Clone(rs), rs...)
			adj[i] = append(adj[i], -1, g.nRight)
		}
		match := Greedy(adj, g.nRight)
		return len(match) == len(g.adj) && g.total(match) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// matchSink keeps BenchmarkMatching's calls from being optimized away.
var matchSink []int

// BenchmarkMatching measures one Greedy call on a graph of post-insertion's
// shape: 200 candidates, 50 rows, about 100 edges.
func BenchmarkMatching(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(1)), 200, 50, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchSink = Greedy(g.adj, g.nRight)
	}
}
