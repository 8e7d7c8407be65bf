// Package matching implements maximum-weight bipartite matching for graphs
// whose edge weights depend only on the left vertex. E-BLOW uses it in the
// post-insertion stage of the 1D planner: unselected characters are matched
// to stencil rows with spare capacity so that the total inserted profit is
// maximized under the constraint of at most one insertion per row (Fig. 8 of
// the paper). Every edge of a character carries that character's profit.
package matching

// Greedy computes a maximum-weight matching of a bipartite graph with
// len(adj) left vertices and nRight right vertices, where every edge of left
// vertex i has the same weight w_i > 0. adj[i] lists i's admissible right
// vertices in ascending order; entries outside [0, nRight) are ignored.
//
// Precondition: left vertices are given in non-increasing weight order
// (w_0 >= w_1 >= ...). The sets of left vertices that can be matched
// together form a transversal matroid, so taking them in that order and
// keeping each one that an augmenting path can add yields a maximum-weight
// matching (Rado–Edmonds). The augmenting path is Kuhn's depth-first search,
// trying right vertices in adj order; the first path found is used.
//
// It returns the matched right vertex for every left vertex, -1 when
// unmatched. The cost is O(V·E) on the sparse graph.
func Greedy(adj [][]int, nRight int) []int {
	match := make([]int, len(adj)) // left -> right, -1 when unmatched
	owner := make([]int, nRight)   // right -> left, -1 when free
	seen := make([]int, nRight)    // seen[r] == stamp once this search visited r
	for i := range match {
		match[i] = -1
	}
	for r := range owner {
		owner[r] = -1
	}
	stamp := 0
	// augment looks for an augmenting path from left vertex i and flips it,
	// reporting whether one was found.
	var augment func(i int) bool
	augment = func(i int) bool {
		for _, r := range adj[i] {
			if r < 0 || r >= nRight || seen[r] == stamp {
				continue
			}
			seen[r] = stamp
			if o := owner[r]; o < 0 || augment(o) {
				owner[r], match[i] = i, r
				return true
			}
		}
		return false
	}
	for i := range adj {
		stamp = i + 1
		augment(i)
	}
	return match
}
