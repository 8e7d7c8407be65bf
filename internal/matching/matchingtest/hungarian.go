// Package matchingtest holds the oracle that tests check matching.Greedy
// against: the O(n³) Hungarian algorithm for general maximum-weight
// bipartite matching, on a square matrix padded with empty cells. No
// production code imports it.
package matchingtest

import "math"

// Hungarian returns the weight of a maximum-weight matching of the
// bipartite graph with len(w) left and nRight right vertices, where
// w[i][r] > 0 is the weight of edge (i, r) and any other value means no
// edge.
func Hungarian(w [][]float64, nRight int) float64 {
	n := max(len(w), nRight)
	// cost is the negated weight, 0 for padding and absent edges, so a
	// minimum-cost perfect assignment is a maximum-weight matching.
	cost := func(i, r int) float64 {
		if i < len(w) && r < nRight && w[i][r] > 0 {
			return -w[i][r]
		}
		return 0
	}
	// Shortest augmenting paths with potentials u (rows) and v (columns),
	// 1-based; p[j] is the row assigned to column j, way[j] the previous
	// column on the path to j.
	u, v := make([]float64, n+1), make([]float64, n+1)
	p, way := make([]int, n+1), make([]int, n+1)
	minv, used := make([]float64, n+1), make([]bool, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j], used[j] = math.Inf(1), false
		}
		for p[j0] != 0 { // p[0] = i enters the first round
			used[j0] = true
			i0, delta, j1 := p[j0], math.Inf(1), 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				if cur := cost(i0-1, j-1) - u[i0] - v[j]; cur < minv[j] {
					minv[j], way[j] = cur, j0
				}
				if minv[j] < delta {
					delta, j1 = minv[j], j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	total := 0.0
	for j := 1; j <= n; j++ {
		total -= cost(p[j]-1, j-1)
	}
	return total
}
