package ilp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"eblow/internal/lp"
)

// multipleKnapsack builds a fixed binary multiple-knapsack: items × sacks
// assignment variables x_ik, one "at most one sack" row per item and one
// capacity row per sack. Profits are strongly correlated with weights
// (profit = weight + 10), the classic hard case for LP-based branch and
// bound, so the tree runs to a few thousand nodes.
func multipleKnapsack(items, sacks int) *Problem {
	rng := rand.New(rand.NewSource(3))
	w := make([]float64, items)
	total := 0.0
	for i := range w {
		w[i] = float64(20 + rng.Intn(80))
		total += w[i]
	}
	n := items * sacks
	p := lp.NewProblem(n)
	obj := make([]float64, n)
	for i := 0; i < items; i++ {
		for k := 0; k < sacks; k++ {
			obj[i*sacks+k] = w[i] + 10
		}
	}
	p.SetObjective(obj, true)
	for i := 0; i < items; i++ {
		terms := make([]lp.Term, sacks)
		for k := range terms {
			terms[k] = lp.Term{Var: i*sacks + k, Coeff: 1}
		}
		p.AddConstraint(terms, lp.LE, 1)
	}
	for k := 0; k < sacks; k++ {
		terms := make([]lp.Term, items)
		for i := range terms {
			terms[i] = lp.Term{Var: i*sacks + k, Coeff: w[i]}
		}
		p.AddConstraint(terms, lp.LE, float64(int(total/float64(2*sacks))+k))
	}
	vars := make([]int, n)
	for j := range vars {
		vars[j] = j
	}
	return NewBinaryProblem(p, vars)
}

// BenchmarkBranchAndBound runs a whole warm-started search on a 40-variable
// multiple-knapsack. Almost all of its time is per-node overhead around a
// handful of dual pivots, so allocs/op divided by the reported nodes/op is
// the per-node allocation cost of a warm re-solve.
func BenchmarkBranchAndBound(b *testing.B) {
	prob := multipleKnapsack(10, 4)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				res, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != Optimal {
					b.Fatalf("status %v", res.Status)
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}
