package oned

import (
	"strconv"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// BenchmarkRelaxationDecomposed measures the block-decomposed LP relaxation
// (simplex backend, one MCC column-cell band per region) against the
// monolithic restricted LP, and its multi-worker scaling. One iteration is
// one full relaxation solve of the kind every successive-rounding iteration
// pays; wall-clock per op is the number to watch.
func BenchmarkRelaxationDecomposed(b *testing.B) {
	in, groups := groupedInstance(800, 10, 2, 0, 3)
	run := func(b *testing.B, workers int, monolithic bool) {
		s, unsolved, caps := relaxSolver(b, in, groups, SimplexLP, workers, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if monolithic {
				_, err = s.solveRelaxationMonolithic(unsolved, caps)
			} else {
				_, err = s.solveRelaxation(unsolved, caps)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("monolithic", func(b *testing.B) { run(b, 1, true) })
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("blocks-w"+strconv.Itoa(w), func(b *testing.B) { run(b, w, false) })
	}
}

// BenchmarkRelaxationMCC is the 4000-character MCC-scale variant (10
// column-cell bands of 5 rows). The monolithic dense LP does not fit at this
// scale — the decomposition is what makes the simplex backend feasible at
// all — so only the decomposed solve is measured. Skipped in -short runs.
func BenchmarkRelaxationMCC(b *testing.B) {
	if testing.Short() {
		b.Skip("MCC-scale relaxation benchmark skipped in -short mode")
	}
	in, groups := groupedInstance(4000, 10, 5, 0, 17)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("blocks-w"+strconv.Itoa(w), func(b *testing.B) {
			s, unsolved, caps := relaxSolver(b, in, groups, SimplexLP, w, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.solveRelaxation(unsolved, caps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRelaxationStructured measures the default structured backend on
// the same grouped instance, at MCC scale: the block split also applies
// there (per-band pooled capacities) and must stay cheap.
func BenchmarkRelaxationStructured(b *testing.B) {
	in, groups := groupedInstance(4000, 10, 5, 0, 5)
	for _, w := range []int{1, 4} {
		b.Run("blocks-w"+strconv.Itoa(w), func(b *testing.B) {
			s, unsolved, caps := relaxSolver(b, in, groups, StructuredLP, w, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.solveRelaxation(unsolved, caps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPostSwap measures one post-swap pass on the 1000-character 1M-1
// and the 4000-character 1M-5 instance, from the state the earlier Solve
// stages leave. Each iteration restores that state first, off the clock.
func BenchmarkPostSwap(b *testing.B) {
	benchPass(b, postSwapInput, func(s *solver) bool { return s.postSwapOnce() })
}

// BenchmarkPostInsert measures one post-insertion pass (graph, matching and
// insertions) on 1M-1 and 1M-5, from the state post-swap leaves. Each
// iteration restores that state first, off the clock.
func BenchmarkPostInsert(b *testing.B) {
	benchPass(b, postInsertInput, func(s *solver) bool { return s.postInsertOnce() > 0 })
}

// benchPass times pass on 1M-1 and 1M-5 from the state input returns,
// restored before every iteration, and fails if a pass changes nothing.
func benchPass(b *testing.B, input func(testing.TB, *core.Instance, Options) *solver, pass func(*solver) bool) {
	for _, id := range []int{1, 5} {
		b.Run("1M-"+strconv.Itoa(id), func(b *testing.B) {
			s := input(b, gen.Family1M(id), Defaults())
			rows := append([]rowState(nil), s.rows...)
			assigned := append([]int(nil), s.assigned...)
			solved := append([]bool(nil), s.solved...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Passes replace row orders but append to row chars.
				for j, r := range rows {
					r.chars = append([]int(nil), r.chars...)
					s.rows[j] = r
				}
				copy(s.assigned, assigned)
				copy(s.solved, solved)
				b.StartTimer()
				if !pass(s) {
					b.Fatal("the pass changed nothing")
				}
			}
		})
	}
}
