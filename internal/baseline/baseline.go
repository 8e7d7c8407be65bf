// Package baseline reimplements the prior-work planners that the E-BLOW
// paper compares against in Tables 3 and 4:
//
//   - Greedy1D / Greedy2D: the "Greedy in [24]" columns — profit-sorted
//     greedy insertion without any global view.
//   - Heuristic1D: the two-step framework of [24] (character selection,
//     per-row ordering, local-search improvement). Following the paper's
//     note, for MCC instances it optimizes the *total* writing time of all
//     regions rather than the maximum, which is exactly why it loses to
//     E-BLOW on MCC benchmarks.
//   - RowHeuristic1D: a deterministic row-structure heuristic in the spirit
//     of [25] (profit-density ordering, best-fit rows, blank-sorted
//     in-row order) — very fast, no LP.
//   - SA2D: the fixed-outline simulated-annealing floorplanner of [24]
//     (sequence pair, no clustering, total-writing-time objective for MCC).
//
// All planners return core.Solution values that pass the package core
// validators, so the comparison with E-BLOW is apples to apples.
package baseline

import (
	"sort"

	"eblow/internal/core"
)

// staticOrder returns character ids sorted by decreasing static profit
// (optionally divided by the effective width to get a density).
func staticOrder(in *core.Instance, byDensity bool) []int {
	profits := in.StaticProfits()
	ids := make([]int, in.NumCharacters())
	for i := range ids {
		ids[i] = i
	}
	key := func(i int) float64 {
		if !byDensity {
			return profits[i]
		}
		w := float64(in.Characters[i].Width - in.Characters[i].SymmetricHBlank())
		if w <= 0 {
			w = 1
		}
		return profits[i] / w
	}
	sort.Slice(ids, func(a, b int) bool {
		ka, kb := key(ids[a]), key(ids[b])
		if ka != kb {
			return ka > kb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// orderRowByBlank orders a row's characters by decreasing symmetric blank and
// greedily appends each at the end (left or right) that minimizes the packed
// width: the classic two-choice ordering the refinement stage of E-BLOW
// generalises.
func orderRowByBlank(in *core.Instance, chars []int) []int {
	if len(chars) == 0 {
		return nil
	}
	sorted := append([]int(nil), chars...)
	sort.Slice(sorted, func(a, b int) bool {
		sa := in.Characters[sorted[a]].SymmetricHBlank()
		sb := in.Characters[sorted[b]].SymmetricHBlank()
		if sa != sb {
			return sa > sb
		}
		return sorted[a] < sorted[b]
	})
	order := []int{sorted[0]}
	for _, id := range sorted[1:] {
		c := &in.Characters[id]
		left := &in.Characters[order[0]]
		right := &in.Characters[order[len(order)-1]]
		costLeft := c.Width - core.HOverlap(c, left)
		costRight := c.Width - core.HOverlap(right, c)
		if costLeft < costRight {
			order = append([]int{id}, order...)
		} else {
			order = append(order, id)
		}
	}
	return order
}

// rowXs computes the flush-left x positions of an ordered row.
func rowXs(in *core.Instance, order []int) []int {
	xs := make([]int, len(order))
	for k := 1; k < len(order); k++ {
		prev := &in.Characters[order[k-1]]
		cur := &in.Characters[order[k]]
		xs[k] = xs[k-1] + prev.Width - core.HOverlap(prev, cur)
	}
	return xs
}

// buildRowSolution assembles a 1D solution from per-row character orders.
func buildRowSolution(in *core.Instance, rows [][]int) *core.Solution {
	sol := &core.Solution{Selected: make([]bool, in.NumCharacters())}
	for j, order := range rows {
		if len(order) == 0 {
			continue
		}
		for _, id := range order {
			sol.Selected[id] = true
		}
		sol.Rows = append(sol.Rows, core.Row{
			Y:     j * in.RowHeight,
			Chars: append([]int(nil), order...),
			X:     rowXs(in, order),
		})
	}
	sol.PlacementsFromRows()
	return sol
}

// legalizeRows drops the lowest-profit characters from rows that exceed the
// stencil width until every row fits.
func legalizeRows(in *core.Instance, rows [][]int) [][]int {
	profits := in.StaticProfits()
	for j, order := range rows {
		for len(order) > 0 && core.MinRowLength(in, order) > in.StencilWidth {
			worst := 0
			for k := 1; k < len(order); k++ {
				if profits[order[k]] < profits[order[worst]] {
					worst = k
				}
			}
			order = append(order[:worst], order[worst+1:]...)
		}
		rows[j] = order
	}
	return rows
}

// appendInsertion greedily appends still-unselected characters at the right
// end of the first row with enough slack (the right-end-only insertion of
// [24] that the paper's post-insertion stage generalises). rows must already
// be ordered; the function returns the updated orders.
func appendInsertion(in *core.Instance, rows [][]int) [][]int {
	selected := make([]bool, in.NumCharacters())
	for _, order := range rows {
		for _, id := range order {
			selected[id] = true
		}
	}
	widths := make([]int, len(rows))
	for j, order := range rows {
		widths[j] = core.MinRowLength(in, order)
	}
	for _, id := range staticOrder(in, false) {
		if selected[id] {
			continue
		}
		c := &in.Characters[id]
		if c.Width > in.StencilWidth {
			continue
		}
		for j, order := range rows {
			var newWidth int
			if len(order) == 0 {
				newWidth = c.Width
			} else {
				last := &in.Characters[order[len(order)-1]]
				newWidth = widths[j] + c.Width - core.HOverlap(last, c)
			}
			if newWidth <= in.StencilWidth {
				rows[j] = append(rows[j], id)
				widths[j] = newWidth
				selected[id] = true
				break
			}
		}
	}
	return rows
}

// sumInt64 is a small helper for the total-writing-time objective of [24].
func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
