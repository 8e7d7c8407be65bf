package oned

import (
	"sort"

	"eblow/internal/core"
	"eblow/internal/par"
)

// This file implements the refinement stage (Algorithm 3 of the paper): a
// dynamic program over single-row orderings that exploits the structure of
// the symmetric-blank optimum (characters sorted by blank, each inserted at
// the left or right end) while evaluating the true asymmetric blanks. It
// also contains the row legalisation that drops characters when the
// symmetric-blank estimate was too optimistic.

// partialOrder is one DP state: a packed order of a prefix of the row's
// characters together with its total width and the outer blanks.
type partialOrder struct {
	width int
	left  int // left blank of the leftmost character
	right int // right blank of the rightmost character
	order []int
}

// refineRow finds a near-minimal-width ordering for the characters of a row.
// Characters are processed in decreasing order of symmetric blank; each step
// extends every kept partial solution at the left or the right end and prunes
// dominated solutions, keeping at most pruneThreshold of them.
func refineRow(in *core.Instance, chars []int, pruneThreshold int) []int {
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

	first := &in.Characters[sorted[0]]
	solutions := []partialOrder{{
		width: first.Width,
		left:  first.BlankLeft,
		right: first.BlankRight,
		order: []int{sorted[0]},
	}}

	for _, id := range sorted[1:] {
		c := &in.Characters[id]
		next := make([]partialOrder, 0, 2*len(solutions))
		for _, s := range solutions {
			// Insert at the left end: the character's right blank overlaps
			// with the current left end.
			next = append(next, partialOrder{
				width: s.width + c.Width - min(c.BlankRight, s.left),
				left:  c.BlankLeft,
				right: s.right,
				order: prependCopy(id, s.order),
			})
			// Insert at the right end.
			next = append(next, partialOrder{
				width: s.width + c.Width - min(c.BlankLeft, s.right),
				left:  s.left,
				right: c.BlankRight,
				order: appendCopy(s.order, id),
			})
		}
		solutions = pruneInferior(next, pruneThreshold)
	}

	best := solutions[0]
	for _, s := range solutions[1:] {
		if s.width < best.width {
			best = s
		}
	}
	return best.order
}

func prependCopy(id int, order []int) []int {
	out := make([]int, 0, len(order)+1)
	out = append(out, id)
	return append(out, order...)
}

func appendCopy(order []int, id int) []int {
	out := make([]int, 0, len(order)+1)
	out = append(out, order...)
	return append(out, id)
}

// pruneInferior removes dominated partial solutions. Solution B is dominated
// by A when A is no wider and both of A's outer blanks are at least as large
// (so any future extension of B can be replicated at least as well from A).
// If more than limit solutions survive, the narrowest ones are kept.
func pruneInferior(sols []partialOrder, limit int) []partialOrder {
	sort.Slice(sols, func(i, j int) bool {
		if sols[i].width != sols[j].width {
			return sols[i].width < sols[j].width
		}
		if sols[i].left != sols[j].left {
			return sols[i].left > sols[j].left
		}
		return sols[i].right > sols[j].right
	})
	var kept []partialOrder
	for _, s := range sols {
		dominated := false
		for _, k := range kept {
			if k.width <= s.width && k.left >= s.left && k.right >= s.right {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, s)
		}
	}
	if len(kept) > limit {
		kept = kept[:limit]
	}
	return kept
}

// positionsForOrder packs an ordered row flush left and returns the x
// coordinate of every character's bounding box.
func positionsForOrder(in *core.Instance, order []int) []int {
	xs := make([]int, len(order))
	for k := 1; k < len(order); k++ {
		prev := &in.Characters[order[k-1]]
		cur := &in.Characters[order[k]]
		xs[k] = xs[k-1] + prev.Width - core.HOverlap(prev, cur)
	}
	return xs
}

// refineAllRows orders every row, legalising rows that overflow the stencil
// width by evicting their lowest-profit characters. Rows are refined on the
// worker pool: the DP and the eviction loop of row j only touch row j's
// state and the characters assigned to it (unassign on an evicted character
// mutates s.rows[j], s.assigned[i] and s.solved[i] for a character i that no
// other row holds), so rows are independent and the outcome is identical for
// any worker count.
func (s *solver) refineAllRows() {
	profits := s.currentProfits()
	par.For(s.opt.workerCount(), s.m, func(j int) {
		r := &s.rows[j]
		if len(r.chars) == 0 {
			r.order, r.width = nil, 0
			return
		}
		order := refineRow(s.in, r.chars, s.opt.PruneThreshold)
		width := core.MinRowLength(s.in, order)
		for width > s.w && len(order) > 0 {
			if s.ctx.Err() != nil {
				break // Solve surfaces ctx.Err(); partial orders are discarded
			}
			// Evict the lowest-profit character and re-run the ordering.
			worst := 0
			for k := 1; k < len(order); k++ {
				if profits[order[k]] < profits[order[worst]] {
					worst = k
				}
			}
			evicted := order[worst]
			s.unassign(evicted)
			s.solved[evicted] = true
			order = refineRow(s.in, s.rows[j].chars, s.opt.PruneThreshold)
			width = core.MinRowLength(s.in, order)
		}
		r.order = order
		r.width = width
	})
}

// rowWidthWithOrder recomputes a row's packed width for an arbitrary order.
func (s *solver) rowWidthWithOrder(order []int) int {
	return core.MinRowLength(s.in, order)
}

// buildSolution assembles the final core.Solution from the per-row orders.
func (s *solver) buildSolution() *core.Solution {
	sol := &core.Solution{Selected: s.selection()}
	for j := range s.rows {
		r := &s.rows[j]
		if len(r.order) == 0 {
			continue
		}
		xs := positionsForOrder(s.in, r.order)
		sol.Rows = append(sol.Rows, core.Row{
			Y:     j * s.in.RowHeight,
			Chars: append([]int(nil), r.order...),
			X:     xs,
		})
	}
	sol.PlacementsFromRows()
	return sol
}
