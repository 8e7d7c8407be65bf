package oned

import (
	"sort"

	"eblow/internal/core"
	"eblow/internal/matching"
	"eblow/internal/par"
)

// This file implements the two post-optimization stages of E-BLOW 1D:
// post-swap (exchange an on-stencil character for a better off-stencil one)
// and post-insertion (insert additional characters into row gaps, formulated
// as a maximum-weight bipartite matching between characters and rows, Fig. 8
// of the paper).

// postSwap runs swap passes until the writing time stops improving. A pass
// tries, for every promising unselected character, to exchange it for one
// on-stencil character (the paper's post-swap) or — when the rows are too
// tightly packed to admit a wider character one-for-one — for two adjacent
// on-stencil characters.
func (s *solver) postSwap() {
	// Built here, not in newSolver: the relaxation's working memory is
	// garbage by now, so the table does not add to the solve's peak.
	s.red, s.redTotal = reductionTable(s.in)
	for pass := 0; pass < 8; pass++ {
		if s.ctx.Err() != nil {
			return
		}
		if !s.postSwapOnce() {
			return
		}
	}
}

// reductionTable returns the flat n×NumRegions table of R_ic
// (core.Instance.Reduction) and each character's row sum.
func reductionTable(in *core.Instance) (red, total []int64) {
	nr := in.NumRegions
	red = make([]int64, len(in.Characters)*nr)
	total = make([]int64, len(in.Characters))
	for i := range in.Characters {
		for c := range nr {
			red[i*nr+c] = in.Reduction(i, c)
			total[i] += red[i*nr+c]
		}
	}
	return red, total
}

// postSwapOnce performs one sweep over the unselected candidates and reports
// whether any swap was applied.
//
// A swap is accepted when it strictly reduces the maximum region time, or
// keeps the maximum and strictly reduces the total writing time; the second
// case matters when several regions are tied at the maximum and no single
// swap can lower all of them at once. Among the feasible swaps for a
// candidate the lexicographically smallest (max, total) wins, the first in
// (row, position, one-for-one before one-for-two) order on ties. Rows are
// scanned on the worker pool, each into its own slot, and the slots are
// merged in row order with the same strict rule, so the choice is the one a
// sequential scan makes, for any worker count.
func (s *solver) postSwapOnce() bool {
	times := s.regionTimes()
	profits := s.currentProfits()

	candidates := s.unselectedByProfit(profits, s.opt.PostSwapCandidates)
	if len(candidates) == 0 {
		return false
	}

	nr := s.in.NumRegions
	base := swapBase{times: make([]int64, nr)}
	moves := make([]swapMove, s.m) // best move per row
	improvedAny := false

	for _, u := range candidates {
		if s.assigned[u] >= 0 {
			continue
		}
		ru := s.red[u*nr : (u+1)*nr]
		base.total, base.hot = 0, 0
		for c, t := range times {
			base.times[c] = t - ru[c]
			base.total += base.times[c]
			if base.times[c] > base.times[base.hot] {
				base.hot = c
			}
		}
		cur := swapMove{max: core.MaxInt64(times), total: sumTimes(times)}
		par.For(s.opt.workerCount(), s.m, func(j int) {
			moves[j] = s.bestSwapInRow(u, j, &base, cur)
		})
		best, bestRow := cur, -1
		for j, mv := range moves {
			if mv.drop > 0 && mv.beats(best) {
				best, bestRow = mv, j
			}
		}
		if bestRow < 0 {
			continue
		}
		// Apply the swap.
		row := &s.rows[bestRow]
		order := make([]int, 0, len(row.order)-best.drop+1)
		order = append(order, row.order[:best.k]...)
		order = append(order, u)
		order = append(order, row.order[best.k+best.drop:]...)
		for _, v := range row.order[best.k : best.k+best.drop] {
			s.unassign(v)
			for c, r := range s.red[v*nr : (v+1)*nr] {
				times[c] += r
			}
		}
		s.assign(u, bestRow)
		row.order = order
		row.width = s.rowWidthWithOrder(order)
		for c := range times {
			times[c] -= ru[c]
		}
		improvedAny = true
	}
	return improvedAny
}

// swapBase is the region times with one swap candidate added to the
// stencil, before any character leaves it.
type swapBase struct {
	times []int64
	total int64 // sum of times
	hot   int   // index of the slowest region
}

// swapMove is a post-swap move inside one row: the drop (1 or 2) adjacent
// characters at order position k leave the stencil for the candidate, and
// the region times become ones with maximum max (floored at zero) and sum
// total. drop 0 means no move.
type swapMove struct {
	max, total int64
	k, drop    int
}

// beats reports whether m has a strictly smaller (max, total) than o.
func (m swapMove) beats(o swapMove) bool {
	return m.max < o.max || (m.max == o.max && m.total < o.total)
}

// bestSwapInRow returns row j's first feasible move with the smallest
// (max, total) that beats bar, or bar itself when none does. base holds
// the region times with candidate u added. It only reads solver state, so
// rows can be scanned concurrently.
func (s *solver) bestSwapInRow(u, j int, base *swapBase, bar swapMove) swapMove {
	if !s.allowed(u, j) {
		return bar
	}
	order := s.rows[j].order
	for k := range order {
		// One-for-one replaces order[k] by u; one-for-two replaces the
		// adjacent pair starting at k, the only way a wide character can
		// enter a tightly packed row.
		for drop := 1; drop <= 2 && k+drop <= len(order); drop++ {
			mv, ok := s.swapCost(base, order[k:k+drop], bar)
			if !ok || s.spliceWidth(j, k, drop, u) > s.w {
				continue
			}
			mv.k, mv.drop = k, drop
			bar = mv
		}
	}
	return bar
}

// swapCost evaluates the region times of base once the characters in out
// leave the stencil, and reports whether the resulting (max, total) beats
// bar. The total and a lower bound on the maximum — the slowest base
// region — cost O(len(out)) and reject most moves; the full maximum is
// scanned only for the rest, and abandoned once a region exceeds bar.max.
func (s *solver) swapCost(base *swapBase, out []int, bar swapMove) (swapMove, bool) {
	nr := len(base.times)
	mv := swapMove{total: base.total}
	lower := base.times[base.hot]
	for _, v := range out {
		mv.total += s.redTotal[v]
		lower += s.red[v*nr+base.hot]
	}
	if lower > bar.max || (lower == bar.max && mv.total >= bar.total) {
		return mv, false
	}
	for c, t := range base.times {
		for _, v := range out {
			t += s.red[v*nr+c]
		}
		if t > bar.max {
			return mv, false
		}
		mv.max = max(mv.max, t)
	}
	return mv, mv.beats(bar)
}

// spliceWidth returns the packed width of row j's order with its drop
// characters from position k replaced by u. It starts from the row's width
// (always core.MinRowLength of its order) and redoes only the joints the
// splice changes, so it costs O(drop) whatever the row's length.
func (s *solver) spliceWidth(j, k, drop, u int) int {
	order := s.rows[j].order
	cs := s.in.Characters
	cu := &cs[u]
	width := s.rows[j].width + cu.Width
	for p := k; p < k+drop; p++ {
		width -= cs[order[p]].Width
		if p > k {
			width += core.HOverlap(&cs[order[p-1]], &cs[order[p]])
		}
	}
	if k > 0 {
		prev := &cs[order[k-1]]
		width += core.HOverlap(prev, &cs[order[k]]) - core.HOverlap(prev, cu)
	}
	if end := k + drop; end < len(order) {
		next := &cs[order[end]]
		width += core.HOverlap(&cs[order[end-1]], next) - core.HOverlap(cu, next)
	}
	return width
}

// sumTimes returns the total writing time over all regions.
func sumTimes(times []int64) int64 {
	var s int64
	for _, t := range times {
		s += t
	}
	return s
}

// postInsert repeatedly runs the matching-based insertion until no further
// characters can be added, then finishes with a plain right-end append pass
// so trailing slack in the rows never goes unused.
func (s *solver) postInsert() {
	for pass := 0; pass < 12; pass++ {
		if s.ctx.Err() != nil {
			return
		}
		if s.postInsertOnce() == 0 {
			break
		}
	}
	s.appendRemaining()
}

// postInsertOnce inserts additional characters into rows with spare width
// and returns the number of insertions. The assignment of characters to rows
// is a maximum-weight bipartite matching with at most one insertion per row
// (Fig. 8 of the paper); the insertion point inside a row is the gap with
// the smallest width increase.
func (s *solver) postInsertOnce() int {
	profits := s.currentProfits()
	candidates := s.unselectedByProfit(profits, s.opt.PostInsertCandidates)
	if len(candidates) == 0 {
		return 0
	}

	// Rows with spare capacity.
	type rowSlack struct {
		row   int
		slack int
	}
	var rows []rowSlack
	for j := range s.rows {
		slack := s.w - s.rows[j].width
		if slack > 0 {
			rows = append(rows, rowSlack{row: j, slack: slack})
		}
	}
	if len(rows) == 0 {
		return 0
	}

	var edges []matching.Edge
	for ci, u := range candidates {
		for rj, rs := range rows {
			if !s.allowed(u, rs.row) {
				continue
			}
			if _, delta := s.bestInsertion(u, s.rows[rs.row].order); delta <= rs.slack {
				edges = append(edges, matching.Edge{L: ci, R: rj, Weight: profits[u]})
			}
		}
	}
	if len(edges) == 0 {
		return 0
	}
	inserted := 0
	match, _ := matching.MaxWeight(len(candidates), len(rows), edges)
	for ci, rj := range match {
		if rj < 0 {
			continue
		}
		u := candidates[ci]
		rowIdx := rows[rj].row
		row := &s.rows[rowIdx]
		// The matching gives each row at most one insertion, so the row is
		// still as it was when its edge was built: recomputing the gap
		// finds the same one.
		gap, _ := s.bestInsertion(u, row.order)
		order := make([]int, 0, len(row.order)+1)
		order = append(order, row.order[:gap]...)
		order = append(order, u)
		order = append(order, row.order[gap:]...)
		width := s.rowWidthWithOrder(order)
		if width > s.w {
			continue // the symmetric estimate was off; skip this insertion
		}
		s.assign(u, rowIdx)
		row.order = order
		row.width = width
		inserted++
	}
	return inserted
}

// appendRemaining greedily appends any remaining positive-profit characters
// at the right end of the first row with enough slack (the simple insertion
// of the prior work, used here as a final clean-up).
func (s *solver) appendRemaining() {
	profits := s.currentProfits()
	candidates := s.unselectedByProfit(profits, s.n)
	for _, u := range candidates {
		cu := &s.in.Characters[u]
		for j := range s.rows {
			if !s.allowed(u, j) {
				continue
			}
			row := &s.rows[j]
			var newWidth int
			if len(row.order) == 0 {
				newWidth = cu.Width
			} else {
				last := &s.in.Characters[row.order[len(row.order)-1]]
				newWidth = row.width + cu.Width - core.HOverlap(last, cu)
			}
			if newWidth <= s.w {
				s.assign(u, j)
				row.order = append(row.order, u)
				row.width = newWidth
				break
			}
		}
	}
}

// bestInsertion returns the gap index (0..len(order)) with the smallest width
// increase when inserting character u into the ordered row, and that
// increase.
func (s *solver) bestInsertion(u int, order []int) (int, int) {
	cu := &s.in.Characters[u]
	if len(order) == 0 {
		return 0, cu.Width
	}
	bestGap, bestDelta := -1, 0
	for gap := 0; gap <= len(order); gap++ {
		var delta int
		switch gap {
		case 0:
			first := &s.in.Characters[order[0]]
			delta = cu.Width - core.HOverlap(cu, first)
		case len(order):
			last := &s.in.Characters[order[len(order)-1]]
			delta = cu.Width - core.HOverlap(last, cu)
		default:
			a := &s.in.Characters[order[gap-1]]
			b := &s.in.Characters[order[gap]]
			delta = cu.Width - core.HOverlap(a, cu) - core.HOverlap(cu, b) + core.HOverlap(a, b)
		}
		if bestGap < 0 || delta < bestDelta {
			bestGap, bestDelta = gap, delta
		}
	}
	return bestGap, bestDelta
}

// unselectedByProfit returns up to limit unselected characters with positive
// profit, sorted by decreasing profit.
func (s *solver) unselectedByProfit(profits []float64, limit int) []int {
	var ids []int
	for i := 0; i < s.n; i++ {
		if s.assigned[i] < 0 && profits[i] > 0 && s.width[i] <= s.w {
			ids = append(ids, i)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		if profits[ids[a]] != profits[ids[b]] {
			return profits[ids[a]] > profits[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if len(ids) > limit {
		ids = ids[:limit]
	}
	return ids
}
