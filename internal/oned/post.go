package oned

import (
	"cmp"
	"slices"
	"sort"

	"eblow/internal/core"
	"eblow/internal/matching"
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
// (row, position, one-for-one before one-for-two) order on ties. bestSwap
// finds that move best-first, walking a swapIndex of the on-stencil
// characters that each applied swap keeps current.
func (s *solver) postSwapOnce() bool {
	times := s.regionTimes()
	profits := s.currentProfits()

	candidates := s.unselectedByProfit(profits, s.opt.PostSwapCandidates)
	if len(candidates) == 0 {
		return false
	}

	nr := s.in.NumRegions
	base := swapBase{times: make([]int64, nr)}
	idx := s.newSwapIndex()
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
		best, bestRow := s.bestSwap(u, idx, &base, cur)
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
			idx.remove(v)
			s.unassign(v)
			for c, r := range s.red[v*nr : (v+1)*nr] {
				times[c] += r
			}
		}
		s.assign(u, bestRow)
		idx.insert(u)
		idx.place(order)
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

// swapIndex is post-swap's walk order: the on-stencil characters sorted by
// ascending (redTotal, id), and each one's position in its row's order.
// The row itself is s.assigned.
type swapIndex struct {
	key []int64 // s.redTotal
	ids []int32 // on-stencil characters by (key, id)
	pos []int32 // pos[v] is v's position in its row's order
}

// newSwapIndex indexes the current stencil.
func (s *solver) newSwapIndex() *swapIndex {
	x := &swapIndex{key: s.redTotal, pos: make([]int32, s.n)}
	for i, j := range s.assigned {
		if j >= 0 {
			x.ids = append(x.ids, int32(i))
		}
	}
	slices.SortFunc(x.ids, x.compare)
	for j := range s.rows {
		x.place(s.rows[j].order)
	}
	return x
}

// compare orders characters by (key, id).
func (x *swapIndex) compare(a, b int32) int {
	return cmp.Or(cmp.Compare(x.key[a], x.key[b]), cmp.Compare(a, b))
}

// remove drops on-stencil character v from the walk order.
func (x *swapIndex) remove(v int) {
	i, _ := slices.BinarySearchFunc(x.ids, int32(v), x.compare)
	x.ids = slices.Delete(x.ids, i, i+1)
}

// insert adds character v to the walk order.
func (x *swapIndex) insert(v int) {
	i, _ := slices.BinarySearchFunc(x.ids, int32(v), x.compare)
	x.ids = slices.Insert(x.ids, i, int32(v))
}

// place records the positions of one row's characters.
func (x *swapIndex) place(order []int) {
	for k, v := range order {
		x.pos[v] = int32(k)
	}
}

// bestSwap returns candidate u's first feasible move with the smallest
// (max, total) that beats cur, with its row, or cur and -1 when none does.
// base holds the region times with u added.
//
// A move's maximum is never below floor, the slowest base region: leaving
// characters only add time back. Once the best move sits at the floor,
// moves compete on total alone, and a move's total is at least base.total
// plus its first leaving character's redTotal. The walk visits leaving
// characters in ascending redTotal, so it stops at the first one whose
// total alone exceeds the best's: no later move can win or tie. As the walk
// is not in (row, position, drop) order, a move that precedes the best in
// that order also wins an exact tie.
func (s *solver) bestSwap(u int, x *swapIndex, base *swapBase, cur swapMove) (swapMove, int) {
	floor := max(0, base.times[base.hot])
	best, bestRow := cur, -1
	for _, v32 := range x.ids {
		v := int(v32)
		if best.max == floor && base.total+s.redTotal[v] > best.total {
			s.swapFloorStops++
			break
		}
		j := s.assigned[v]
		if !s.allowed(u, j) {
			continue
		}
		k := int(x.pos[v])
		order := s.rows[j].order
		// One-for-one replaces order[k] by u; one-for-two replaces the
		// adjacent pair starting at k, the only way a wide character can
		// enter a tightly packed row.
		for drop := 1; drop <= 2 && k+drop <= len(order); drop++ {
			bar := best
			if bestRow >= 0 && (j < bestRow || j == bestRow && (k < best.k || k == best.k && drop < best.drop)) {
				bar.total++ // totals are integers: accept an exact tie
			}
			mv, ok := s.swapCost(base, order[k:k+drop], bar)
			if !ok || s.spliceWidth(j, k, drop, u) > s.w {
				continue
			}
			mv.k, mv.drop = k, drop
			best, bestRow = mv, j
		}
	}
	return best, bestRow
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
	cands, rows, adj := s.insertGraph(s.currentProfits())
	inserted := 0
	for ci, rj := range matching.Greedy(adj, len(rows)) {
		if rj < 0 {
			continue
		}
		u := cands[ci]
		row := &s.rows[rows[rj]]
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
		s.assign(u, rows[rj])
		row.order = order
		row.width = width
		inserted++
	}
	return inserted
}

// insertGraph returns post-insertion's bipartite graph: the candidates
// (unselectedByProfit's order, so non-increasing profit as matching.Greedy
// requires), the rows with spare width in ascending order, and for each
// candidate the indexes into rows it fits, ascending. A candidate fits a
// row it is allowed in when its cheapest gap widens the row by no more
// than the row's slack. The weight of every edge is the candidate's profit.
func (s *solver) insertGraph(profits []float64) (cands, rows []int, adj [][]int) {
	cands = s.unselectedByProfit(profits, s.opt.PostInsertCandidates)
	for j := range s.rows {
		if s.rows[j].width < s.w {
			rows = append(rows, j)
		}
	}
	adj = make([][]int, len(cands))
	for ci, u := range cands {
		for rj, j := range rows {
			if !s.allowed(u, j) {
				continue
			}
			if _, delta := s.bestInsertion(u, s.rows[j].order); delta <= s.w-s.rows[j].width {
				adj[ci] = append(adj[ci], rj)
			}
		}
	}
	return cands, rows, adj
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
