package oned

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// postSwapOnceRef is the original, allocation-heavy post-swap pass, kept
// verbatim as the oracle for TestPostSwapMatchesReferenceWorkers: for every
// candidate it materialises both swapped row orders and every region time
// before looking at the cost. postSwapOnce must pick exactly the swaps this
// function picks.
func (s *solver) postSwapOnceRef() bool {
	times := s.regionTimes()
	profits := s.currentProfits()

	candidates := s.unselectedByProfit(profits, s.opt.PostSwapCandidates)
	if len(candidates) == 0 {
		return false
	}

	reductions := func(i int) []int64 {
		r := make([]int64, s.in.NumRegions)
		for c := range r {
			r[c] = s.in.Reduction(i, c)
		}
		return r
	}
	improvedAny := false

	for _, u := range candidates {
		if s.assigned[u] >= 0 {
			continue
		}
		ru := reductions(u)
		curMax := core.MaxInt64(times)
		curTotal := sumTimes(times)
		bestRow := -1
		var bestOut []int // characters leaving the stencil
		var bestMax, bestTotal int64
		var bestOrder []int

		// A swap is accepted when it strictly reduces the maximum region
		// time, or keeps the maximum and strictly reduces the total writing
		// time; the second case matters when several regions are tied at the
		// maximum and no single swap can lower all of them at once.
		consider := func(j int, out []int, order []int, newMax, newTotal int64) {
			if newMax > curMax || (newMax == curMax && newTotal >= curTotal) {
				return
			}
			if bestRow >= 0 && (newMax > bestMax || (newMax == bestMax && newTotal >= bestTotal)) {
				return
			}
			if s.rowWidthWithOrder(order) > s.w {
				return
			}
			bestRow, bestMax, bestTotal = j, newMax, newTotal
			bestOut = append([]int(nil), out...)
			bestOrder = append([]int(nil), order...)
		}

		after := func(out []int) (int64, int64) {
			var newMax, newTotal int64
			for c := range times {
				t := times[c] - ru[c]
				for _, v := range out {
					t += s.in.Reduction(v, c)
				}
				if t > newMax {
					newMax = t
				}
				newTotal += t
			}
			return newMax, newTotal
		}

		for j := range s.rows {
			if !s.allowed(u, j) {
				continue
			}
			row := &s.rows[j]
			for k, v := range row.order {
				// One-for-one: replace v by u.
				order := append([]int(nil), row.order...)
				order[k] = u
				nm, nt := after([]int{v})
				consider(j, []int{v}, order, nm, nt)
				// One-for-two: replace the adjacent pair (v, next) by u; this
				// is the only way a wide character can enter a tightly packed
				// row.
				if k+1 < len(row.order) {
					v2 := row.order[k+1]
					order2 := make([]int, 0, len(row.order)-1)
					order2 = append(order2, row.order[:k]...)
					order2 = append(order2, u)
					order2 = append(order2, row.order[k+2:]...)
					nm2, nt2 := after([]int{v, v2})
					consider(j, []int{v, v2}, order2, nm2, nt2)
				}
			}
		}
		if bestRow < 0 {
			continue
		}
		// Apply the swap.
		for _, v := range bestOut {
			s.unassign(v)
			for c := range times {
				times[c] += s.in.Reduction(v, c)
			}
		}
		s.assign(u, bestRow)
		row := &s.rows[bestRow]
		row.order = bestOrder
		row.width = s.rowWidthWithOrder(bestOrder)
		for c := range times {
			times[c] -= ru[c]
		}
		improvedAny = true
	}
	return improvedAny
}

// postSwapInput runs the Solve stages that precede post-swap, and the
// set-up postSwap does before its passes, and returns the solver holding
// post-swap's input state.
func postSwapInput(t testing.TB, in *core.Instance, opt Options) *solver {
	t.Helper()
	opt = opt.withDefaults()
	if len(opt.RowGroups) == 0 {
		opt.RowGroups = in.RowGroups
	}
	s, err := newSolver(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	s.successiveRounding()
	if opt.EnableFastConvergence {
		s.fastConvergence()
		s.convergeTail()
	}
	s.refineAllRows()
	s.red, s.redTotal = reductionTable(in)
	return s
}

// swapSnapshot is the solver state one post-swap pass can change.
type swapSnapshot struct {
	Improved bool
	Rows     []rowState
	Assigned []int
	Times    []int64
}

func snapshotSwap(s *solver, improved bool) swapSnapshot {
	rows := make([]rowState, len(s.rows))
	for j, r := range s.rows {
		r.chars = append([]int(nil), r.chars...)
		r.order = append([]int(nil), r.order...)
		rows[j] = r
	}
	return swapSnapshot{
		Improved: improved,
		Rows:     rows,
		Assigned: append([]int(nil), s.assigned...),
		Times:    s.regionTimes(),
	}
}

// postSwapPasses runs post-swap passes the way postSwap does (at most 8,
// until one changes nothing) and snapshots the state after every pass.
func postSwapPasses(s *solver, pass func() bool) []swapSnapshot {
	var snaps []swapSnapshot
	for i := 0; i < 8; i++ {
		improved := pass()
		snaps = append(snaps, snapshotSwap(s, improved))
		if !improved {
			break
		}
	}
	return snaps
}

// tieHeavy rewrites in so reduction totals collide: repeats mod 3 and 2 or 3
// VSB shots per character. Many post-swap moves then tie on (max, total),
// which exercises bestSwap's earlier-position tie rule.
func tieHeavy(in *core.Instance) *core.Instance {
	for i := range in.Characters {
		c := &in.Characters[i]
		c.VSBShots = 2 + i%2
		for r := range c.Repeats {
			c.Repeats[r] %= 3
		}
	}
	return in
}

// The sequential, best-first post-swap must apply exactly the swaps of the
// original row-order pass after every pass, at every worker count (the
// region times and profits it starts from are still computed on the pool).
// A seeded gen.Small sweep, a third of it tie-heavy, backs the hand-picked
// cases.
func TestPostSwapMatchesReferenceWorkers(t *testing.T) {
	banded, groups := groupedInstance(300, 6, 2, 4, 29)
	type swapCase struct {
		name    string
		in      *core.Instance
		groups  []RowGroup
		workers []int
	}
	all := []int{1, 2, 4, 8}
	cases := []swapCase{
		{"small-17", gen.Small(core.OneD, 140, 4, 17), nil, all},
		{"small-23", gen.Small(core.OneD, 200, 6, 23), nil, all},
		{"small-41", gen.Small(core.OneD, 90, 7, 41), nil, all},
		{"banded", banded, groups, all},
		{"1M-1", gen.Family1M(1), nil, all},
	}
	if !testing.Short() {
		cases = append(cases, swapCase{"1M-5", gen.Family1M(5), nil, []int{2}})
	}
	seeds := 120
	if testing.Short() {
		seeds = 40
	}
	for seed := range int64(seeds) {
		in := gen.Small(core.OneD, 60+int(seed*29%160), 1+int(seed%8), 1000+seed)
		name := fmt.Sprintf("sweep-%d", seed)
		if seed%3 == 0 {
			in, name = tieHeavy(in), name+"-ties"
		}
		cases = append(cases, swapCase{name, in, nil, []int{2}})
	}
	swaps, stops := 0, 0
	for _, tc := range cases {
		opt := Defaults()
		opt.RowGroups = tc.groups
		opt.Workers = 1
		ref := postSwapInput(t, tc.in, opt)
		want := postSwapPasses(ref, ref.postSwapOnceRef)
		for _, snap := range want {
			if snap.Improved {
				swaps++
			}
		}
		for _, workers := range tc.workers {
			opt.Workers = workers
			s := postSwapInput(t, tc.in, opt)
			got := postSwapPasses(s, s.postSwapOnce)
			stops += s.swapFloorStops
			if len(got) != len(want) {
				t.Errorf("%s workers=%d: %d passes, reference ran %d", tc.name, workers, len(got), len(want))
				continue
			}
			for p := range want {
				if !reflect.DeepEqual(got[p], want[p]) {
					t.Errorf("%s workers=%d: state after pass %d differs from the reference", tc.name, workers, p)
					break
				}
			}
		}
	}
	t.Logf("%d cases, %d improving reference passes, %d floor stops", len(cases), swaps, stops)
	if swaps == 0 {
		t.Fatal("no case applied a swap; the comparison exercised nothing")
	}
	if stops == 0 {
		t.Fatal("no walk reached the floor stop; the best-first cut-off went untested")
	}
}
