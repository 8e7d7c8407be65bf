package oned

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"eblow/internal/core"
	"eblow/internal/gen"
	"eblow/internal/matching"
	"eblow/internal/matching/matchingtest"
)

// postInsertInput runs the Solve stages that precede post-insertion and
// returns the solver holding post-insertion's input state.
func postInsertInput(t testing.TB, in *core.Instance, opt Options) *solver {
	t.Helper()
	s := postSwapInput(t, in, opt)
	if s.opt.EnablePostSwap {
		s.postSwap()
	}
	return s
}

// At every post-insert pass, the profit matching.Greedy matches must equal
// the Hungarian oracle's maximum on the same graph. A seeded gen.Small sweep
// backs 1M-1..1M-5, whose writing times are pinned outside -short.
func TestPostInsertMatchesHungarian(t *testing.T) {
	type insertCase struct {
		name string
		in   *core.Instance
		want int64 // pinned writing time, 0 for none
	}
	var cases []insertCase
	seeds := 120
	if testing.Short() {
		seeds = 40
	}
	for seed := range int64(seeds) {
		in := gen.Small(core.OneD, 60+int(seed*37%190), 1+int(seed%8), 2000+seed)
		cases = append(cases, insertCase{fmt.Sprintf("sweep-%d", seed), in, 0})
	}
	if !testing.Short() {
		for id, want := range []int64{10847, 9875, 11258, 15126, 35526} {
			cases = append(cases, insertCase{fmt.Sprintf("1M-%d", id+1), gen.Family1M(id + 1), want})
		}
	}
	graphs, contested := 0, 0
	for _, tc := range cases {
		opt := Defaults()
		opt.Workers = 2
		// As in TestGoldenObjectives: a limit the fast-convergence ILP never
		// reaches, so a loaded machine cannot cut its search differently.
		opt.ILPTimeLimit = 10 * time.Minute
		s := postInsertInput(t, tc.in, opt)
		// The passes of postInsert, with the oracle beside each matching.
		for pass := 0; pass < 12; pass++ {
			profits := s.currentProfits()
			cands, rows, adj := s.insertGraph(profits)
			w := make([][]float64, len(cands))
			degree := make([]int, len(rows))
			for ci, rs := range adj {
				w[ci] = make([]float64, len(rows))
				for _, rj := range rs {
					w[ci][rj] = profits[cands[ci]]
					degree[rj]++
				}
			}
			got := 0.0
			for ci, rj := range matching.Greedy(adj, len(rows)) {
				if rj >= 0 {
					got += profits[cands[ci]]
				}
			}
			want := matchingtest.Hungarian(w, len(rows))
			if math.Abs(got-want) > 1e-9*max(1, math.Abs(want)) {
				t.Errorf("%s pass %d: greedy matched profit %v, Hungarian %v", tc.name, pass, got, want)
			}
			graphs++
			for _, d := range degree {
				if d > 1 {
					contested++
					break
				}
			}
			if s.postInsertOnce() == 0 {
				break
			}
		}
		if tc.want == 0 {
			continue
		}
		s.appendRemaining()
		staged := s.buildSolution()
		staged.Finalize(tc.in, "", 0)
		sol, _, err := Solve(context.Background(), tc.in, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sol.WritingTime != tc.want || staged.WritingTime != tc.want {
			t.Errorf("%s: writing time %d (staged %d), want %d", tc.name, sol.WritingTime, staged.WritingTime, tc.want)
		}
	}
	t.Logf("%d cases, %d post-insert graphs, %d with a row two candidates compete for", len(cases), graphs, contested)
	if contested == 0 {
		t.Fatal("no graph had a contested row; the comparison exercised no real matching")
	}
}
