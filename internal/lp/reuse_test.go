package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sameResult fails unless a and b agree bit for bit: status, objective,
// pivot count, vertex and basis.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Status != b.Status || a.Iters != b.Iters ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		t.Fatalf("%s: reused (%v, %v, %d pivots) vs fresh (%v, %v, %d pivots)",
			label, a.Status, a.Objective, a.Iters, b.Status, b.Objective, b.Iters)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: len(X) %d vs %d", label, len(a.X), len(b.X))
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			t.Fatalf("%s: X[%d] = %v vs %v", label, j, a.X[j], b.X[j])
		}
	}
	if (a.Basis == nil) != (b.Basis == nil) {
		t.Fatalf("%s: one result has a basis, the other does not", label)
	}
	if a.Basis != nil {
		if len(a.Basis.Status) != len(b.Basis.Status) {
			t.Fatalf("%s: basis length %d vs %d", label, len(a.Basis.Status), len(b.Basis.Status))
		}
		for j := range a.Basis.Status {
			if a.Basis.Status[j] != b.Basis.Status[j] {
				t.Fatalf("%s: basis status[%d] %v vs %v", label, j, a.Basis.Status[j], b.Basis.Status[j])
			}
		}
	}
}

// slackBasis is the all-logical basis of p in status form. Passing it to
// SolveWarm forces the warm (workspace) path even when no optimal basis
// is at hand; an unsolved problem has none.
func slackBasis(p *Problem) *Basis {
	st := make([]VarStatus, p.NumVars()+p.NumConstraints())
	for i := p.NumVars(); i < len(st); i++ {
		st[i] = Basic
	}
	return &Basis{Status: st}
}

// solveReusedAndFresh warm-solves p in place (reusing its workspace) and
// a fresh Clone from the same basis, and requires identical results.
func solveReusedAndFresh(t *testing.T, label string, p *Problem, warm *Basis) *Result {
	t.Helper()
	fresh, err := SolveWarm(p.Clone(), warm)
	if err != nil {
		t.Fatalf("%s: fresh solve: %v", label, err)
	}
	reused, err := SolveWarm(p, warm)
	if err != nil {
		t.Fatalf("%s: reused solve: %v", label, err)
	}
	sameResult(t, label, reused, fresh)
	return reused
}

// TestReuseMatchesFreshClone walks one Problem through a branch-and-bound
// style sequence of SetBounds + SolveWarm calls: tightened boxes, boxes
// with lo > up, relaxed boxes and a one-pivot MaxIters budget. Every
// re-solve on the cached workspace must equal, bit for bit, a fresh Clone
// solving the same bounds from the same basis.
func TestReuseMatchesFreshClone(t *testing.T) {
	statuses := map[Status]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng, true)
		n := p.NumVars()
		origLo := make([]float64, n)
		origUp := make([]float64, n)
		for j := 0; j < n; j++ {
			origLo[j], origUp[j] = p.LowerBound(j), p.UpperBound(j)
		}
		warm := slackBasis(p)
		var ws *spx
		for step := 0; step < 12; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			p.MaxIters = 0
			j := rng.Intn(n)
			switch rng.Intn(5) {
			case 0: // branch down
				lo := p.LowerBound(j)
				if !math.IsInf(lo, -1) {
					p.SetBounds(j, lo, lo+float64(rng.Intn(3)))
				}
			case 1: // branch up
				if up := p.UpperBound(j); !math.IsInf(up, 1) {
					p.SetBounds(j, math.Max(p.LowerBound(j), up-float64(rng.Intn(3))), up)
				}
			case 2: // an empty box: infeasible before any pivot
				p.SetBounds(j, 5, 4)
			case 3: // backtrack to the root box
				for k := 0; k < n; k++ {
					p.SetBounds(k, origLo[k], origUp[k])
				}
			default: // an exhausted pivot budget
				p.MaxIters = 1
			}
			res := solveReusedAndFresh(t, label, p, warm)
			statuses[res.Status]++
			if res.Basis != nil {
				warm = res.Basis
			}
			if p.ws != nil {
				if ws != nil && p.ws != ws {
					t.Fatalf("%s: SetBounds rebuilt the workspace", label)
				}
				ws = p.ws
			}
			if p.LowerBound(j) > p.UpperBound(j) {
				p.SetBounds(j, origLo[j], origUp[j])
			}
		}
		if ws == nil {
			t.Fatalf("seed %d: no solve ever cached a workspace", seed)
		}
	}
	for _, st := range []Status{Optimal, Infeasible, IterationLimit} {
		if statuses[st] == 0 {
			t.Errorf("no re-solve ended %v; the sequence no longer covers it (%v)", st, statuses)
		}
	}
}

// TestReuseRepairsDependentColumns re-solves from a basis that makes two
// identical columns basic together, so every factorization of the cached
// workspace has to swap a logical in for the dependent column.
func TestReuseRepairsDependentColumns(t *testing.T) {
	p := NewProblem(3)
	p.SetObjective([]float64{3, 3, 1}, true)
	p.AddDense([]float64{1, 1, 1}, LE, 4)
	p.AddDense([]float64{2, 2, 1}, LE, 6)
	p.AddDense([]float64{0, 0, 1}, LE, 3)
	for j := 0; j < 3; j++ {
		p.SetBounds(j, 0, 3)
	}
	dependent := &Basis{Status: []VarStatus{Basic, Basic, AtLower, Basic, AtLower, AtLower}}
	for step, box := range [][2]float64{{0, 3}, {0, 1}, {2, 3}, {0, 0}, {0, 3}} {
		p.SetBounds(0, box[0], box[1])
		res := solveReusedAndFresh(t, fmt.Sprintf("step %d", step), p, dependent)
		if res.Status != Optimal {
			t.Fatalf("step %d: status %v", step, res.Status)
		}
	}
}

// TestReuseInvalidatedByMutators changes the problem with each mutator
// other than SetBounds after a warm solve. The cached workspace must be
// dropped, and the next solve must match a fresh Clone of the mutated
// problem.
func TestReuseInvalidatedByMutators(t *testing.T) {
	mutators := map[string]func(p *Problem){
		"AddConstraint": func(p *Problem) {
			p.AddConstraint([]Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, LE, 1)
		},
		"AddDense":          func(p *Problem) { p.AddDense([]float64{1, 2, 0}, LE, 2) },
		"SetObjective":      func(p *Problem) { p.SetObjective([]float64{1, 5, 1}, true) },
		"SetObjectiveCoeff": func(p *Problem) { p.SetObjectiveCoeff(2, 9) },
		"SetMaximize":       func(p *Problem) { p.SetMaximize(false) },
	}
	for _, name := range []string{"AddConstraint", "AddDense", "SetObjective", "SetObjectiveCoeff", "SetMaximize"} {
		p := NewProblem(3)
		p.SetObjective([]float64{3, 2, 1}, true)
		p.AddDense([]float64{1, 1, 1}, LE, 4)
		p.AddDense([]float64{1, 0, 2}, GE, 1)
		for j := 0; j < 3; j++ {
			p.SetBounds(j, 0, 2)
		}
		first := solveReusedAndFresh(t, name+" before", p, slackBasis(p))
		if p.ws == nil {
			t.Fatalf("%s: the warm solve cached no workspace", name)
		}
		mutators[name](p)
		if p.ws != nil {
			t.Fatalf("%s kept a stale workspace", name)
		}
		after := solveReusedAndFresh(t, name+" after", p, first.Basis)
		if after.Status != Optimal {
			t.Fatalf("%s: status %v after the mutation", name, after.Status)
		}
	}
}

// TestReuseClonesSolveConcurrently clones a template whose workspace is
// already cached and solves the clones on concurrent goroutines under
// distinct bounds (run under -race in CI): clones never share the
// template's workspace, and each result equals the sequential one.
func TestReuseClonesSolveConcurrently(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		tmpl := randomLP(rand.New(rand.NewSource(seed)), false)
		warm := slackBasis(tmpl)
		if _, err := SolveWarm(tmpl, warm); err != nil {
			t.Fatal(err)
		}
		if tmpl.ws == nil {
			t.Fatalf("seed %d: template cached no workspace", seed)
		}
		const workers = 8
		clones := make([]*Problem, workers)
		want := make([]*Result, workers)
		for w := range clones {
			clones[w] = tmpl.Clone()
			j := w % tmpl.NumVars()
			clones[w].SetBounds(j, tmpl.LowerBound(j), tmpl.LowerBound(j)+float64(w%3))
			ref, err := SolveWarm(clones[w].Clone(), warm)
			if err != nil {
				t.Fatal(err)
			}
			want[w] = ref
		}
		got := make([]*Result, workers)
		var wg sync.WaitGroup
		for w := range clones {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Twice per clone: the second solve runs on the clone's
				// own cached workspace.
				for k := 0; k < 2; k++ {
					got[w], _ = SolveWarm(clones[w], warm)
				}
			}(w)
		}
		wg.Wait()
		for w := range clones {
			if got[w] == nil {
				t.Fatalf("seed %d worker %d: solve failed", seed, w)
			}
			sameResult(t, fmt.Sprintf("seed %d worker %d", seed, w), got[w], want[w])
		}
	}
}
