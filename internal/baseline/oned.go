package baseline

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"eblow/internal/core"
)

// Greedy1D is the "Greedy in [24]" baseline: characters are sorted by static
// profit and appended to the first row with enough remaining width, sharing
// blanks only with the character already at the row end.
func Greedy1D(in *core.Instance) (*core.Solution, error) {
	start := time.Now()
	if err := check1D(in); err != nil {
		return nil, err
	}
	m := in.NumRows()
	rows := make([][]int, m)
	widths := make([]int, m)

	for _, id := range staticOrder(in, false) {
		c := &in.Characters[id]
		for j := 0; j < m; j++ {
			var newWidth int
			if len(rows[j]) == 0 {
				newWidth = c.Width
			} else {
				last := &in.Characters[rows[j][len(rows[j])-1]]
				newWidth = widths[j] + c.Width - core.HOverlap(last, c)
			}
			if newWidth <= in.StencilWidth {
				rows[j] = append(rows[j], id)
				widths[j] = newWidth
				break
			}
		}
	}

	sol := buildRowSolution(in, rows)
	sol.Finalize(in, "Greedy-1D", time.Since(start))
	return sol, nil
}

// RowHeuristic1D is a deterministic row-structure heuristic in the spirit of
// [25]: characters are considered by decreasing profit density, assigned to
// the best-fitting row under the symmetric-blank capacity model and ordered
// inside each row by decreasing blank.
func RowHeuristic1D(in *core.Instance) (*core.Solution, error) {
	start := time.Now()
	if err := check1D(in); err != nil {
		return nil, err
	}
	m := in.NumRows()
	rows := make([][]int, m)
	usedEff := make([]int, m)
	maxBlank := make([]int, m)

	for _, id := range staticOrder(in, false) {
		c := in.Characters[id]
		s := c.SymmetricHBlank()
		eff := c.Width - s
		bestRow, bestSlack := -1, 0
		for j := 0; j < m; j++ {
			mb := maxBlank[j]
			if s > mb {
				mb = s
			}
			slack := in.StencilWidth - usedEff[j] - eff - mb
			if slack >= 0 && (bestRow < 0 || slack < bestSlack) {
				bestRow, bestSlack = j, slack
			}
		}
		if bestRow < 0 {
			continue
		}
		rows[bestRow] = append(rows[bestRow], id)
		usedEff[bestRow] += eff
		if s > maxBlank[bestRow] {
			maxBlank[bestRow] = s
		}
	}

	for j := range rows {
		rows[j] = orderRowByBlank(in, rows[j])
	}
	rows = legalizeRows(in, rows)
	rows = appendInsertion(in, rows)
	sol := buildRowSolution(in, rows)
	sol.Finalize(in, "RowHeuristic-1D", time.Since(start))
	return sol, nil
}

// Heuristic1DOptions configures the two-step heuristic of [24].
type Heuristic1DOptions struct {
	// ImprovementFactor scales the number of local-search attempts
	// (attempts = ImprovementFactor * n). Default 60.
	ImprovementFactor int
	// Seed seeds the local search.
	Seed int64
}

// Heuristic1D reimplements the heuristic framework of [24]: density-ordered
// character selection, first-fit row assignment, blank-sorted in-row
// ordering and a randomized swap-based improvement phase. For MCC instances
// the improvement accepts swaps that reduce the TOTAL writing time over all
// regions (the paper's noted adaptation of [24]), not the maximum, which is
// the key difference from E-BLOW. The context cancels the run: an
// already-done context returns ctx.Err() immediately and a context that
// expires during the improvement phase stops it at the next sweep.
func Heuristic1D(ctx context.Context, in *core.Instance, opt Heuristic1DOptions) (*core.Solution, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := check1D(in); err != nil {
		return nil, err
	}
	if opt.ImprovementFactor <= 0 {
		opt.ImprovementFactor = 60
	}
	m := in.NumRows()
	rows := make([][]int, m)
	usedEff := make([]int, m)
	maxBlank := make([]int, m)
	assignedRow := make([]int, in.NumCharacters())
	for i := range assignedRow {
		assignedRow[i] = -1
	}

	// Step 1: character selection + row assignment (first fit by density).
	for _, id := range staticOrder(in, true) {
		c := in.Characters[id]
		s := c.SymmetricHBlank()
		eff := c.Width - s
		for j := 0; j < m; j++ {
			mb := maxBlank[j]
			if s > mb {
				mb = s
			}
			if usedEff[j]+eff+mb <= in.StencilWidth {
				rows[j] = append(rows[j], id)
				usedEff[j] += eff
				if s > maxBlank[j] {
					maxBlank[j] = s
				}
				assignedRow[id] = j
				break
			}
		}
	}

	// Step 2: randomized swap improvement on the *sum* of region times.
	rng := rand.New(rand.NewSource(opt.Seed))
	selected := make([]bool, in.NumCharacters())
	var unselected []int
	for i := range selected {
		if assignedRow[i] >= 0 {
			selected[i] = true
		} else if in.Characters[i].Width <= in.StencilWidth {
			unselected = append(unselected, i)
		}
	}
	times := in.RegionTimes(selected)
	attempts := opt.ImprovementFactor * in.NumCharacters()
	done := ctx.Done()
	for a := 0; a < attempts && len(unselected) > 0; a++ {
		if a%1024 == 0 {
			select {
			case <-done:
				a = attempts // stop improving; the current rows are feasible
				continue
			default:
			}
		}
		u := unselected[rng.Intn(len(unselected))]
		j := rng.Intn(m)
		if len(rows[j]) == 0 {
			continue
		}
		k := rng.Intn(len(rows[j]))
		v := rows[j][k]
		// Total (sum) objective delta: removing v adds back its reductions,
		// adding u subtracts its reductions.
		var delta int64
		for c := 0; c < in.NumRegions; c++ {
			delta += in.Reduction(v, c) - in.Reduction(u, c)
		}
		if delta >= 0 {
			continue // no improvement of the total writing time
		}
		// Geometric feasibility under the symmetric-blank model.
		cu := in.Characters[u]
		cv := in.Characters[v]
		su, sv := cu.SymmetricHBlank(), cv.SymmetricHBlank()
		newEff := usedEff[j] - (cv.Width - sv) + (cu.Width - su)
		newMax := su
		for _, id := range rows[j] {
			if id == v {
				continue
			}
			if s := in.Characters[id].SymmetricHBlank(); s > newMax {
				newMax = s
			}
		}
		if newEff+newMax > in.StencilWidth {
			continue
		}
		// Apply the swap.
		rows[j][k] = u
		usedEff[j] = newEff
		maxBlank[j] = newMax
		assignedRow[u], assignedRow[v] = j, -1
		selected[u], selected[v] = true, false
		for c := 0; c < in.NumRegions; c++ {
			times[c] += in.Reduction(v, c) - in.Reduction(u, c)
		}
		// Keep the unselected pool up to date.
		unselected[indexOf(unselected, u)] = v
	}

	// Step 3: in-row ordering and legalisation.
	ordered := make([][]int, m)
	for j := range rows {
		ordered[j] = orderRowByBlank(in, rows[j])
	}
	ordered = legalizeRows(in, ordered)
	ordered = appendInsertion(in, ordered)
	sol := buildRowSolution(in, ordered)
	sol.Finalize(in, "Heuristic-1D[24]", time.Since(start))
	return sol, nil
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func check1D(in *core.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Kind != core.OneD {
		return fmt.Errorf("baseline: instance %q is not a 1DOSP instance", in.Name)
	}
	if in.NumRows() == 0 {
		return fmt.Errorf("baseline: stencil of %q has no rows", in.Name)
	}
	return nil
}
