package lp

import "math"

// luFactor is a sparse LU factorization of the simplex basis matrix with
// product-form (eta) updates appended per pivot. The factorization is a
// column-ordered Doolittle elimination with partial pivoting over the
// basis columns; each pivot after that appends one eta transform instead
// of refactorizing, and the solver refactorizes from scratch every
// refactorEvery pivots (or when a pivot is numerically unusable) to keep
// the eta file short and the factors accurate.
//
// ftran solves B z = rhs (z indexed by basis position), btran solves
// B' y = c (c indexed by basis position, y by row) — the two kernels every
// revised-simplex iteration is built from.
type luFactor struct {
	m int

	// LU factors, one entry per pivot t in elimination order: pivRow[t]
	// is the pivot row, pivVal[t] the pivot value, lRows/lVals[t] the
	// below-pivot multipliers (rows still unpivoted at stage t) and
	// uRows/uVals[t] the column-t entries of U in earlier pivot
	// coordinates (t2 < t).
	pivRow []int32
	pivVal []float64
	lRows  [][]int32
	lVals  [][]float64
	uRows  [][]int32
	uVals  [][]float64

	// Product-form update etas, in application order. Each records the
	// basis position it replaced, the pivot element of the transformed
	// entering column and the remaining nonzero entries.
	etas []luEta

	// scratch buffers reused across factorizations and solves
	work    []float64
	ybuf    []float64
	pivoted []bool
	touched []int32
	repairs []basisRepair
}

type luEta struct {
	pos  int32
	piv  float64
	rows []int32
	vals []float64
}

// singTol is the absolute pivot magnitude below which a basis column is
// treated as linearly dependent and replaced by a logical column.
const singTol = 1e-10

// luDropTol drops negligible fill-in from the stored factors.
const luDropTol = 1e-13

// refactorEvery bounds the eta file length before the solver rebuilds the
// LU factors from scratch.
const refactorEvery = 64

// basisRepair records one column the factorization had to replace: the
// basis position, the variable that was evicted, and the logical variable
// (expressed as a row index) that took its place.
type basisRepair struct {
	pos    int
	oldVar int
	row    int
}

// factorize rebuilds the LU factors for the basis described by heading,
// whose columns a supplies. When a column turns out dependent it is
// replaced in heading by the logical of the lowest-numbered unpivoted row
// whose logical is not already basic, and the replacement is returned so
// the caller can fix variable statuses; the returned slice is scratch,
// valid until the next factorize. logicalInBasis must report, per logical
// row index, whether that row's logical is currently in heading;
// factorize updates it for replacements.
//
// Every buffer, the per-column factor slices included, is resliced from
// the previous factorization, so once the storage has grown to its working
// size a refactorization allocates nothing.
func (f *luFactor) factorize(m int, heading []int, a *csc, logicalInBasis []bool) []basisRepair {
	f.m = m
	f.pivRow = f.pivRow[:0]
	f.pivVal = f.pivVal[:0]
	f.lRows = resize(f.lRows, m)
	f.lVals = resize(f.lVals, m)
	f.uRows = resize(f.uRows, m)
	f.uVals = resize(f.uVals, m)
	f.etas = f.etas[:0]
	f.work = resize(f.work, m)
	f.ybuf = resize(f.ybuf, m)
	f.pivoted = resize(f.pivoted, m)
	work, pivoted := f.work, f.pivoted
	for i := range work {
		work[i] = 0
		pivoted[i] = false
	}
	repairs := f.repairs[:0]
	touched := f.touched[:0]

	loadColumn := func(v int) {
		for _, r := range touched {
			work[r] = 0
		}
		touched = touched[:0]
		a.colScatter(v, func(row int32, val float64) {
			if work[row] == 0 && val != 0 {
				touched = append(touched, row)
			}
			work[row] += val
		})
	}

	for t := 0; t < m; t++ {
		loadColumn(heading[t])

		eliminate := func() (ur []int32, uv []float64) {
			ur, uv = f.uRows[t][:0], f.uVals[t][:0]
			for t2 := 0; t2 < t; t2++ {
				pr := f.pivRow[t2]
				fv := work[pr]
				if fv == 0 {
					continue
				}
				ur = append(ur, int32(t2))
				uv = append(uv, fv)
				work[pr] = 0
				lr, lv := f.lRows[t2], f.lVals[t2]
				for k, row := range lr {
					if work[row] == 0 {
						touched = append(touched, row)
					}
					work[row] -= fv * lv[k]
				}
			}
			return ur, uv
		}
		ur, uv := eliminate()

		// Partial pivoting over the unpivoted rows; strict max with the
		// smallest row index winning ties keeps the factorization (and
		// therefore the whole solve) deterministic.
		piv := -1
		best := 0.0
		for r := 0; r < m; r++ {
			if pivoted[r] {
				continue
			}
			if a := math.Abs(work[r]); a > best {
				best = a
				piv = r
			}
		}
		if piv < 0 || best <= singTol {
			// Dependent column: swap in the logical of the lowest
			// unpivoted row whose logical is still nonbasic. Its column
			// e_r passes through the prior eliminations untouched (r is
			// unpivoted, so no U entry fires), leaving a clean unit pivot.
			rr := -1
			for r := 0; r < m; r++ {
				if !pivoted[r] && !logicalInBasis[r] {
					rr = r
					break
				}
			}
			if rr < 0 {
				// Every unpivoted row's logical is already basic
				// elsewhere; fall back to any unpivoted row. The
				// duplicate heading entry is resolved by the caller
				// (cold restart); in practice this cannot happen because
				// a logical column is never dependent.
				for r := 0; r < m; r++ {
					if !pivoted[r] {
						rr = r
						break
					}
				}
			}
			repairs = append(repairs, basisRepair{pos: t, oldVar: heading[t], row: rr})
			if old := heading[t] - a.n; old >= 0 && old < m {
				logicalInBasis[old] = false
			}
			heading[t] = a.n + rr
			logicalInBasis[rr] = true
			loadColumn(heading[t])
			ur, uv = eliminate()
			piv = rr
			if work[piv] == 0 {
				work[piv] = 1 // defensive; e_rr survives elimination intact
			}
		}

		pv := work[piv]
		pivoted[piv] = true
		lr, lv := f.lRows[t][:0], f.lVals[t][:0]
		for _, r := range touched {
			if pivoted[r] {
				continue
			}
			v := work[r]
			if v == 0 {
				continue
			}
			// Consume the entry so a row listed twice in touched (set,
			// cancelled to zero, set again) is only extracted once.
			work[r] = 0
			if math.Abs(v) > luDropTol {
				lr = append(lr, r)
				lv = append(lv, v/pv)
			}
		}
		f.pivRow = append(f.pivRow, int32(piv))
		f.pivVal = append(f.pivVal, pv)
		f.lRows[t], f.lVals[t] = lr, lv
		f.uRows[t], f.uVals[t] = ur, uv
	}
	f.touched, f.repairs = touched, repairs
	return repairs
}

// resize returns s with length m, keeping its elements (and so the backing
// arrays of nested slices) for reuse. Elements beyond the old capacity are
// zero; the others keep their stale values.
func resize[T any](s []T, m int) []T {
	if cap(s) < m {
		return append(s[:cap(s)], make([]T, m-cap(s))...)
	}
	return s[:m]
}

// ftran solves B z = rhs in place: rhs is indexed by row on input and by
// basis position on output.
func (f *luFactor) ftran(v []float64) {
	m := f.m
	y := f.ybuf[:m]
	// L pass (row space -> pivot coordinates).
	for t := 0; t < m; t++ {
		ft := v[f.pivRow[t]]
		if ft != 0 {
			lr, lv := f.lRows[t], f.lVals[t]
			for k, row := range lr {
				v[row] -= ft * lv[k]
			}
		}
		y[t] = ft
	}
	// U back substitution.
	for t := m - 1; t >= 0; t-- {
		x := y[t] / f.pivVal[t]
		y[t] = x
		if x != 0 {
			ur, uv := f.uRows[t], f.uVals[t]
			for k, t2 := range ur {
				y[t2] -= uv[k] * x
			}
		}
	}
	copy(v, y)
	// Update etas, in application order.
	for e := range f.etas {
		eta := &f.etas[e]
		ft := v[eta.pos] / eta.piv
		v[eta.pos] = ft
		if ft != 0 {
			for k, i := range eta.rows {
				v[i] -= eta.vals[k] * ft
			}
		}
	}
}

// btran solves B' y = c in place: c is indexed by basis position on input
// and the result is indexed by row on output.
func (f *luFactor) btran(v []float64) {
	m := f.m
	// Update etas transposed, in reverse order.
	for e := len(f.etas) - 1; e >= 0; e-- {
		eta := &f.etas[e]
		s := v[eta.pos]
		for k, i := range eta.rows {
			s -= eta.vals[k] * v[i]
		}
		v[eta.pos] = s / eta.piv
	}
	// U' forward substitution (basis positions -> pivot coordinates).
	y := f.ybuf[:m]
	for t := 0; t < m; t++ {
		s := v[t]
		ur, uv := f.uRows[t], f.uVals[t]
		for k, t2 := range ur {
			s -= uv[k] * y[t2]
		}
		y[t] = s / f.pivVal[t]
	}
	// L' backward pass scatters into row space.
	for i := 0; i < m; i++ {
		v[i] = 0
	}
	for t := m - 1; t >= 0; t-- {
		s := y[t]
		lr, lv := f.lRows[t], f.lVals[t]
		for k, row := range lr {
			s -= lv[k] * v[row]
		}
		v[f.pivRow[t]] = s
	}
}

// update appends a product-form eta for a pivot that replaces basis
// position pos with a column whose ftran image is alpha (dense, indexed by
// basis position). It reports false when the pivot element is too small to
// be stable, in which case the caller must refactorize instead.
func (f *luFactor) update(pos int, alpha []float64) bool {
	piv := alpha[pos]
	if math.Abs(piv) < singTol {
		return false
	}
	k := len(f.etas)
	if k < cap(f.etas) {
		f.etas = f.etas[:k+1] // reuse the eta's row/value backing arrays
	} else {
		f.etas = append(f.etas, luEta{})
	}
	eta := &f.etas[k]
	rows, vals := eta.rows[:0], eta.vals[:0]
	for i, a := range alpha {
		if i == pos {
			continue
		}
		if math.Abs(a) > luDropTol {
			rows = append(rows, int32(i))
			vals = append(vals, a)
		}
	}
	*eta = luEta{pos: int32(pos), piv: piv, rows: rows, vals: vals}
	return true
}

// numEtas returns the current eta-file length (pivots since refactorize).
func (f *luFactor) numEtas() int { return len(f.etas) }
