package milp

import (
	"math"
)

// solveLPBounds solves the LP relaxation of p with the variable bounds
// overridden by lo/hi, via two-phase dense primal simplex.
//
// The problem is converted to standard form:
//   - each variable is shifted by its (finite) lower bound,
//   - finite upper bounds become explicit <= rows,
//   - <= rows gain slack variables, >= rows gain surplus+artificial,
//     == rows gain artificial variables,
//   - phase 1 minimizes the artificial sum; phase 2 the true objective.
func solveLPBounds(p *Problem, lo, hi []float64) (*Solution, error) {
	return solveLPBoundsBasis(p, lo, hi, nil)
}

// solveLPBoundsBasis is solveLPBounds with optional basis capture:
// when basisOut is non-nil and the solve ends optimal, it is filled
// with one entry per row (constraints first, then the bound rows of
// finite-upper variables in variable order) naming that row's basic
// column in canonical ids — structural variable i is i, the
// slack/surplus of constraint row k is n+k, the slack of variable i's
// bound row is n+m0+i, and an artificial left basic (a redundant row)
// is -1. A GE row's surplus and the negated-to-LE form's slack are
// the same variable, so the ids are stable across the sign
// normalizations below and the IncrementalSolver's all-LE layout.
func solveLPBoundsBasis(p *Problem, lo, hi []float64, basisOut *[]int) (*Solution, error) {
	n := p.NumVars()
	m0 := len(p.Constraints)
	if basisOut != nil {
		*basisOut = (*basisOut)[:0]
	}

	// Quick infeasibility: empty box.
	for i := 0; i < n; i++ {
		if lo[i] > hi[i] {
			return &Solution{Status: StatusInfeasible}, nil
		}
	}

	// Objective in minimize orientation over shifted variables.
	c := make([]float64, n)
	objShift := 0.0
	for i := 0; i < n; i++ {
		ci := p.Objective[i]
		if p.Sense == Maximize {
			ci = -ci
		}
		c[i] = ci
		objShift += ci * lo[i]
	}

	// Build rows: original constraints with RHS adjusted for the lower
	// bound shift, plus upper-bound rows x' <= hi - lo. Rows reference
	// the source coefficients (unit rows by index) instead of
	// materializing per-row slices; negation for non-negative RHS
	// normalization is recorded as a flag and applied when the tableau
	// is filled.
	type row struct {
		a    []float64 // source coefficients; nil for a unit row
		unit int       // unit-row variable index when a is nil
		neg  bool      // negate coefficients when filling the tableau
		rel  Rel
		b    float64
	}
	rows := make([]row, 0, len(p.Constraints)+n)
	for _, con := range p.Constraints {
		b := con.RHS
		for i := 0; i < n; i++ {
			b -= con.Coeffs[i] * lo[i]
		}
		rows = append(rows, row{a: con.Coeffs, rel: con.Rel, b: b})
	}
	for i := 0; i < n; i++ {
		if !math.IsInf(hi[i], 1) {
			// b = hi - lo >= 0 here (the empty box returned above), so
			// unit rows never need normalization.
			rows = append(rows, row{unit: i, rel: LE, b: hi[i] - lo[i]})
		}
	}

	m := len(rows)
	if m == 0 {
		// Unconstrained over the box: each variable at its best bound.
		x := make([]float64, n)
		obj := objShift
		for i := 0; i < n; i++ {
			if c[i] < 0 {
				if math.IsInf(hi[i], 1) {
					return &Solution{Status: StatusUnbounded}, nil
				}
				x[i] = hi[i]
				obj += c[i] * (hi[i] - lo[i])
			} else {
				x[i] = lo[i]
			}
		}
		if p.Sense == Maximize {
			obj = -obj
		}
		return &Solution{Status: StatusOptimal, X: x, Objective: obj}, nil
	}

	// Normalize rows to non-negative RHS first (flipping the relation
	// where needed), THEN count extra columns: one slack per LE, one
	// surplus per GE, one artificial per GE/EQ row.
	for ri := range rows {
		if rows[ri].b < 0 {
			rows[ri].neg = !rows[ri].neg
			rows[ri].b = -rows[ri].b
			switch rows[ri].rel {
			case LE:
				rows[ri].rel = GE
			case GE:
				rows[ri].rel = LE
			}
		}
	}
	nSlack := 0
	nArt := 0
	for _, r := range rows {
		switch r.rel {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}
	total := n + nSlack + nArt

	// Tableau: m rows x (total+1) columns, last column is RHS, all
	// rows carved out of one backing slab.
	stride := total + 1
	slab := make([]float64, m*stride)
	t := make([][]float64, m)
	basis := make([]int, m)
	// canonCol translates tableau columns to the canonical ids
	// documented on solveLPBoundsBasis (only needed for capture).
	var canonCol []int
	if basisOut != nil {
		canonCol = make([]int, total)
		for j := 0; j < n; j++ {
			canonCol[j] = j
		}
		for j := n; j < total; j++ {
			canonCol[j] = -1
		}
	}
	canonOf := func(ri int) int {
		if ri < m0 {
			return n + ri
		}
		return n + m0 + rows[ri].unit
	}
	slackCol := n
	artCol := n + nSlack
	artStart := artCol
	for ri, r := range rows {
		t[ri] = slab[ri*stride : (ri+1)*stride]
		switch {
		case r.a == nil:
			t[ri][r.unit] = 1
		case r.neg:
			for i, v := range r.a {
				t[ri][i] = -v
			}
		default:
			copy(t[ri], r.a)
		}
		t[ri][total] = r.b
		switch r.rel {
		case LE:
			t[ri][slackCol] = 1
			basis[ri] = slackCol
			if canonCol != nil {
				canonCol[slackCol] = canonOf(ri)
			}
			slackCol++
		case GE:
			t[ri][slackCol] = -1
			if canonCol != nil {
				canonCol[slackCol] = canonOf(ri)
			}
			slackCol++
			t[ri][artCol] = 1
			basis[ri] = artCol
			artCol++
		case EQ:
			t[ri][artCol] = 1
			basis[ri] = artCol
			artCol++
		}
	}

	iters := 0
	piv := pivoter{nz: make([]pivotTerm, 0, stride)}

	// Phase 1: minimize the sum of artificial variables.
	if nArt > 0 {
		phase1 := make([]float64, total)
		for j := artStart; j < artStart+nArt; j++ {
			phase1[j] = 1
		}
		status, it := runSimplex(t, basis, phase1, total, &piv)
		iters += it
		if status == StatusUnbounded {
			// Phase 1 objective is bounded below by 0; cannot happen
			// with consistent input.
			return &Solution{Status: StatusInfeasible, Iterations: iters}, nil
		}
		// Compute phase-1 objective value.
		sum := 0.0
		for ri, bi := range basis {
			if bi >= artStart {
				sum += t[ri][total]
			}
		}
		if sum > 1e-7 {
			return &Solution{Status: StatusInfeasible, Iterations: iters}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		for ri, bi := range basis {
			if bi < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(t[ri][j]) > 1e-9 {
					piv.pivot(t, basis, ri, j)
					iters++
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: harmless, leave the artificial basic
				// at value ~0 and forbid re-entry by zeroing columns.
				_ = ri
			}
		}
		// Remove artificial columns from consideration by truncating.
		for ri := range t {
			t[ri] = append(t[ri][:artStart], t[ri][total])
		}
		total = artStart
	}

	// Phase 2: minimize the real objective.
	c2 := make([]float64, total)
	copy(c2, c)
	status, it := runSimplex(t, basis, c2, total, &piv)
	iters += it
	if status == StatusUnbounded {
		return &Solution{Status: StatusUnbounded, Iterations: iters}, nil
	}

	// Extract the solution.
	if basisOut != nil {
		for _, bi := range basis {
			if bi < len(canonCol) {
				*basisOut = append(*basisOut, canonCol[bi])
			} else {
				*basisOut = append(*basisOut, -1) // artificial basic
			}
		}
	}
	xShift := make([]float64, total)
	for ri, bi := range basis {
		if bi < total {
			xShift[bi] = t[ri][total]
		}
	}
	x := make([]float64, n)
	obj := objShift
	for i := 0; i < n; i++ {
		x[i] = lo[i] + xShift[i]
		obj += c[i] * xShift[i]
	}
	if p.Sense == Maximize {
		obj = -obj
	}
	return &Solution{Status: StatusOptimal, X: x, Objective: obj, Iterations: iters}, nil
}

// runSimplex minimizes cost over the tableau in place using Bland's
// rule. total is the number of structural columns (RHS excluded). It
// returns StatusOptimal or StatusUnbounded plus the pivot count.
func runSimplex(t [][]float64, basis []int, cost []float64, total int, piv *pivoter) (Status, int) {
	m := len(t)
	// Reduced costs: z_j - c_j form. Maintain implicitly: compute the
	// reduced cost vector each iteration (dense, small problems). The
	// basic-cost scratch is allocated once and refilled per pivot.
	costB := make([]float64, m)
	iters := 0
	for {
		iters++
		if iters > 20000 {
			// Bland's rule guarantees termination; this is a backstop
			// against numerical pathologies.
			return StatusOptimal, iters
		}
		// Compute simplex multipliers via basic costs: reduced cost of
		// column j is cost[j] - sum_i costB[i] * t[i][j].
		for i, bi := range basis {
			if bi < total {
				costB[i] = cost[bi]
			} else {
				costB[i] = 0
			}
		}
		enter := -1
		for j := 0; j < total; j++ {
			red := cost[j]
			for i := 0; i < m; i++ {
				if costB[i] != 0 {
					red -= costB[i] * t[i][j]
				}
			}
			if red < -1e-9 {
				enter = j // Bland: first improving column
				break
			}
		}
		if enter < 0 {
			return StatusOptimal, iters
		}
		// Ratio test with Bland tie-break on the smallest basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > 1e-9 {
				ratio := t[i][len(t[i])-1] / t[i][enter]
				if ratio < bestRatio-1e-12 || (math.Abs(ratio-bestRatio) <= 1e-12 && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return StatusUnbounded, iters
		}
		piv.pivot(t, basis, leave, enter)
	}
}

// pivoter is pivot's scratch and work counters. The zero value is
// ready to use; an IncrementalSolver keeps one for its lifetime, a cold
// solve a local one.
type pivoter struct {
	nz []pivotTerm // the non-zero entries of the normalised pivot row
	// cells counts the multiply-subtracts pivot has executed, dense
	// what updating the same rows across their full width would have.
	cells, dense int
}

type pivotTerm struct {
	col int
	val float64
}

// pivot performs a Gauss-Jordan pivot on t[row][col] and updates basis.
//
// The normalised pivot row is mostly structural zeros (37 % non-zero
// on the control loop's 46 x 72 tableau), so its non-zero entries are
// gathered once and every other row subtracts only those. The term a
// dense update would also apply at a skipped column is x - f*0 with f
// finite, which is x unless x is itself a zero and then at most flips
// its sign, and the same holds for the skipped 0/pivot. The sign of a
// zero goes no further: no comparison in this package can see it, no
// divisor is ever a zero (pivots and ratio-test denominators clear a
// tolerance), and a product or sum passes it on only as the sign of
// another zero. So every later pivot choice, objective and plan is bit
// for bit what the dense loop gives (densePivot in the tests is that
// loop, held against this one).
func (k *pivoter) pivot(t [][]float64, basis []int, row, col int) {
	pr := t[row]
	pv := pr[col]
	nz := k.nz[:0]
	for j, v := range pr {
		if v == 0 {
			continue
		}
		v /= pv
		pr[j] = v
		if v != 0 { // a subnormal quotient may have underflowed
			nz = append(nz, pivotTerm{j, v})
		}
	}
	k.nz = nz
	updated := 0
	for i, ri := range t {
		if i == row {
			continue
		}
		f := ri[col]
		if f == 0 {
			continue
		}
		for _, e := range nz {
			ri[e.col] -= f * e.val
		}
		updated++
	}
	k.cells += updated * len(nz)
	k.dense += updated * len(pr)
	basis[row] = col
}
