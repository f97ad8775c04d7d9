package milp

import (
	"math"
	"testing"

	"diffserve/internal/stats"
)

// densePivot is the textbook Gauss-Jordan pivot the solver used before
// its kernel learned to skip zeros: every row is multiplied through the
// whole pivot row. It is the parity reference for pivoter.pivot.
func densePivot(t [][]float64, basis []int, row, col int) {
	pr := t[row]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := range t[i] {
			t[i][j] -= f * pr[j]
		}
	}
	basis[row] = col
}

// denseReducedCost is reducedCost's all-rows reference: walk column j
// down every row and pick out the non-zero basic costs on the way.
func denseReducedCost(s *IncrementalSolver, j int) float64 {
	red := 0.0
	if j < s.n {
		red = s.cost[j]
	}
	for i := 0; i < s.m; i++ {
		cb := 0.0
		if bi := s.basis[i]; bi < s.n {
			cb = s.cost[bi]
		}
		if cb != 0 {
			red -= cb * s.t[i][j]
		}
	}
	return red
}

// kernelEntry draws one tableau entry: a structural zero of either sign
// with probability 1-density, else a value of ordinary magnitude, an
// exact small integer (so differences cancel to exact zeros), or a
// subnormal (so a quotient can underflow).
func kernelEntry(r *stats.RNG, density float64) float64 {
	if !r.Bernoulli(density) {
		if r.Bernoulli(0.3) {
			return math.Copysign(0, -1)
		}
		return 0
	}
	switch r.Intn(10) {
	case 0:
		return math.Copysign(float64(1+r.Intn(50))*5e-324, r.Uniform(-1, 1))
	case 1, 2, 3:
		return float64(r.Intn(7) - 3)
	default:
		return r.Uniform(-10, 10)
	}
}

func cloneTableau(t [][]float64) [][]float64 {
	out := make([][]float64, len(t))
	for i, row := range t {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// bitsNoSign is Float64bits with -0 mapped to +0, the one difference the
// zero-skipping kernel is allowed.
func bitsNoSign(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// TestPivotMatchesDenseReference holds the production pivot against the
// dense loop on 12 000 seeded tableaux — sparsity anywhere from empty to
// full, exact zeros of both signs, subnormals, and a pivot column that
// is zero in most rows — each pivoted four times in a row, so a sign of
// zero the first pivot leaves different has three more pivots in which
// to become a different number. After every pivot the two tableaux must
// be Float64bits-equal once -0 is mapped to +0, and the bases equal.
func TestPivotMatchesDenseReference(t *testing.T) {
	r := stats.NewRNG(20).Stream("pivot-parity")
	var piv pivoter
	pivots, skippedTerms, signOnly := 0, 0, 0
	for trial := 0; trial < 12000; trial++ {
		m, w := 2+r.Intn(11), 3+r.Intn(22)
		density := r.Uniform(-0.1, 1.1) // the ends clip to empty and full
		colDensity := density
		if r.Bernoulli(0.7) {
			colDensity = r.Uniform(0, 0.3) // most rows are skipped whole
		}
		got := make([][]float64, m)
		for i := range got {
			got[i] = make([]float64, w)
			for j := range got[i] {
				got[i][j] = kernelEntry(r, density)
			}
		}
		want := cloneTableau(got)
		gotBasis, wantBasis := make([]int, m), make([]int, m)
		for step := 0; step < 4; step++ {
			row, col := r.Intn(m), r.Intn(w)
			for i := range got {
				if i != row {
					got[i][col] = kernelEntry(r, colDensity)
					want[i][col] = got[i][col]
				}
			}
			// The solver only pivots on entries above its tolerances.
			pv := math.Copysign(r.Uniform(1e-9, 4), r.Uniform(-1, 1))
			got[row][col], want[row][col] = pv, pv
			before := piv.dense - piv.cells
			piv.pivot(got, gotBasis, row, col)
			densePivot(want, wantBasis, row, col)
			pivots++
			skippedTerms += piv.dense - piv.cells - before
			for i := range got {
				for j := range got[i] {
					g, d := got[i][j], want[i][j]
					if bitsNoSign(g) != bitsNoSign(d) {
						t.Fatalf("trial %d pivot %d at (%d,%d): t[%d][%d] = %v (%#x), dense reference %v (%#x)",
							trial, step, row, col, i, j, g, math.Float64bits(g), d, math.Float64bits(d))
					}
					if math.Float64bits(g) != math.Float64bits(d) {
						signOnly++
					}
				}
				if gotBasis[i] != wantBasis[i] {
					t.Fatalf("trial %d pivot %d: basis[%d] = %d, dense reference %d", trial, step, i, gotBasis[i], wantBasis[i])
				}
			}
		}
	}
	t.Logf("%d pivots, %d multiply-subtracts skipped, %d entries differing in the sign of zero only", pivots, skippedTerms, signOnly)
	if skippedTerms == 0 {
		t.Fatal("no term was ever skipped: the sample does not exercise the kernel")
	}
}

// TestReducedCostMatchesAllRowsLoop pins the basic-cost row list: on
// random tableaux and bases, every column's reduced cost must be
// Float64bits-equal to the all-rows loop, both right after fillCostB
// and after a run of pivotCostB calls has edited the list in place
// (rows entering it, leaving it, and staying put).
func TestReducedCostMatchesAllRowsLoop(t *testing.T) {
	r := stats.NewRNG(20).Stream("reduced-cost-parity")
	checked, listed := 0, 0
	for trial := 0; trial < 10000; trial++ {
		n, m := 1+r.Intn(8), 1+r.Intn(10)
		s := &IncrementalSolver{n: n, m: m, total: n + m, stride: n + m + 1}
		s.cost = make([]float64, n)
		for j := range s.cost {
			if r.Bernoulli(0.5) { // half the structural columns carry no cost
				s.cost[j] = r.Uniform(-3, 3)
			}
		}
		s.costB = make([]float64, m)
		s.basis = make([]int, m)
		s.t = make([][]float64, m)
		density := r.Uniform(-0.1, 1.1)
		for i := range s.t {
			s.basis[i] = r.Intn(s.total)
			s.t[i] = make([]float64, s.stride)
			for j := range s.t[i] {
				s.t[i][j] = kernelEntry(r, density)
			}
		}
		check := func(when string) {
			t.Helper()
			for k := 1; k < len(s.costRows); k++ {
				if s.costRows[k-1] >= s.costRows[k] {
					t.Fatalf("trial %d %s: costRows %v not strictly ascending", trial, when, s.costRows)
				}
			}
			for j := 0; j < s.total; j++ {
				got, want := s.reducedCost(j), denseReducedCost(s, j)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d %s: reducedCost(%d) = %v (%#x), all-rows loop %v (%#x); costRows %v basis %v",
						trial, when, j, got, math.Float64bits(got), want, math.Float64bits(want), s.costRows, s.basis)
				}
				checked++
			}
			listed += len(s.costRows)
		}
		s.fillCostB()
		check("after fillCostB")
		for step := 0; step < 4; step++ {
			row, col := r.Intn(m), r.Intn(s.total)
			s.t[row][col] = math.Copysign(r.Uniform(1e-9, 4), r.Uniform(-1, 1))
			s.pivotCostB(row, col)
			check("after pivotCostB")
		}
	}
	t.Logf("%d reduced costs compared, %d listed rows", checked, listed)
}
