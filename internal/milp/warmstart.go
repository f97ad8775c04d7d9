package milp

import (
	"math"
	"slices"
)

// IncrementalSolver solves a sequence of related MILPs — the control
// loop's case, where successive ticks move only demand — reusing
// state across Solve calls instead of rebuilding it:
//
//   - the dense tableau slab, basis, and every scratch vector are
//     pooled, so a steady-state Solve allocates only its returned
//     Solution;
//   - the simplex warm-starts from the previous solve's optimal
//     basis: when only the RHS moved (branch-and-bound children, a
//     demand shift) the tableau is re-bound through B⁻¹ and repaired
//     with dual simplex pivots; when matrix coefficients moved the
//     tableau is refilled and the old basis re-pivoted in, skipping
//     phase 1 entirely;
//   - branch-and-bound nodes live in a pooled arena and carry their
//     bounds as a single-variable delta off the parent instead of
//     full lo/hi copies, with the best-bound frontier kept as a real
//     binary heap;
//   - the previous solve's integral solution seeds the incumbent, so
//     a tick whose optimum barely moved prunes from node one;
//   - the inner loops walk index lists instead of the dense slab: a
//     pivot subtracts only the non-zero entries of its pivot row (see
//     pivoter.pivot), reduced costs sum only the rows whose basic cost
//     is non-zero (costRows, kept up to date pivot by pivot), and an
//     RHS rebind only the non-zero right-hand sides. Each list is in
//     index order, so every sum is formed in the order the dense loop
//     formed it and every result is bit-identical to it.
//
// The zero value is ready to use. A solver is NOT safe for concurrent
// use; guard it or use one per goroutine. Every Solve falls back to
// the cold two-phase path whenever the warm state is unusable (shape
// change, numerically failed re-pivot, stalled repair), so results
// are always the cold path's results up to floating-point tolerance —
// the warm/cold equivalence suite pins this.
type IncrementalSolver struct {
	// Adopted problem shape and matrix (GE rows pre-negated to LE so
	// every inequality's slack enters with +1).
	n       int    // structural variables
	m0      int    // constraint rows
	m       int    // m0 + bound rows
	isEQ    []bool // per constraint row
	hasBnd  []bool // per variable: finite root upper bound => bound row
	normA   []float64
	normRHS []float64
	cost    []float64 // minimize-oriented structural costs
	sense   Sense
	shaped  bool

	// Live tableau: m rows by total+1 columns in one slab. Columns are
	// the n structural variables then one helper per row — the slack
	// for inequality rows, a never-entering artificial for EQ rows —
	// so the helper block always holds B⁻¹ of the current basis.
	total            int
	stride           int
	slab             []float64
	t                [][]float64
	basis            []int
	noEnter          []bool
	valid            bool // tableau+basis represent the adopted matrix
	matrixDirty      bool // matrix changed since the tableau was filled
	lpsSinceRefactor int

	// Pooled scratch.
	piv        pivoter   // pivot-row gather and work counters
	costB      []float64 // basic costs (simplex multipliers source)
	costRows   []int     // rows whose basic cost is non-zero, ascending
	bS         []float64 // raw per-row RHS
	bRows      []int     // rows whose raw RHS is non-zero, ascending
	loS, hiS   []float64 // materialized node bounds
	rootLo     []float64
	rootHi     []float64
	xS         []float64 // structural solution scratch
	claimS     []bool
	savedBasis []int
	coldBasis  []int

	// Warm incumbent carried across Solve calls.
	prevX []float64

	// Pooled branch-and-bound state.
	nodes []bbNode
	heap  []bbHeapEnt

	objScale float64 // max |objective coefficient| of the adopted problem

	stats IncrementalStats
}

// IncrementalStats counts the solver's path choices, for benchmarks
// and the warm-reuse regression tests.
type IncrementalStats struct {
	// Solves is the number of Solve calls.
	Solves int
	// ColdLPs counts LP relaxations solved by the two-phase cold path.
	ColdLPs int
	// WarmLPs counts LP relaxations served by the warm tableau.
	WarmLPs int
	// Repivots counts basis re-pivots after a matrix change.
	Repivots int
	// DualPivots and PrimalPivots count warm-path simplex pivots.
	DualPivots, PrimalPivots int
	// Nodes counts branch-and-bound nodes across all solves.
	Nodes int
	// PivotCells counts the multiply-subtracts the warm path's pivots
	// executed, PivotDense what they would have executed updating the
	// same rows across the full row width: their ratio is the share of
	// a dense update the zero-skipping kernel still pays. Both are
	// deterministic.
	PivotCells, PivotDense int
}

// Stats returns the cumulative path counters.
func (s *IncrementalSolver) Stats() IncrementalStats {
	st := s.stats
	st.PivotCells, st.PivotDense = s.piv.cells, s.piv.dense
	return st
}

// bbNode is one branch-and-bound node: a single-variable bound delta
// off its parent. Bounds are materialized by walking the parent chain
// over the pooled root copy, so a node costs a fixed 24 bytes in the
// arena instead of two n-length slices.
type bbNode struct {
	parent int32
	bvar   int32
	upper  bool // true: hi[bvar]=val, false: lo[bvar]=val
	val    float64
	bound  float64 // parent LP objective, minimize orientation
}

// bbHeapEnt is a best-bound frontier entry.
type bbHeapEnt struct {
	bound float64
	idx   int32
}

const (
	warmPivTol  = 1e-7
	dualFeasTol = 1e-7
	// relPruneEps is the bound-pruning tolerance, relative to the
	// larger of the incumbent magnitude and the objective coefficient
	// scale — an absolute epsilon over-prunes small-magnitude
	// objectives (a 1e-4-better incumbent under a 1e-6-scaled
	// objective falls inside an absolute 1e-9 band and is discarded)
	// and wastes work on large ones.
	relPruneEps = 1e-9
	// refactorEvery bounds floating-point drift: after this many warm
	// LP solves the tableau is rebuilt from a cold factorization.
	refactorEvery = 4096
)

// pruneEps returns the bound-pruning tolerance for the current
// incumbent objective (minimize orientation).
func (s *IncrementalSolver) pruneEps(bestObj float64) float64 {
	scale := s.objScale
	if !math.IsInf(bestObj, 0) {
		scale = math.Max(scale, math.Abs(bestObj))
	}
	return relPruneEps * scale
}

// Solve solves the mixed-integer program, reusing warm state from
// previous calls where the problem shape allows.
func (s *IncrementalSolver) Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.stats.Solves++
	s.adopt(p)

	if p.Integer == nil {
		st, x, obj, iters := s.solveLP(p, s.rootLo, s.rootHi)
		sol := &Solution{Status: st, Iterations: iters}
		if st == StatusOptimal {
			sol.X = append([]float64(nil), x...)
			sol.Objective = obj
		}
		return sol, nil
	}
	return s.branchAndBound(p)
}

func (s *IncrementalSolver) branchAndBound(p *Problem) (*Solution, error) {
	nodeCap := p.NodeLimit
	if nodeCap <= 0 {
		nodeCap = defaultCap
	}

	st, x, obj, totalIters := s.solveLP(p, s.rootLo, s.rootHi)
	if st != StatusOptimal {
		return &Solution{Status: st, Iterations: totalIters}, nil
	}
	rootBound := orient(p, obj)
	_ = x

	best := (*Solution)(nil)
	bestObj := math.Inf(1) // minimize orientation

	// Seed the incumbent: the caller's warm start and the previous
	// solve's integral solution both compete; the better feasible one
	// wins. Objectives are always recomputed from the snapped vector
	// so the reported cost matches the returned plan.
	seed := func(cand []float64) {
		if len(cand) != p.NumVars() || !isFeasible(p, cand) {
			return
		}
		raw := 0.0
		for i, v := range cand {
			if p.Integer[i] {
				v = math.Round(v)
			}
			s.xS[i] = v
			raw += p.Objective[i] * v
		}
		o := orient(p, raw)
		if best == nil || o < bestObj {
			bestObj = o
			best = &Solution{Status: StatusOptimal, X: append([]float64(nil), s.xS[:p.NumVars()]...), Objective: raw}
		}
	}
	seed(p.Initial)
	seed(s.prevX)

	s.nodes = s.nodes[:0]
	s.heap = s.heap[:0]
	s.nodes = append(s.nodes, bbNode{parent: -1, bvar: -1, bound: rootBound})
	s.heapPush(bbHeapEnt{bound: rootBound, idx: 0})

	nodes := 0
	for len(s.heap) > 0 {
		nodes++
		s.stats.Nodes++
		if nodes > nodeCap {
			if best != nil {
				// Degrade to the best-effort incumbent instead of
				// failing the solve: a controller tick needs a plan.
				best.Status = StatusNodeLimit
				best.Nodes = nodes
				best.Iterations = totalIters
				s.remember(best)
				return best, nil
			}
			return nil, ErrNodeLimit
		}
		ent := s.heapPop()
		if ent.bound >= bestObj-s.pruneEps(bestObj) {
			continue // pruned by bound
		}
		s.materialize(ent.idx)
		st, x, rawObj, iters := s.solveLP(p, s.loS, s.hiS)
		totalIters += iters
		if st != StatusOptimal {
			continue // infeasible subtree (unbounded cannot appear below root)
		}
		obj := orient(p, rawObj)
		if obj >= bestObj-s.pruneEps(bestObj) {
			continue
		}
		// Find the branching variable: prefer fractional binaries
		// (batch/threshold selectors), which fix problem structure,
		// over general integers; break ties by fractionality.
		branchVar := -1
		worstFrac := intTol
		branchBinary := false
		for i, isInt := range p.Integer {
			if !isInt {
				continue
			}
			f := math.Abs(x[i] - math.Round(x[i]))
			if f <= intTol {
				continue
			}
			binary := s.hiS[i]-s.loS[i] <= 1+intTol
			switch {
			case binary && !branchBinary:
				branchBinary = true
				worstFrac = f
				branchVar = i
			case binary == branchBinary && f > worstFrac:
				worstFrac = f
				branchVar = i
			}
		}
		if branchVar < 0 {
			// Integral: new incumbent. Snap and recompute the
			// objective from the snapped vector — the LP relaxation
			// value drifts from c·X by up to n·|c|·intTol.
			raw := 0.0
			for i := 0; i < p.NumVars(); i++ {
				v := x[i]
				if p.Integer[i] {
					v = math.Round(v)
				}
				s.xS[i] = v
				raw += p.Objective[i] * v
			}
			o := orient(p, raw)
			if best == nil || o < bestObj {
				bestObj = o
				best = &Solution{Status: StatusOptimal, X: append([]float64(nil), s.xS[:p.NumVars()]...), Objective: raw}
			}
			continue
		}
		v := x[branchVar]
		parent := ent.idx
		// Down child: x <= floor(v).
		if fl := math.Floor(v); s.loS[branchVar] <= fl {
			idx := int32(len(s.nodes))
			s.nodes = append(s.nodes, bbNode{parent: parent, bvar: int32(branchVar), upper: true, val: fl, bound: obj})
			s.heapPush(bbHeapEnt{bound: obj, idx: idx})
		}
		// Up child: x >= ceil(v).
		if ce := math.Ceil(v); ce <= s.hiS[branchVar] {
			idx := int32(len(s.nodes))
			s.nodes = append(s.nodes, bbNode{parent: parent, bvar: int32(branchVar), upper: false, val: ce, bound: obj})
			s.heapPush(bbHeapEnt{bound: obj, idx: idx})
		}
	}

	if best == nil {
		return &Solution{Status: StatusInfeasible, Nodes: nodes, Iterations: totalIters}, nil
	}
	best.Nodes = nodes
	best.Iterations = totalIters
	s.remember(best)
	return best, nil
}

// remember keeps the integral solution as the next solve's incumbent
// seed.
func (s *IncrementalSolver) remember(sol *Solution) {
	s.prevX = append(s.prevX[:0], sol.X...)
}

// materialize reconstructs node idx's bounds into loS/hiS by copying
// the root box and applying the single-variable deltas up the parent
// chain. Deltas only tighten, so application order is irrelevant.
func (s *IncrementalSolver) materialize(idx int32) {
	copy(s.loS, s.rootLo)
	copy(s.hiS, s.rootHi)
	for i := idx; i >= 0; i = s.nodes[i].parent {
		nd := &s.nodes[i]
		if nd.bvar < 0 {
			continue
		}
		if nd.upper {
			if nd.val < s.hiS[nd.bvar] {
				s.hiS[nd.bvar] = nd.val
			}
		} else if nd.val > s.loS[nd.bvar] {
			s.loS[nd.bvar] = nd.val
		}
	}
}

// heapPush/heapPop maintain the best-bound frontier as a binary
// min-heap on (bound, insertion index) — replacing the former O(n)
// frontier scan.
func (s *IncrementalSolver) heapPush(e bbHeapEnt) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].bound < h[i].bound || (h[p].bound == h[i].bound && h[p].idx < h[i].idx) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heap = h
}

func (s *IncrementalSolver) heapPop() bbHeapEnt {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && (h[l].bound < h[small].bound || (h[l].bound == h[small].bound && h[l].idx < h[small].idx)) {
			small = l
		}
		if r < len(h) && (h[r].bound < h[small].bound || (h[r].bound == h[small].bound && h[r].idx < h[small].idx)) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	s.heap = h
	return top
}

// adopt (re)derives the problem's normalized shape and matrix,
// invalidating only as much warm state as the change requires: a
// shape change drops everything, a coefficient change keeps the basis
// for re-pivoting, an identical matrix keeps the whole tableau.
func (s *IncrementalSolver) adopt(p *Problem) {
	n := p.NumVars()
	m0 := len(p.Constraints)

	shapeSame := s.shaped && n == s.n && m0 == s.m0
	if !shapeSame {
		s.n, s.m0 = n, m0
		s.isEQ = resizeBool(s.isEQ, m0)
		s.hasBnd = resizeBool(s.hasBnd, n)
		s.normA = resizeF(s.normA, m0*n)
		s.normRHS = resizeF(s.normRHS, m0)
		s.cost = resizeF(s.cost, n)
		s.rootLo = resizeF(s.rootLo, n)
		s.rootHi = resizeF(s.rootHi, n)
		s.loS = resizeF(s.loS, n)
		s.hiS = resizeF(s.hiS, n)
	}

	matrixSame := shapeSame
	nBnd := 0
	for i := 0; i < n; i++ {
		lo, hi := p.boundsAt(i)
		s.rootLo[i], s.rootHi[i] = lo, hi
		bnd := !math.IsInf(hi, 1)
		if bnd {
			nBnd++
		}
		if shapeSame && s.hasBnd[i] != bnd {
			shapeSame, matrixSame = false, false
		}
		s.hasBnd[i] = bnd
	}
	s.objScale = 0
	for i, c := range p.Objective {
		if p.Sense == Maximize {
			c = -c
		}
		if matrixSame && s.cost[i] != c {
			matrixSame = false
		}
		s.cost[i] = c
		s.objScale = math.Max(s.objScale, math.Abs(c))
	}
	for k, con := range p.Constraints {
		eq := con.Rel == EQ
		if shapeSame && s.isEQ[k] != eq {
			shapeSame, matrixSame = false, false
		}
		s.isEQ[k] = eq
		neg := con.Rel == GE
		row := s.normA[k*n : (k+1)*n]
		for i, v := range con.Coeffs {
			if neg {
				v = -v
			}
			if matrixSame && row[i] != v {
				matrixSame = false
			}
			row[i] = v
		}
		rhs := con.RHS
		if neg {
			rhs = -rhs
		}
		s.normRHS[k] = rhs // RHS-only changes keep the tableau warm
	}
	s.sense = p.Sense
	s.m = m0 + nBnd
	s.shaped = true

	if !shapeSame {
		s.valid = false
		s.matrixDirty = false
		m := s.m
		s.total = n + m
		s.stride = s.total + 1
		s.bS = resizeF(s.bS, m)
		s.costB = resizeF(s.costB, m)
		s.costRows = resizeInt(s.costRows, m)[:0]
		s.bRows = resizeInt(s.bRows, m)[:0]
		if cap(s.piv.nz) < s.stride {
			s.piv.nz = make([]pivotTerm, 0, s.stride)
		}
		s.xS = resizeF(s.xS, maxInt(n, s.total))
		s.basis = resizeInt(s.basis, m)
		s.savedBasis = resizeInt(s.savedBasis, m)
		s.claimS = resizeBool(s.claimS, m)
		s.noEnter = resizeBool(s.noEnter, s.total)
		return
	}
	if !matrixSame && s.valid {
		s.matrixDirty = true
	}
	if s.lpsSinceRefactor >= refactorEvery {
		s.valid = false
		s.lpsSinceRefactor = 0
	}
}

// solveLP solves the LP relaxation at bounds (lo, hi). The returned X
// slice is scratch, valid only until the next call. Objective is in
// the problem's own orientation.
func (s *IncrementalSolver) solveLP(p *Problem, lo, hi []float64) (Status, []float64, float64, int) {
	for i := 0; i < s.n; i++ {
		if lo[i] > hi[i] {
			return StatusInfeasible, nil, 0, 0
		}
	}
	if s.m == 0 || !s.boundsSupported(hi) {
		// No rows at all, or a node introduced a finite bound on a
		// variable the tableau has no bound row for: pure cold solve,
		// warm state untouched.
		sol, _ := solveLPBounds(p, lo, hi)
		s.stats.ColdLPs++
		return sol.Status, sol.X, sol.Objective, sol.Iterations
	}

	if !s.valid {
		return s.coldAdopt(p, lo, hi)
	}
	if s.matrixDirty {
		copy(s.savedBasis, s.basis)
		s.fillTableau(lo, hi)
		if !s.repivot(s.savedBasis) {
			s.valid = false
			return s.coldAdopt(p, lo, hi)
		}
		s.matrixDirty = false
	} else {
		s.rebindRHS(lo, hi)
	}

	s.stats.WarmLPs++
	s.lpsSinceRefactor++
	st, iters := s.repair()
	if st == repairCold {
		s.valid = false
		cs, cx, cobj, citers := s.coldAdopt(p, lo, hi)
		return cs, cx, cobj, citers + iters
	}
	switch st {
	case repairInfeasible:
		return StatusInfeasible, nil, 0, iters
	case repairUnbounded:
		return StatusUnbounded, nil, 0, iters
	}
	x, obj := s.extract(lo)
	return StatusOptimal, x, obj, iters
}

// boundsSupported reports whether hi's finite pattern matches the
// adopted bound rows (branching can only shrink bounds, so only a
// finite bound appearing on an unbounded-at-root variable mismatches).
func (s *IncrementalSolver) boundsSupported(hi []float64) bool {
	for i := 0; i < s.n; i++ {
		if !s.hasBnd[i] && !math.IsInf(hi[i], 1) {
			return false
		}
	}
	return true
}

// coldAdopt runs the two-phase cold path and, when it yields a clean
// optimal basis, installs it into the warm tableau for the next call.
func (s *IncrementalSolver) coldAdopt(p *Problem, lo, hi []float64) (Status, []float64, float64, int) {
	s.stats.ColdLPs++
	sol, _ := solveLPBoundsBasis(p, lo, hi, &s.coldBasis)
	if sol.Status != StatusOptimal || len(s.coldBasis) != s.m {
		return sol.Status, sol.X, sol.Objective, sol.Iterations
	}
	for r, c := range s.coldBasis {
		if c < 0 {
			// A redundant row left an artificial basic: adoption would
			// install a singular basis, so stay cold this round.
			return sol.Status, sol.X, sol.Objective, sol.Iterations
		}
		s.savedBasis[r] = s.warmCol(c)
	}
	s.fillTableau(lo, hi)
	if s.repivot(s.savedBasis) {
		s.valid = true
		s.matrixDirty = false
		s.lpsSinceRefactor = 0
	}
	return sol.Status, sol.X, sol.Objective, sol.Iterations
}

// warmCol maps a canonical column id (see solveLPBoundsBasis) to this
// tableau's layout: structural ids are shared; row slacks map to the
// row's helper column.
func (s *IncrementalSolver) warmCol(canon int) int {
	if canon < s.n+s.m0 {
		if canon < s.n {
			return canon
		}
		return s.n + (canon - s.n) // constraint row k's slack -> helper k
	}
	// Bound-row slack of variable i: bound rows follow the constraint
	// rows in variable order.
	v := canon - s.n - s.m0
	r := s.m0
	for i := 0; i < v; i++ {
		if s.hasBnd[i] {
			r++
		}
	}
	return s.n + r
}

// fillTableau writes the normalized matrix, helper identity block,
// and raw RHS for bounds (lo, hi) into the pooled slab.
func (s *IncrementalSolver) fillTableau(lo, hi []float64) {
	need := s.m * s.stride
	if cap(s.slab) < need {
		s.slab = make([]float64, need)
	} else {
		s.slab = s.slab[:need]
		for i := range s.slab {
			s.slab[i] = 0
		}
	}
	if cap(s.t) < s.m {
		s.t = make([][]float64, s.m)
	} else {
		s.t = s.t[:s.m]
	}
	n, total := s.n, s.total
	for j := range s.noEnter {
		s.noEnter[j] = false
	}
	for k := 0; k < s.m0; k++ {
		row := s.slab[k*s.stride : (k+1)*s.stride]
		s.t[k] = row
		copy(row[:n], s.normA[k*n:(k+1)*n])
		row[n+k] = 1 // slack, or the never-entering EQ artificial
		if s.isEQ[k] {
			s.noEnter[n+k] = true
		}
		b := s.normRHS[k]
		for i := 0; i < n; i++ {
			if lo[i] != 0 {
				b -= s.normA[k*n+i] * lo[i]
			}
		}
		row[total] = b
		s.basis[k] = n + k
	}
	r := s.m0
	for i := 0; i < n; i++ {
		if !s.hasBnd[i] {
			continue
		}
		row := s.slab[r*s.stride : (r+1)*s.stride]
		s.t[r] = row
		row[i] = 1
		row[n+r] = 1
		row[total] = hi[i] - lo[i]
		s.basis[r] = n + r
		r++
	}
}

// rebindRHS recomputes the tableau RHS column for new bounds without
// touching the factorization: the helper block holds B⁻¹, so the new
// basic values are B⁻¹·b.
func (s *IncrementalSolver) rebindRHS(lo, hi []float64) {
	n, m, total := s.n, s.m, s.total
	for k := 0; k < s.m0; k++ {
		b := s.normRHS[k]
		row := s.normA[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			if lo[i] != 0 {
				b -= row[i] * lo[i]
			}
		}
		s.bS[k] = b
	}
	r := s.m0
	for i := 0; i < n; i++ {
		if s.hasBnd[i] {
			s.bS[r] = hi[i] - lo[i]
			r++
		}
	}
	// B⁻¹·b over the non-zero entries of b only, in row order, so each
	// sum is the one the all-rows loop would form.
	nz := s.bRows[:0]
	for k, b := range s.bS[:m] {
		if b != 0 {
			nz = append(nz, k)
		}
	}
	s.bRows = nz
	for ri := 0; ri < m; ri++ {
		row := s.t[ri]
		inv := row[n : n+m]
		sum := 0.0
		for _, k := range nz {
			sum += inv[k] * s.bS[k]
		}
		row[total] = sum
	}
}

// repivot drives the saved basis columns back into a freshly filled
// tableau. The saved basis is a column SET — the old row assignment
// means nothing against new matrix coefficients — so helper columns
// still basic in their fill row are claimed in place and every other
// column is pivoted into the unclaimed row where it has the largest
// magnitude (partial pivoting, which succeeds for any numerically
// nonsingular basis). Claimed rows are never pivoted in, so their
// unit columns stay unit. Returns false on a degenerate pivot (the
// caller falls back to a cold factorization).
func (s *IncrementalSolver) repivot(saved []int) bool {
	m := s.m
	claimed := s.claimS[:m]
	for i := range claimed {
		claimed[i] = false
	}
	// Helpers basic at fill time: claim their own row, no pivot needed.
	for _, c := range saved {
		if c >= s.n && c < s.total {
			r := c - s.n
			if s.basis[r] == c {
				claimed[r] = true
			}
		}
	}
	for _, c := range saved {
		if c < 0 || c >= s.total {
			return false
		}
		if c >= s.n && claimed[c-s.n] && s.basis[c-s.n] == c {
			continue // claimed in place above
		}
		best, bestAbs := -1, warmPivTol
		for r := 0; r < m; r++ {
			if claimed[r] {
				continue
			}
			if a := math.Abs(s.t[r][c]); a > bestAbs {
				bestAbs = a
				best = r
			}
		}
		if best < 0 {
			return false
		}
		s.piv.pivot(s.t, s.basis, best, c)
		claimed[best] = true
		s.stats.Repivots++
	}
	return true
}

type repairStatus int

const (
	repairOptimal repairStatus = iota
	repairInfeasible
	repairUnbounded
	repairCold
)

// repair restores optimality after a RHS rebind or matrix refill:
// dual simplex while the basis is primal-infeasible (the warm-start
// case where demand moved), then primal simplex to optimality.
func (s *IncrementalSolver) repair() (repairStatus, int) {
	iters := 0
	primalInfeasible := false
	for r := 0; r < s.m; r++ {
		if s.t[r][s.total] < -feasTol {
			primalInfeasible = true
			break
		}
	}
	if primalInfeasible {
		if !s.dualFeasible() {
			return repairCold, iters
		}
		st, it := s.dualSimplex()
		iters += it
		switch st {
		case repairInfeasible:
			return repairInfeasible, iters
		case repairCold:
			return repairCold, iters
		}
	}
	st, it := s.primalSimplex()
	iters += it
	return st, iters
}

// colCost is column j's cost: only structural columns carry one.
func (s *IncrementalSolver) colCost(j int) float64 {
	if j < s.n {
		return s.cost[j]
	}
	return 0
}

// reducedCost returns cost_j - c_B·(B⁻¹A)_j using the pooled basic
// cost vector (fill with fillCostB first). Only rows whose basic cost
// is non-zero contribute — the headroom and worker-count columns, a
// handful of the rows — so the sum walks costRows, in row order.
func (s *IncrementalSolver) reducedCost(j int) float64 {
	red := s.colCost(j)
	for _, i := range s.costRows {
		red -= s.costB[i] * s.t[i][j]
	}
	return red
}

// fillCostB derives the basic costs, and the list of rows where they
// are non-zero, from the basis.
func (s *IncrementalSolver) fillCostB() {
	rows := s.costRows[:0]
	for i, bi := range s.basis {
		cb := s.colCost(bi)
		s.costB[i] = cb
		if cb != 0 {
			rows = append(rows, i)
		}
	}
	s.costRows = rows
}

// pivotCostB pivots column col into row r and brings costB and
// costRows up to date in place, which only row r's entry can need.
func (s *IncrementalSolver) pivotCostB(r, col int) {
	s.piv.pivot(s.t, s.basis, r, col)
	cb := s.colCost(col)
	was := s.costB[r] != 0
	s.costB[r] = cb
	if was == (cb != 0) {
		return
	}
	at, _ := slices.BinarySearch(s.costRows, r)
	if was {
		s.costRows = slices.Delete(s.costRows, at, at+1)
	} else {
		s.costRows = slices.Insert(s.costRows, at, r)
	}
}

// dualFeasible reports whether every entering candidate's reduced
// cost is nonnegative within tolerance — the precondition for dual
// simplex repair.
func (s *IncrementalSolver) dualFeasible() bool {
	s.fillCostB()
	for j := 0; j < s.total; j++ {
		if s.noEnter[j] {
			continue
		}
		if s.reducedCost(j) < -dualFeasTol {
			return false
		}
	}
	return true
}

// dualSimplex pivots until the basis is primal feasible, maintaining
// dual feasibility: leave the most negative basic value, enter the
// minimum-ratio column. Returns repairInfeasible when a violated row
// has no negative entry (the LP is infeasible).
func (s *IncrementalSolver) dualSimplex() (repairStatus, int) {
	m, total := s.m, s.total
	iters := 0
	s.fillCostB()
	for {
		iters++
		if iters > 20000 {
			return repairCold, iters // numerical stall: refactor cold
		}
		r := -1
		most := -feasTol
		for i := 0; i < m; i++ {
			if v := s.t[i][total]; v < most {
				most = v
				r = i
			}
		}
		if r < 0 {
			return repairOptimal, iters
		}
		enter := -1
		bestRatio := math.Inf(1)
		row := s.t[r]
		for j := 0; j < total; j++ {
			if s.noEnter[j] {
				continue
			}
			a := row[j]
			if a >= -1e-9 {
				continue
			}
			red := s.reducedCost(j)
			if red < 0 {
				red = 0 // optimal-basis noise; the primal pass polishes
			}
			ratio := red / -a
			if ratio < bestRatio-1e-12 || (math.Abs(ratio-bestRatio) <= 1e-12 && (enter < 0 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return repairInfeasible, iters
		}
		s.pivotCostB(r, enter)
		s.stats.DualPivots++
	}
}

// primalSimplex minimizes over the warm tableau with Bland's rule,
// skipping the never-entering EQ helpers. Unlike the cold runSimplex
// it reports a stall instead of claiming optimality, so the caller
// can refactor.
func (s *IncrementalSolver) primalSimplex() (repairStatus, int) {
	m, total := s.m, s.total
	iters := 0
	s.fillCostB()
	for {
		iters++
		if iters > 20000 {
			return repairCold, iters
		}
		enter := -1
		for j := 0; j < total; j++ {
			if s.noEnter[j] {
				continue
			}
			if s.reducedCost(j) < -1e-9 {
				enter = j // Bland: first improving column
				break
			}
		}
		if enter < 0 {
			return repairOptimal, iters
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if s.t[i][enter] > 1e-9 {
				ratio := s.t[i][total] / s.t[i][enter]
				if ratio < bestRatio-1e-12 || (math.Abs(ratio-bestRatio) <= 1e-12 && (leave < 0 || s.basis[i] < s.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return repairUnbounded, iters
		}
		s.pivotCostB(leave, enter)
		s.stats.PrimalPivots++
	}
}

// extract reads the structural solution out of the tableau. The
// returned slice is the solver's scratch.
func (s *IncrementalSolver) extract(lo []float64) ([]float64, float64) {
	n := s.n
	x := s.xS[:n]
	for i := range x {
		x[i] = 0
	}
	for r, bi := range s.basis {
		if bi < n {
			x[bi] = s.t[r][s.total]
		}
	}
	obj := 0.0
	for i := 0; i < n; i++ {
		x[i] += lo[i]
		obj += s.cost[i] * x[i]
	}
	if s.sense == Maximize {
		obj = -obj
	}
	return x, obj
}

func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
