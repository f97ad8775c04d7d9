package milp

import (
	"errors"
	"flag"
	"math"
	"testing"

	"diffserve/internal/stats"
)

// statsOf returns s's cumulative path counters with the pivot kernel's
// cell counts folded in.
func statsOf(s *IncrementalSolver) IncrementalStats {
	st := s.stats
	st.PivotCells, st.PivotDense = s.piv.cells, s.piv.dense
	return st
}

// randomILP builds a small random integer program in the same family
// the brute-force suite uses.
func randomILP(rng *stats.RNG) (*Problem, []int) {
	n := 2 + rng.Intn(3)
	hiInt := make([]int, n)
	hi := make([]float64, n)
	for i := range hi {
		hiInt[i] = 1 + rng.Intn(5)
		hi[i] = float64(hiInt[i])
	}
	obj := make([]float64, n)
	for i := range obj {
		obj[i] = math.Round(rng.Uniform(-5, 5)*2) / 2
	}
	nCons := 1 + rng.Intn(3)
	cons := make([]Constraint, nCons)
	for k := range cons {
		co := make([]float64, n)
		for i := range co {
			co[i] = math.Round(rng.Uniform(-3, 3))
		}
		rel := LE
		if rng.Bernoulli(0.3) {
			rel = GE
		}
		cons[k] = Constraint{Coeffs: co, Rel: rel, RHS: math.Round(rng.Uniform(-5, 12))}
	}
	sense := Minimize
	if rng.Bernoulli(0.5) {
		sense = Maximize
	}
	ints := make([]bool, n)
	for i := range ints {
		ints[i] = true
	}
	return &Problem{Sense: sense, Objective: obj, Constraints: cons, Upper: hi, Integer: ints}, hiInt
}

// checkAgainstCold solves p with the persistent warm solver and a
// fresh cold solver and requires agreement on status and objective.
// It also pins the snapped-objective invariant: the reported
// Objective must equal c·X for the returned integral X.
func checkAgainstCold(t *testing.T, warm *IncrementalSolver, p *Problem, label string) {
	t.Helper()
	warmSol, warmErr := warm.Solve(p)
	var cold IncrementalSolver
	coldSol, coldErr := cold.Solve(p)
	if (warmErr == nil) != (coldErr == nil) {
		t.Fatalf("%s: warm err=%v cold err=%v", label, warmErr, coldErr)
	}
	if warmErr != nil {
		return
	}
	if warmSol.Status != coldSol.Status {
		t.Fatalf("%s: warm status %v != cold status %v\nproblem: %+v", label, warmSol.Status, coldSol.Status, p)
	}
	if warmSol.Status != StatusOptimal {
		return
	}
	tol := 1e-6 * math.Max(1, math.Abs(coldSol.Objective))
	if math.Abs(warmSol.Objective-coldSol.Objective) > tol {
		t.Fatalf("%s: warm objective %v != cold objective %v\nproblem: %+v\nwarm x=%v cold x=%v",
			label, warmSol.Objective, coldSol.Objective, p, warmSol.X, coldSol.X)
	}
	for _, sol := range []*Solution{warmSol, coldSol} {
		dot := 0.0
		for i, xi := range sol.X {
			dot += p.Objective[i] * xi
		}
		if math.Abs(dot-sol.Objective) > 1e-9*math.Max(1, math.Abs(dot)) {
			t.Fatalf("%s: reported objective %v does not match c·X=%v", label, sol.Objective, dot)
		}
	}
}

// TestWarmVsColdEquivalenceRandomSequences is the equivalence suite
// pinning the tentpole: one persistent solver walks a sequence of
// perturbed instances (RHS moves, coefficient moves, bound moves —
// the shapes a control-loop demand walk produces) and must agree with
// a from-scratch solve at every step.
func TestWarmVsColdEquivalenceRandomSequences(t *testing.T) {
	rng := stats.NewRNG(4242)
	var warm IncrementalSolver
	for trial := 0; trial < 40; trial++ {
		p, _ := randomILP(rng)
		checkAgainstCold(t, &warm, p, "base")
		for step := 0; step < 8; step++ {
			switch rng.Intn(3) {
			case 0: // RHS walk (demand moved)
				k := rng.Intn(len(p.Constraints))
				p.Constraints[k].RHS += math.Round(rng.Uniform(-2, 2))
			case 1: // coefficient walk (demand enters the matrix)
				k := rng.Intn(len(p.Constraints))
				i := rng.Intn(p.NumVars())
				p.Constraints[k].Coeffs[i] += math.Round(rng.Uniform(-1, 1))
			case 2: // bound walk
				i := rng.Intn(p.NumVars())
				hi := math.Max(1, math.Round(rng.Uniform(1, 6)))
				p.Upper[i] = hi
			}
			checkAgainstCold(t, &warm, p, "perturbed")
		}
	}
	if st := statsOf(&warm); st.WarmLPs == 0 {
		t.Fatalf("suite never exercised the warm path: %+v", st)
	}
}

// TestWarmVsColdAcrossShapeChanges reuses one solver across problems
// of different sizes — adoption must drop stale state, not misuse it.
func TestWarmVsColdAcrossShapeChanges(t *testing.T) {
	rng := stats.NewRNG(99)
	var warm IncrementalSolver
	for trial := 0; trial < 60; trial++ {
		p, _ := randomILP(rng)
		checkAgainstCold(t, &warm, p, "shape-change")
	}
}

// TestWarmMatchesBruteForce validates the persistent solver against
// exhaustive enumeration, independent of the cold path.
func TestWarmMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(2025)
	var warm IncrementalSolver
	for trial := 0; trial < 80; trial++ {
		p, hiInt := randomILP(rng)
		got, err := warm.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, feasible := bruteForceILP(p, hiInt)
		if !feasible {
			if got.Status != StatusInfeasible {
				t.Fatalf("trial %d: solver says %v, brute force says infeasible\nproblem: %+v", trial, got.Status, p)
			}
			continue
		}
		if got.Status != StatusOptimal {
			t.Fatalf("trial %d: solver says %v, brute force found %v", trial, got.Status, want)
		}
		if !approx(got.Objective, want, 1e-6) {
			t.Fatalf("trial %d: solver %v != brute force %v\nproblem: %+v", trial, got.Objective, want, p)
		}
	}
}

// hardKnapsack builds a knapsack instance whose branch-and-bound tree
// is deliberately deep: near-identical value/weight ratios force many
// fractional relaxations.
func hardKnapsack(n int) *Problem {
	w := make([]float64, n)
	v := make([]float64, n)
	ints := make([]bool, n)
	hi := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = float64(7 + (i*13)%11)
		v[i] = w[i] + 0.01*float64(i%5)
		ints[i] = true
		hi[i] = 1
	}
	cap := 0.0
	for _, wi := range w {
		cap += wi
	}
	return &Problem{
		Sense:       Maximize,
		Objective:   v,
		Constraints: []Constraint{{Coeffs: w, Rel: LE, RHS: math.Floor(cap / 2)}},
		Upper:       hi,
		Integer:     ints,
	}
}

// TestNodeLimitReturnsIncumbent pins the satellite bugfix: a solve
// that runs out of nodes with a feasible incumbent in hand returns it
// with StatusNodeLimit instead of failing.
func TestNodeLimitReturnsIncumbent(t *testing.T) {
	p := hardKnapsack(22)

	// Establish that the instance genuinely needs more than a couple
	// of nodes, so the capped run below cannot finish.
	full, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if full.Nodes <= 4 {
		t.Fatalf("instance too easy to exercise the node limit: %d nodes", full.Nodes)
	}

	// Seed a (suboptimal) feasible incumbent and cap hard.
	init := make([]float64, p.NumVars())
	init[0] = 1
	p.Initial = init
	p.NodeLimit = 2
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("want best-effort incumbent, got error %v", err)
	}
	if sol.Status != StatusNodeLimit {
		t.Fatalf("status = %v, want %v", sol.Status, StatusNodeLimit)
	}
	if !isFeasible(p, sol.X) {
		t.Fatalf("node-limit incumbent is infeasible: %v", sol.X)
	}
	if sol.Objective < p.Objective[0]-1e-9 {
		t.Fatalf("incumbent %v worse than the seeded plan %v", sol.Objective, p.Objective[0])
	}

	// Without any incumbent the same cap is a hard failure.
	p.Initial = nil
	if _, err := Solve(p); !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("want ErrNodeLimit with no incumbent, got %v", err)
	}
}

// TestRelativePruneEpsilonScaledObjective pins the satellite bugfix:
// with an absolute 1e-9 pruning epsilon, a 1e-6-scaled objective's
// true optimum (1.0001e-6, only 1e-10 better than the seeded
// incumbent... scaled: 1e-4·1e-6 = 1e-10 < 1e-9) is wrongly pruned
// and the solver returns the seed. The relative epsilon keeps the
// band proportional to the coefficient scale.
func TestRelativePruneEpsilonScaledObjective(t *testing.T) {
	const scale = 1e-6
	p := &Problem{
		Sense:     Maximize,
		Objective: []float64{scale * (1 + 1e-4), scale},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 1},
		},
		Upper:   []float64{1, 1},
		Integer: []bool{true, true},
		Initial: []float64{0, 1}, // feasible seed, objective = scale
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// The root LP lands exactly on the integral optimum (x0=1); the
	// only thing between it and the returned solution is the
	// bound-vs-incumbent prune, whose old absolute 1e-9 band swallows
	// the 1e-10 improvement over the seed.
	want := scale * (1 + 1e-4)
	if math.Abs(sol.Objective-want) > 1e-12 {
		t.Fatalf("objective = %.12g, want %.12g (absolute-epsilon pruning would return %.12g)",
			sol.Objective, want, scale)
	}
	if sol.X[0] != 1 {
		t.Fatalf("x = %v, want the better variable selected", sol.X)
	}
}

// TestIncrementalSolverAllocatesLittle pins the pooling: steady-state
// warm solves of an unchanged-shape problem allocate only the
// returned Solution, not fresh tableau slabs.
func TestIncrementalSolverAllocatesLittle(t *testing.T) {
	p := hardKnapsack(16)
	var s IncrementalSolver
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		p.Constraints[0].RHS += 1
		if p.Constraints[0].RHS > 80 {
			p.Constraints[0].RHS = 40
		}
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	// Solution struct + X slice + a small hash-probe budget; a fresh
	// tableau per node would be hundreds.
	if allocs > 20 {
		t.Fatalf("steady-state warm solve allocates too much: %.0f allocs/op", allocs)
	}
}

// FuzzWarmVsCold drives a persistent solver through fuzzer-chosen
// bound and RHS perturbations of a fuzzer-built instance and requires
// agreement with a fresh solve at every step.
func FuzzWarmVsCold(f *testing.F) {
	f.Add([]byte{3, 2, 5, 3, 1, 200, 100, 4, 7, 2, 9, 1, 30, 0, 2, 1, 1, 3})
	f.Add([]byte{2, 1, 1, 1, 128, 4, 128, 140, 3, 10, 2, 0, 250})
	f.Add([]byte{4, 3, 2, 2, 1, 1, 90, 10, 201, 5, 66, 3, 17, 120, 0, 1, 2, 2, 1, 7, 250, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		pos := 0
		next := func() byte {
			b := data[pos%len(data)]
			pos++
			return b
		}
		n := 1 + int(next())%4
		m := 1 + int(next())%3
		p := &Problem{
			Sense:     Sense(int(next()) % 2),
			Objective: make([]float64, n),
			Upper:     make([]float64, n),
			Integer:   make([]bool, n),
		}
		for i := 0; i < n; i++ {
			p.Objective[i] = float64(int(next())-128) / 16
			p.Upper[i] = float64(1 + int(next())%4)
			p.Integer[i] = true
		}
		for k := 0; k < m; k++ {
			co := make([]float64, n)
			for i := range co {
				co[i] = float64(int(next())-128) / 32
			}
			p.Constraints = append(p.Constraints, Constraint{
				Coeffs: co,
				Rel:    Rel(int(next()) % 3),
				RHS:    float64(int(next())-100) / 8,
			})
		}
		var warm IncrementalSolver
		for step := 0; step < 4; step++ {
			warmSol, warmErr := warm.Solve(p)
			var cold IncrementalSolver
			coldSol, coldErr := cold.Solve(p)
			if (warmErr == nil) != (coldErr == nil) {
				t.Fatalf("step %d: warm err=%v cold err=%v", step, warmErr, coldErr)
			}
			if warmErr == nil {
				if warmSol.Status != coldSol.Status {
					t.Fatalf("step %d: warm %v != cold %v\nproblem: %+v", step, warmSol.Status, coldSol.Status, p)
				}
				if warmSol.Status == StatusOptimal {
					tol := 1e-6 * math.Max(1, math.Abs(coldSol.Objective))
					if math.Abs(warmSol.Objective-coldSol.Objective) > tol {
						t.Fatalf("step %d: warm obj %v != cold obj %v\nproblem: %+v", step, warmSol.Objective, coldSol.Objective, p)
					}
				}
			}
			// Perturb for the next round: move one RHS and one bound.
			k := int(next()) % len(p.Constraints)
			p.Constraints[k].RHS += float64(int(next())-128) / 16
			i := int(next()) % n
			p.Upper[i] = float64(1 + int(next())%4)
		}
	})
}

// maxViolation is the largest amount by which x breaks a bound or a
// constraint row of p.
func maxViolation(p *Problem, x []float64) float64 {
	worst := 0.0
	for i, v := range x {
		lo, hi := p.boundsAt(i)
		worst = math.Max(worst, math.Max(lo-v, v-hi))
	}
	for _, c := range p.Constraints {
		dot := -c.RHS
		for i, v := range x {
			dot += c.Coeffs[i] * v
		}
		switch c.Rel {
		case LE:
			worst = math.Max(worst, dot)
		case GE:
			worst = math.Max(worst, -dot)
		case EQ:
			worst = math.Max(worst, math.Abs(dot))
		}
	}
	return worst
}

// sweep sizes TestWarmVsColdLongHorizon. The default is 1/20 of the
// full horizon and keeps the package under a second; `make
// sweep-allocator` runs -sweep 100000.
var sweep = flag.Int("sweep", 5000, "ticks of the long-horizon warm-vs-cold drift test")

// TestWarmVsColdLongHorizon is the drift property the periodic cold
// refactor exists for: one IncrementalSolver lives through the whole
// horizon of perturbed ticks on a fixed-shape problem — RHS, matrix and
// bound walks, the three ways a control tick moves — crossing
// refactorEvery many times (some 230 at full size), and at every tick
// its answer is held against a from-scratch solve: same status, the
// objective within tolerance, and the warm integer vector integral,
// feasible and worth the cold optimum (where the optimum is tied the two
// may legitimately pick different vectors; the objective row is drawn
// from the reals so that almost never happens, and the test requires
// the vectors to be identical on nearly every tick).
func TestWarmVsColdLongHorizon(t *testing.T) {
	ticks := *sweep
	r := stats.NewRNG(20).Stream("long-horizon")
	const n, nCons = 5, 4
	// Branch-and-bound accepts integers within intTol of whole and snaps
	// them, which can move a row with coefficients up to 3 by this much.
	const snapTol = n * 3 * intTol
	p := &Problem{
		Sense:     Maximize,
		Objective: make([]float64, n),
		Upper:     make([]float64, n),
		Integer:   []bool{true, true, true, true, false},
	}
	for i := 0; i < n; i++ {
		p.Objective[i] = r.Uniform(0.5, 5)
		p.Upper[i] = float64(2 + r.Intn(5))
	}
	rels := [nCons]Rel{LE, LE, GE, EQ}
	for k := 0; k < nCons; k++ {
		co := make([]float64, n)
		for i := range co {
			co[i] = r.Uniform(0.2, 3)
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: co, Rel: rels[k]})
	}
	// RHS values that keep most ticks feasible: the GE and EQ rows well
	// inside what the LE rows allow.
	rhsLo := [nCons]float64{6, 6, 1, 2}
	rhsHi := [nCons]float64{30, 30, 5, 9}
	for k := range p.Constraints {
		p.Constraints[k].RHS = (rhsLo[k] + rhsHi[k]) / 2
	}
	reflect := func(v, lo, hi float64) float64 {
		if v < lo {
			v = 2*lo - v
		}
		if v > hi {
			v = 2*hi - v
		}
		return math.Min(math.Max(v, lo), hi)
	}

	var warm IncrementalSolver
	optimal, infeasible, sameVector := 0, 0, 0
	for tick := 0; tick < ticks; tick++ {
		switch r.Intn(4) {
		case 0, 1: // demand moved: an RHS walks
			k := r.Intn(nCons)
			p.Constraints[k].RHS = reflect(p.Constraints[k].RHS+r.Normal(0, 1.5), rhsLo[k], rhsHi[k])
		case 2: // demand enters the matrix: a coefficient walks
			k, i := r.Intn(nCons), r.Intn(n)
			p.Constraints[k].Coeffs[i] = reflect(p.Constraints[k].Coeffs[i]+r.Normal(0, 0.3), 0.2, 3)
		case 3: // a root bound moves
			p.Upper[r.Intn(n)] = float64(1 + r.Intn(6))
		}
		got, err := warm.Solve(p)
		if err != nil {
			t.Fatalf("tick %d: warm: %v", tick, err)
		}
		var cold IncrementalSolver
		want, err := cold.Solve(p)
		if err != nil {
			t.Fatalf("tick %d: cold: %v", tick, err)
		}
		if got.Status != want.Status {
			t.Fatalf("tick %d: warm status %v, cold %v\nproblem: %+v", tick, got.Status, want.Status, p)
		}
		if got.Status != StatusOptimal {
			infeasible++
			continue
		}
		optimal++
		tol := 1e-6 * math.Max(1, math.Abs(want.Objective))
		if math.Abs(got.Objective-want.Objective) > tol {
			t.Fatalf("tick %d: warm objective %v, cold %v (after %d warm LPs)\nproblem: %+v\nwarm x=%v cold x=%v",
				tick, got.Objective, want.Objective, statsOf(&warm).WarmLPs, p, got.X, want.X)
		}
		dot, same := 0.0, true
		for i, v := range got.X {
			if p.Integer[i] {
				if v != math.Round(v) {
					t.Fatalf("tick %d: warm x[%d] = %v is not integral", tick, i, v)
				}
				same = same && v == want.X[i]
			}
			dot += p.Objective[i] * v
		}
		if v := maxViolation(p, got.X); v > snapTol || math.Abs(dot-want.Objective) > tol {
			t.Fatalf("tick %d: warm vector %v (violation %g, worth %v) against the cold optimum %v at %v\nproblem: %+v",
				tick, got.X, v, dot, want.Objective, want.X, p)
		}
		if same {
			sameVector++
		}
	}
	st := statsOf(&warm)
	t.Logf("%d ticks: %d optimal (%d with the cold solve's integer vector), %d infeasible; %d warm / %d cold LPs, %d refactor periods crossed",
		ticks, optimal, sameVector, infeasible, st.WarmLPs, st.ColdLPs, st.WarmLPs/refactorEvery)
	if st.WarmLPs < refactorEvery || st.WarmLPs < 4*st.ColdLPs {
		t.Errorf("horizon too easy: %d warm and %d cold LPs never cross refactorEvery = %d on the warm path", st.WarmLPs, st.ColdLPs, refactorEvery)
	}
	if optimal < ticks/2 || sameVector < optimal*99/100 {
		t.Errorf("%d of %d ticks optimal, %d with identical integer vectors: the walk should stay mostly feasible and mostly untied", optimal, ticks, sameVector)
	}
}
