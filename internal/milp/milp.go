// Package milp provides a small, self-contained mixed-integer linear
// programming solver: a two-phase dense primal simplex for linear
// relaxations (Bland's rule, so it cannot cycle) and best-bound
// branch-and-bound for integrality, standing in for Gurobi. No other
// package imports it: the allocator solves the paper's per-tick
// program (Eqs. 1-4) exactly by enumeration, and its tests check that
// enumeration against a brute-force scan.
package milp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the optimization direction.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // <=
	EQ            // ==
	GE            // >=
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return "?"
}

// Constraint is a dense linear constraint over all problem variables.
type Constraint struct {
	Coeffs []float64
	Rel    Rel
	RHS    float64
	// Name is optional, for diagnostics.
	Name string
}

// Problem is a mixed-integer linear program.
type Problem struct {
	Sense       Sense
	Objective   []float64
	Constraints []Constraint
	// Lower and Upper are per-variable bounds. A nil Lower defaults to
	// all zeros; a nil Upper defaults to +Inf. Use math.Inf(1) for
	// unbounded-above variables.
	Lower, Upper []float64
	// Integer flags which variables must take integer values. Nil
	// means all continuous.
	Integer []bool
	// Initial optionally supplies a warm-start candidate. If it is
	// feasible and integral it becomes the incumbent before search
	// begins, letting branch-and-bound prune aggressively.
	Initial []float64
	// NodeLimit caps the number of branch-and-bound nodes explored
	// (0 means the package default). When the cap is hit with an
	// incumbent in hand, Solve returns it with StatusNodeLimit; with
	// no incumbent it returns ErrNodeLimit.
	NodeLimit int
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	n := p.NumVars()
	if n == 0 {
		return errors.New("milp: problem has no variables")
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("milp: Lower has %d entries, want %d", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("milp: Upper has %d entries, want %d", len(p.Upper), n)
	}
	if p.Integer != nil && len(p.Integer) != n {
		return fmt.Errorf("milp: Integer has %d entries, want %d", len(p.Integer), n)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return fmt.Errorf("milp: constraint %d has %d coeffs, want %d", i, len(c.Coeffs), n)
		}
		if math.IsNaN(c.RHS) {
			return fmt.Errorf("milp: constraint %d has NaN RHS", i)
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := p.boundsAt(i)
		if lo > hi {
			return fmt.Errorf("milp: variable %d has empty bound range [%v, %v]", i, lo, hi)
		}
		if math.IsInf(lo, -1) {
			return fmt.Errorf("milp: variable %d has -Inf lower bound (unsupported; shift or split)", i)
		}
	}
	return nil
}

func (p *Problem) boundsAt(i int) (lo, hi float64) {
	lo = 0
	if p.Lower != nil {
		lo = p.Lower[i]
	}
	hi = math.Inf(1)
	if p.Upper != nil {
		hi = p.Upper[i]
	}
	return lo, hi
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	// StatusNodeLimit marks a best-effort solution: branch-and-bound
	// hit its node budget before proving optimality, but a feasible
	// integral incumbent was in hand. Callers that need *a* plan (the
	// control loop) should accept it; callers that need proven
	// optimality should treat it as a failure.
	StatusNodeLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusNodeLimit:
		return "node-limit"
	}
	return "unknown"
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64
	Objective  float64
	Nodes      int // branch-and-bound nodes explored
	Iterations int // total simplex pivots
}

// ErrNodeLimit is returned when branch-and-bound exceeds its node
// budget without proving optimality.
var ErrNodeLimit = errors.New("milp: branch-and-bound node limit exceeded")

const (
	intTol     = 1e-6
	feasTol    = 1e-7
	defaultCap = 200000
)

// SolveLP solves the linear relaxation of the problem (ignoring
// integrality flags).
//
//diffvet:allow deadcode — the reference the LP tests hold the warm-started simplex to
func SolveLP(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lo, hi := boundsOf(p)
	return solveLPBounds(p, lo, hi)
}

// Solve solves the mixed-integer program by best-bound branch and
// bound over LP relaxations. Each call runs cold; callers that solve
// a sequence of related problems (a demand walk) should hold an
// IncrementalSolver instead, which reuses the tableau, basis, node
// pool, and previous incumbent across calls.
//
//diffvet:allow deadcode — the cold reference of FuzzWarmVsCold and the warm-vs-cold suites
func Solve(p *Problem) (*Solution, error) {
	var s IncrementalSolver
	return s.Solve(p)
}

// isFeasible checks a candidate point against bounds, integrality,
// and all constraints within tolerance.
func isFeasible(p *Problem, x []float64) bool {
	for i := range x {
		lo, hi := p.boundsAt(i)
		if x[i] < lo-feasTol || x[i] > hi+feasTol {
			return false
		}
		if p.Integer != nil && p.Integer[i] && math.Abs(x[i]-math.Round(x[i])) > intTol {
			return false
		}
	}
	for _, c := range p.Constraints {
		dot := 0.0
		for i := range x {
			dot += c.Coeffs[i] * x[i]
		}
		switch c.Rel {
		case LE:
			if dot > c.RHS+1e-6 {
				return false
			}
		case GE:
			if dot < c.RHS-1e-6 {
				return false
			}
		case EQ:
			if math.Abs(dot-c.RHS) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// orient converts an objective value into minimize orientation.
func orient(p *Problem, obj float64) float64 {
	if p.Sense == Maximize {
		return -obj
	}
	return obj
}

func boundsOf(p *Problem) (lo, hi []float64) {
	n := p.NumVars()
	lo = make([]float64, n)
	hi = make([]float64, n)
	for i := 0; i < n; i++ {
		lo[i], hi[i] = p.boundsAt(i)
	}
	return lo, hi
}
