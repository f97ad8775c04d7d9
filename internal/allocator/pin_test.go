package allocator

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"diffserve/internal/milp"
	"diffserve/internal/stats"
)

// pinTicks is the length of the pinned drifting-demand sequence.
const pinTicks = 2000

// pinRun is one pass of the pinned sequence through a long-lived
// production allocator: what testdata/plan_sequence.pin must hold, and
// the solver's counters at the end.
type pinRun struct {
	text  string
	stats milp.IncrementalStats
	err   error
}

var (
	pinOnce   sync.Once
	pinResult pinRun
)

// pinSequence runs the sequence once per test binary; the plan pin and
// the work budget both read it.
func pinSequence(t *testing.T) pinRun {
	t.Helper()
	pinOnce.Do(func() {
		a, err := NewMILP(buildConfig(t, 16, 5))
		if err != nil {
			pinResult.err = err
			return
		}
		r := stats.NewRNG(20).Stream("plan-pin")
		demand := 8.0
		h := sha256.New()
		var rec [7 * 8]byte
		for i := 0; i < pinTicks; i++ {
			p, err := a.Allocate(driftingObservation(r, &demand, i))
			if err != nil {
				pinResult.err = fmt.Errorf("tick %d: %w", i, err)
				return
			}
			// Every field but SolveTime, which is wall clock.
			feasible := uint64(0)
			if p.Feasible {
				feasible = 1
			}
			for k, v := range [...]uint64{
				math.Float64bits(p.Threshold), math.Float64bits(p.DeferFraction),
				uint64(p.LightWorkers), uint64(p.HeavyWorkers),
				uint64(p.LightBatch), uint64(p.HeavyBatch), feasible,
			} {
				binary.LittleEndian.PutUint64(rec[k*8:], v)
			}
			h.Write(rec[:])
		}
		st := a.SolveStats()
		pinResult.stats = st
		pinResult.text = fmt.Sprintf("plans sha256 %x\nsolves %d warm_lps %d cold_lps %d repivots %d dual_pivots %d primal_pivots %d nodes %d\n",
			h.Sum(nil), st.Solves, st.WarmLPs, st.ColdLPs, st.Repivots, st.DualPivots, st.PrimalPivots, st.Nodes)
	})
	if pinResult.err != nil {
		t.Fatal(pinResult.err)
	}
	return pinResult
}

// TestPlanSequencePinned guards bit-identity of the control loop's
// output in tier-1: 2000 drifting-demand ticks through one NewMILP
// allocator, every Plan field hashed bit for bit, plus the solver's path
// counters (same LPs, same pivots, same branch-and-bound nodes), against
// testdata/plan_sequence.pin. The file was generated at PR 19, before
// the simplex kernels learned to skip zeros; a change that is meant to
// keep plans identical must leave it alone, and one that is meant to
// move them (another pivot rule, a bounded-variable simplex) replaces it
// with the text this test prints and says so.
func TestPlanSequencePinned(t *testing.T) {
	want, err := os.ReadFile("testdata/plan_sequence.pin")
	if err != nil {
		t.Fatal(err)
	}
	if got := pinSequence(t).text; got != string(want) {
		t.Fatalf("plan sequence moved.\ngot:\n%swant:\n%s", got, want)
	}
}

// TestPivotWorkBudget holds the simplex kernel to its zero-skipping: over
// the pinned sequence the multiply-subtracts pivot executed must stay
// under half of what a dense update of the same rows costs (0.37 when
// written), so a slide back to the dense loop fails here, not only in a
// timing. The counters are deterministic.
func TestPivotWorkBudget(t *testing.T) {
	st := pinSequence(t).stats
	if st.PivotCells == 0 || st.PivotDense == 0 {
		t.Fatalf("pivot counters did not move: %+v", st)
	}
	ratio := float64(st.PivotCells) / float64(st.PivotDense)
	t.Logf("%d pivots, %d multiply-subtracts (%.0f per tick), %.3f of the dense %d",
		st.Repivots+st.DualPivots+st.PrimalPivots, st.PivotCells, float64(st.PivotCells)/pinTicks, ratio, st.PivotDense)
	if ratio > 0.5 {
		t.Fatalf("pivot executed %.3f of the dense multiply-subtract count, budget 0.5", ratio)
	}
}
