package allocator

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"

	"diffserve/internal/stats"
)

// pinTicks is the length of the pinned drifting-demand sequence.
const pinTicks = 2000

// TestPlanSequencePinned guards bit-identity of the control loop's
// output in tier-1: 2000 drifting-demand ticks through one NewMILP
// allocator, every Plan field but SolveTime hashed bit for bit, against
// testdata/plan_sequence.pin. A change that is meant to keep plans
// identical must leave the file alone; one that is meant to move them
// replaces it with the text this test prints and says so.
func TestPlanSequencePinned(t *testing.T) {
	a, err := NewMILP(buildConfig(t, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(20).Stream("plan-pin")
	demand := 8.0
	h := sha256.New()
	var rec [7 * 8]byte
	for i := 0; i < pinTicks; i++ {
		p, err := a.Allocate(driftingObservation(r, &demand, i))
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
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
	want, err := os.ReadFile("testdata/plan_sequence.pin")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("plans sha256 %x\n", h.Sum(nil)); got != string(want) {
		t.Fatalf("plan sequence moved.\ngot:\n%swant:\n%s", got, want)
	}
}
