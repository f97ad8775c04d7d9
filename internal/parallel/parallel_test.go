package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapOrderingAndFastPath(t *testing.T) {
	for _, procs := range []int{1, 3, 64} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got, err := Map(37, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 37 {
				t.Fatalf("GOMAXPROCS %d: len %d", procs, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("GOMAXPROCS %d: out[%d] = %d", procs, i, v)
				}
			}
		}()
	}
	if out, err := Map(0, func(i int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v %v", out, err)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	wantErr := errors.New("boom")
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, err := Map(10, func(i int) (int, error) {
				if i >= 3 {
					return 0, wantErr
				}
				return i, nil
			})
			if err != wantErr {
				t.Fatalf("GOMAXPROCS %d: err = %v, want %v", procs, err, wantErr)
			}
		}()
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var inFlight, peak atomic.Int64
	_, err := Map(64, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Errorf("peak concurrency %d exceeds GOMAXPROCS 3", peak.Load())
	}
}
