// Package parallel provides the bounded, deterministic fan-out helper
// shared by the experiment drivers, the metrics timeline and the
// cascade calibration sweeps: index-ordered results, fail-fast error
// propagation, and a worker pool GOMAXPROCS wide. Tests that need a
// given width set runtime.GOMAXPROCS.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn for every index in [0, n) on up to GOMAXPROCS goroutines
// and returns the results in index order.
//
// Independent simulation runs, sweep points, cascade curves and
// timeline buckets each own their seeded RNG streams and mutate no
// shared state (a shared Space or scorer draws every value from a
// per-query stream on a pooled RNG, and the images it memoizes on a
// *Query are value-deterministic), so fanning them out is bit-for-bit
// deterministic: the result slice is identical to a serial loop
// regardless of worker count or scheduling order. The first error
// encountered in index order is returned, mirroring a serial loop's
// fail-fast behavior.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Fail fast: once any job has errored, in-flight jobs
				// finish but no new jobs start.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
