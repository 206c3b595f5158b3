package stats

import (
	"sync"
	"sync/atomic"
)

// ForEachIndexed evaluates fn(0), …, fn(n-1) on at most workers
// goroutines and returns the results in index order. workers <= 1
// degrades to the plain sequential loop. A panic in any fn is re-raised
// on the caller after the pool drains, mirroring the sequential behavior
// closely enough for the harness's fatal-error style.
//
// It is the between-runs fan-out of the parallel experiments and of the
// service's multi-seed jobs: the runs are independent machines that share
// no state, and slotting the results by index keeps aggregation in the
// sequential loop's order, so printed tables come out byte-for-byte
// identical. The machine itself stays single-threaded per run.
func ForEachIndexed[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}
