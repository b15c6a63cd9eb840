// Package par runs index-ordered work on a bounded pool of goroutines.
// Callers fill slots indexed by i and read them back in index order, so
// what they assemble does not depend on scheduling.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for each i in [0, n) on max(1, min(workers, n))
// goroutines that take indices from a shared counter, and returns when
// every call has returned. It takes no context: a caller that stops early
// checks its own inside fn.
func For(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(1, min(workers, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
