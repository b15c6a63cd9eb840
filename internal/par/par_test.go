package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForRunsEachIndexOnceWithinBound: every index in [0, n) runs exactly
// once, no more than max(1, min(workers, n)) calls run at once, and For
// returns only after the last call has returned.
func TestForRunsEachIndexOnceWithinBound(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 2, 8, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				var running, high, returned atomic.Int64
				For(n, workers, func(i int) {
					now := running.Add(1)
					for {
						h := high.Load()
						if now <= h || high.CompareAndSwap(h, now) {
							break
						}
					}
					runs[i].Add(1)
					runtime.Gosched() // let other workers overlap this call
					running.Add(-1)
					returned.Add(1)
				})
				if got := returned.Load(); got != int64(n) {
					t.Fatalf("For returned after %d of %d calls had returned", got, n)
				}
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Fatalf("index %d ran %d times", i, c)
					}
				}
				if bound := int64(max(1, min(workers, n))); high.Load() > bound {
					t.Fatalf("%d calls ran at once, bound %d", high.Load(), bound)
				}
			})
		}
	}
}
