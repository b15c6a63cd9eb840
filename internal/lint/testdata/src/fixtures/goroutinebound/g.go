// Package goroutinebound is a dnalint fixture for the bounded-pool
// goroutine discipline: every go statement must be joined through a
// WaitGroup pool, a semaphore channel, or an unconditional completion
// receive.
package goroutinebound

import "sync"

// pool is the repository's canonical worker-pool shape (RunGrid,
// BlockCompress): Add before, Done inside, Wait after.
func pool(n int, work func(int)) {
	var wg sync.WaitGroup
	tasks := make(chan int)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // ok: WaitGroup pool
			defer wg.Done()
			for i := range tasks {
				work(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		tasks <- i
	}
	close(tasks)
	wg.Wait()
}

func fireAndForget(work func()) {
	go work() // want `outside a recognized bounded-pool shape`
}

// noJoin has Add and Done but never waits — the goroutines can outlive
// the function.
func noJoin(n int, work func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { // want `outside a recognized bounded-pool shape`
			defer wg.Done()
			work(i)
		}(i)
	}
}

// semaphore bounds concurrency with a channel: acquire before the spawn,
// release inside.
func semaphore(n int, work func(int)) {
	sem := make(chan struct{}, 4)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(i int) { // ok: semaphore acquire/release
			defer func() { <-sem }()
			work(i)
		}(i)
	}
}

// completionJoin sends the result from the worker and receives it
// unconditionally — a join.
func completionJoin(work func() error) error {
	done := make(chan error, 1)
	go func() { done <- work() }() // ok: unconditional receive below
	return <-done
}

// selectAbandon receives inside a select, so the other arm can abandon
// the goroutine — not a join.
func selectAbandon(work func() error, cancel chan struct{}) error {
	done := make(chan error, 1)
	go func() { done <- work() }() // want `outside a recognized bounded-pool shape`
	select {
	case err := <-done:
		return err
	case <-cancel:
		return nil
	}
}

func suppressed(serve func()) {
	//lint:ignore goroutinebound fixture: serves for the process lifetime by design
	go serve()
}
