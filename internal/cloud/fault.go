package cloud

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// TransientError is an injected, retryable storage failure: the op did not
// happen, but an identical retry may succeed. It is the retryable half of
// the store error taxonomy (permanent failures wrap ErrNotFound /
// ErrContainerExists).
type TransientError struct {
	Op        string // "put", "get" or "delete"
	Container string
	Blob      string
	Attempt   int // 0-based attempt counter for this (op, container, blob)
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("cloud: transient %s failure on %s/%s (attempt %d)", e.Op, e.Container, e.Blob, e.Attempt)
}

// IsTransient reports whether err carries a *TransientError anywhere in its
// chain — the retry policy's "is this worth another attempt?" predicate.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}

// FaultConfig parameterizes a FaultyStore.
type FaultConfig struct {
	// Rate is the probability in [0, 1] that any single data-path attempt
	// (Put, Get, GetRange, Delete) fails with a *TransientError. The
	// decision is a deterministic hash of (Seed, op, container, blob,
	// attempt), so a given key always fails the same attempts regardless of
	// how ops on other keys interleave.
	Rate float64
	// Seed selects the fault schedule; the same seed reproduces it exactly.
	Seed uint64
	// OpDelay, when positive, is slept before every data-path attempt. It
	// adds real latency (to widen race windows in chaos tests and to
	// exercise per-op timeouts) without touching any modeled or returned
	// value.
	OpDelay time.Duration
}

// FaultyStore wraps a Store and injects seeded, deterministic transient
// failures into Put, Get, GetRange and Delete. CreateContainer is passed
// through untouched (it is setup, not the data path). Safe for concurrent
// use if the wrapped store is.
type FaultyStore struct {
	inner Store
	cfg   FaultConfig

	mu       sync.Mutex
	attempts map[string]int // per-(op, container, blob) attempt counter
	ops      uint64
	injected uint64
}

// NewFaultyStore wraps inner with the given fault schedule.
func NewFaultyStore(inner Store, cfg FaultConfig) *FaultyStore {
	return &FaultyStore{inner: inner, cfg: cfg, attempts: make(map[string]int)}
}

// hash64 maps (seed, parts...) to a deterministic 64-bit value. FNV's
// avalanche is weak when only the trailing bytes differ (consecutive
// attempt numbers, vnode ordinals), so the sum is run through a
// murmur-style finalizer to spread those differences across all bits. The
// fault schedule and the fleet's consistent-hash ring both key off it.
func hash64(seed uint64, parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashUnit maps (seed, parts...) to a deterministic value in [0, 1) by
// taking the top 53 bits of hash64. The scaling compiles to a
// multiplication; float64(...) rounds it alone, so arm64 cannot fuse it
// into a caller's sum.
func hashUnit(seed uint64, parts ...string) float64 {
	return float64(float64(hash64(seed, parts...)>>11) / float64(1<<53))
}

// roll advances the attempt counter for (op, container, blob) and returns
// the injected fault for this attempt, or nil to let the op through.
func (s *FaultyStore) roll(op, container, blob string) error {
	if s.cfg.OpDelay > 0 {
		time.Sleep(s.cfg.OpDelay)
	}
	s.mu.Lock()
	key := op + "\x00" + container + "\x00" + blob
	attempt := s.attempts[key]
	s.attempts[key] = attempt + 1
	s.ops++
	inject := hashUnit(s.cfg.Seed, op, container, blob, fmt.Sprintf("%d", attempt)) < s.cfg.Rate
	if inject {
		s.injected++
	}
	s.mu.Unlock()
	if inject {
		return &TransientError{Op: op, Container: container, Blob: blob, Attempt: attempt}
	}
	return nil
}

// CreateContainer passes through to the wrapped store.
func (s *FaultyStore) CreateContainer(name string) error {
	return s.inner.CreateContainer(name)
}

// Put uploads a BLOB, or fails transiently per the fault schedule.
func (s *FaultyStore) Put(container, blob string, data []byte) error {
	if err := s.roll("put", container, blob); err != nil {
		return err
	}
	return s.inner.Put(container, blob, data)
}

// keep is Put for a buffer handed over without a copy: it rolls the same
// put fault, then has the wrapped store keep data (see the package-level
// keep).
func (s *FaultyStore) keep(container, blob string, data []byte) error {
	if err := s.roll("put", container, blob); err != nil {
		return err
	}
	return keep(s.inner, container, blob, data)
}

// Get downloads a BLOB, or fails transiently per the fault schedule.
func (s *FaultyStore) Get(container, blob string) ([]byte, error) {
	if err := s.roll("get", container, blob); err != nil {
		return nil, err
	}
	return s.inner.Get(container, blob)
}

// GetRange downloads a span of a BLOB, or fails transiently per the fault
// schedule. A ranged read is a get to the schedule: it rolls under the
// same op and advances the same attempt counter.
func (s *FaultyStore) GetRange(container, blob string, off, n int) ([]byte, error) {
	if err := s.roll("get", container, blob); err != nil {
		return nil, err
	}
	return s.inner.GetRange(container, blob, off, n)
}

// Delete removes a BLOB, or fails transiently per the fault schedule.
func (s *FaultyStore) Delete(container, blob string) error {
	if err := s.roll("delete", container, blob); err != nil {
		return err
	}
	return s.inner.Delete(container, blob)
}

// Counters reports lifetime data-path attempts and how many had a fault
// injected.
func (s *FaultyStore) Counters() (ops, injected uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops, s.injected
}
