package compresstest_test

// Hostile-size allocation regression tests: a decoded header field is an
// attacker's claim, and no codec may commit memory proportional to the
// claim before the payload's bytes have backed it (the CXB1
// count≤avail/12 discipline, generalized by compress.HeaderPrealloc).
// These tests hand every codec a tiny payload claiming an enormous output
// and assert the total allocation stays near the 1 MiB preallocation cap
// — before the fix, the same payloads demanded claim-sized buffers (about
// 1 GiB for a 1 Gbase claim) on arrival.

import (
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
)

// hostilePayload is a claim-only stream: a uvarint size header followed by
// a few bytes of 0xFF — far too short to legitimately restore the claim.
func hostilePayload(claim uint64) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], claim)
	p := append([]byte(nil), hdr[:n]...)
	for i := 0; i < 48; i++ {
		p = append(p, 0xFF)
	}
	return p
}

// allocDuring measures bytes allocated while fn runs, containing panics
// the way SafeDecompress does (a contained panic is an acceptable decode
// outcome for hostile bytes; an unbounded allocation is not).
func allocDuring(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	func() {
		defer func() { recover() }()
		fn()
	}()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

func TestHostileClaimAllocationBounded(t *testing.T) {
	// Codecs whose decoders detect the truncated stream and error (or
	// panic, contained) promptly: hand them a 1 Gbase claim. Before the
	// prealloc clamp this instantly committed a ~1 GiB output buffer.
	earlyError := []string{"biocompress", "dnacompress", "dnapack", "dnax", "gencompress"}
	for _, name := range earlyError {
		c, err := compress.New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		payload := hostilePayload(1 << 30)
		alloc := allocDuring(func() { c.Decompress(payload) })
		if alloc > 32<<20 {
			t.Errorf("%s: hostile 1Gbase claim allocated %d bytes; the claim must not size allocations ahead of the payload", name, alloc)
		}
	}

	// ctw and xm fabricate symbols from an exhausted range coder rather
	// than erroring, so memory grows only with symbols actually produced.
	// A 2 MiB claim (double the prealloc cap) terminates quickly; before
	// the fix ctw's tree-arena hint alone committed ~400 MB here.
	workProportional := []struct {
		name  string
		build func(claim uint64) []byte
	}{
		{"ctw", func(claim uint64) []byte { return append([]byte{16}, hostilePayload(claim)...) }},
		{"xm", hostilePayload},
	}
	for _, tc := range workProportional {
		c, err := compress.New(tc.name)
		if err != nil {
			t.Fatalf("New(%s): %v", tc.name, err)
		}
		payload := tc.build(1 << 21)
		alloc := allocDuring(func() { c.Decompress(payload) })
		if alloc > 64<<20 {
			t.Errorf("%s: hostile 2Mbase claim allocated %d bytes; allocation must be proportional to symbols decoded, not the claim", tc.name, alloc)
		}
	}
}
