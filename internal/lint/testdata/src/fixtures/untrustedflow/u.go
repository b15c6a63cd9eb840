// Package untrustedflow is a dnalint fixture for the untrusted-byte taint
// analysis: bytes from a cloud store, a file read or a []byte parameter
// must reach codecs only through the hardened compress.Safe* layer.
package untrustedflow

import (
	"context"
	"io"
	"os"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/serve"
)

// rawCodec stands in for any registered codec's raw decode entry point.
type rawCodec struct{}

func (rawCodec) Decompress(data []byte) ([]byte, error) { return data, nil }

func (rawCodec) DecompressTo(dst, data []byte) ([]byte, error) { return append(dst[:0], data...), nil }

func rawFromStore(store cloud.Store) ([]byte, error) {
	blob, err := store.Get("c", "b")
	if err != nil {
		return nil, err
	}
	var c rawCodec
	return c.Decompress(blob) // want `untrusted bytes reach a raw Decompress`
}

// intoBuffer proves the entry point that restores into a caller's buffer
// is a raw decode, as Decompress is.
func intoBuffer(store cloud.Store) ([]byte, error) {
	blob, err := store.Get("c", "b")
	if err != nil {
		return nil, err
	}
	var c rawCodec
	return c.DecompressTo(nil, blob) // want `untrusted bytes reach a raw DecompressTo`
}

func safeFromStore(store cloud.Store) ([]byte, error) {
	blob, err := store.Get("c", "b")
	if err != nil {
		return nil, err
	}
	out, _, err := compress.SafeDecompress("", blob, compress.Limits{}) // ok: hardened path
	return out, err
}

// reassembled proves taint survives append-reassembly and loops — the
// ExchangeBlocks download shape.
func reassembled(store cloud.Store) ([]byte, error) {
	var all []byte
	for i := 0; i < 3; i++ {
		piece, err := store.Get("c", "b")
		if err != nil {
			return nil, err
		}
		all = append(all, piece...)
	}
	var c rawCodec
	return c.Decompress(all) // want `untrusted bytes reach a raw Decompress`
}

// rangeFromStore proves a ranged read is as untrusted as a whole one.
func rangeFromStore(store cloud.Store) ([]byte, error) {
	span, err := store.GetRange("c", "b", 0, 512)
	if err != nil {
		return nil, err
	}
	var c rawCodec
	return c.Decompress(span) // want `untrusted bytes reach a raw Decompress`
}

// versioned is the daemon's shape of a fleet's pinned ranged read: an
// interface declared outside internal/cloud.
type versioned interface {
	GetRangeCtx(ctx context.Context, container, blob string, off, n int, pin uint64) ([]byte, uint64, error)
}

func rangeFromVersioned(ctx context.Context, vs versioned) []byte {
	head, _, _ := vs.GetRangeCtx(ctx, "c", "b", 0, 512, 0)
	return make([]byte, int(head[0])) // want `sized by untrusted input`
}

// indexSized proves OpenBlockIndex sanitizes: what the reader it opens
// reports was checked against the bytes present.
func indexSized(store cloud.Store) []byte {
	head, _ := store.GetRange("c", "b", 0, 512)
	rd, err := compress.OpenBlockIndex(nil, head, compress.Limits{})
	if err != nil {
		return nil
	}
	return make([]byte, rd.Size()) // ok: the open bounded every claim
}

// fromBody proves a request body read through serve.ReadBody is
// untrusted, as one read through io.ReadAll is.
func fromBody(r io.Reader) ([]byte, error) {
	body, err := serve.ReadBody(r, -1, 1<<20)
	if err != nil {
		return nil, err
	}
	var c rawCodec
	return c.Decompress(body) // want `untrusted bytes reach a raw Decompress`
}

// fromFile proves os.ReadFile results are untrusted.
func fromFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c rawCodec
	return c.Decompress(raw) // want `untrusted bytes reach a raw Decompress`
}

// fromParam proves []byte parameters are untrusted at function entry.
func fromParam(payload []byte) ([]byte, error) {
	var c rawCodec
	return c.Decompress(payload) // want `untrusted bytes reach a raw Decompress`
}

// laundered proves a reassignment kill: bytes replaced by a sanitized
// result stop being tainted.
func laundered(store cloud.Store) ([]byte, error) {
	blob, err := store.Get("c", "b")
	if err != nil {
		return nil, err
	}
	blob, _, err = compress.SafeDecompressAny("", blob, compress.Limits{})
	if err != nil {
		return nil, err
	}
	var c rawCodec
	return c.Decompress(blob) // ok: blob was rebound to the sanitized output
}

// hostileSize proves the make-sizing sink: a length pulled out of
// untrusted bytes must be bounded before it sizes an allocation.
func hostileSize(store cloud.Store) []byte {
	blob, _ := store.Get("c", "b")
	n := int(blob[0])
	return make([]byte, n) // want `sized by untrusted input`
}

func boundedSize(store cloud.Store) []byte {
	blob, _ := store.Get("c", "b")
	n := int(blob[0])
	if n > 64 {
		n = 64
	}
	return make([]byte, n) // ok: n was compared against a bound
}

func suppressed(store cloud.Store) ([]byte, error) {
	blob, _ := store.Get("c", "b")
	var c rawCodec
	//lint:ignore untrustedflow fixture exercises the suppression directive
	return c.Decompress(blob)
}
