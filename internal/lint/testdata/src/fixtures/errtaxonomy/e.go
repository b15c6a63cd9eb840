// Package errtaxonomy is a dnalint fixture for the corrupt-stream error
// taxonomy: fmt.Errorf reachable from Decompress, or from a shared stream
// reader's exported API, must wrap with %w or go through compress.Corruptf.
package errtaxonomy

import (
	"fmt"

	"github.com/srl-nuces/ctxdna/internal/compress"
)

func Decompress(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty stream") // want `without %w or compress\.Corruptf`
	}
	if data[0] == 0xff {
		return nil, compress.Corruptf("bad magic %x", data[0]) // ok: inside the taxonomy
	}
	if err := useCorruptf(data); err != nil {
		return nil, err
	}
	payload, err := readPayload(data[1:])
	if err != nil {
		return nil, fmt.Errorf("payload: %w", err) // ok: wraps the cause
	}
	return payload, nil
}

// readPayload is reachable from Decompress, so its errors are decode-path
// errors too.
func readPayload(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("truncated payload") // want `without %w or compress\.Corruptf`
	}
	return data, nil
}

// Corruptf mirrors the compress package's taxonomy constructor: the one
// function allowed to fmt.Errorf a non-constant format on a decode path.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("corrupt: "+format, args...) // ok: the taxonomy constructor itself
}

// useCorruptf keeps the local Corruptf reachable from the Decompress root.
func useCorruptf(data []byte) error {
	if len(data) > 1<<30 {
		return Corruptf("absurd length %d", len(data))
	}
	return nil
}

func Compress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("empty input") // ok: compress side, not a decode path
	}
	return append([]byte{0}, src...), nil
}

// Reader is a shared stream reader: its exported methods, and the exported
// functions that return one, are decode paths of every codec that uses it.
type Reader struct {
	data []byte
	out  []byte
}

func NewReader(data []byte) (*Reader, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("no header") // want `without %w or compress\.Corruptf`
	}
	return &Reader{data: data[1:]}, nil
}

func (r *Reader) Repeat(n int) error {
	if n > len(r.out) {
		return fmt.Errorf("repeat of %d overruns %d bases", n, len(r.out)) // want `without %w or compress\.Corruptf`
	}
	return r.replay(n)
}

// replay is reachable from Repeat, so its errors are decode-path errors too.
func (r *Reader) replay(n int) error {
	if n == 0 {
		return fmt.Errorf("empty repeat") // want `without %w or compress\.Corruptf`
	}
	r.out = append(r.out, r.out[len(r.out)-n:]...)
	return nil
}

func (r *Reader) Literal(b byte) error {
	if b > 3 {
		return compress.Corruptf("symbol %d", b) // ok: inside the taxonomy
	}
	r.out = append(r.out, b)
	return nil
}

// Writer's methods are compress-side: no decode path starts there.
type Writer struct{ out []byte }

func (w *Writer) Repeat(n int) error {
	if n <= 0 {
		return fmt.Errorf("bad repeat length %d", n) // ok: compress side
	}
	return nil
}
