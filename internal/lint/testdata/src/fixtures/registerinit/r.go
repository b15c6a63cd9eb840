// Package registerinit is a dnalint fixture: compress.Register must be
// called directly from func init() with a constant lowercase name literal.
package registerinit

import "github.com/srl-nuces/ctxdna/internal/compress"

type codec struct{}

func (codec) Name() string { return "fixturecodec" }
func (codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	return src, compress.Stats{}, nil
}
func (c codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}
func (codec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	return append(dst[:0], data...), compress.Stats{}, nil
}

func init() {
	compress.Register("fixturecodec", func() compress.Codec { return codec{} }) // ok
}

var dynamicName = "computed"

const constName = "constcodec"

func init() {
	compress.Register(dynamicName, func() compress.Codec { return codec{} })  // want `constant string literal`
	compress.Register("Mixed-Case", func() compress.Codec { return codec{} }) // want `lowercase alphanumeric`
	compress.Register(constName, func() compress.Codec { return codec{} })    // ok: constants fold at compile time
	defer func() {
		compress.Register("deferred", func() compress.Codec { return codec{} }) // want `directly from func init`
	}()
}

func RegisterLate() {
	compress.Register("late", func() compress.Codec { return codec{} }) // want `directly from func init`
}
