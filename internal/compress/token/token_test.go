package token_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime/metrics"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/dnacompress"
	"github.com/srl-nuces/ctxdna/internal/compress/dnapack"
	"github.com/srl-nuces/ctxdna/internal/compress/dnax"
	"github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	"github.com/srl-nuces/ctxdna/internal/compress/token"
	"github.com/srl-nuces/ctxdna/internal/match"
)

type grammar int

const (
	exact grammar = iota
	edit
	subs
)

// codec is a codec that writes the token stream, with its grammar and the
// limits of its default Config.
type codec struct {
	compress.Codec
	grammar grammar
	min     int // minimum repeat length
	maxOps  int // Edit: the most ops a record holds; Subs: substitutions past one
}

var codecs = []codec{
	{dnax.New(dnax.Config{}), exact, dnax.DefaultMinRepeat, 0},
	{gencompress.New(gencompress.Config{}), edit, gencompress.DefaultMinLen, match.DefaultApproxConfig().MaxOps},
	{dnacompress.New(dnacompress.Config{}), edit, dnacompress.DefaultMinLen, match.DefaultApproxConfig().MaxOps},
	{dnapack.New(dnapack.Config{}), subs, dnapack.DefaultMinRepeat, dnapack.DefaultMaxSubs},
}

// tok is one token: a run of literals, or a repeat record's fields as
// written. Edit and Subs records carry ops; Exact ignores count and ops.
type tok struct {
	lits                []byte
	repeat, rc          bool
	length, dist, count uint64
	ops                 []op
	bases               []byte // what an accepted repeat produces
}

type op struct {
	kind  match.OpKind
	delta uint64 // from the previous op's offset
	base  byte
}

// step is the oracle: it applies t to out, the first bases of a stream of
// n, as plain slice appends, and keeps what a repeat produced in t.bases.
// false marks a record that every decoder must reject as corrupt.
func (c codec) step(out []byte, n uint64, t *tok) ([]byte, bool) {
	if !t.repeat {
		return append(out, t.lits[:min(uint64(len(t.lits)), n-uint64(len(out)))]...), true
	}
	// No field of a stream of at most MaxBases bases reaches huge: such a
	// field is rejected here, and the rest is plain int arithmetic.
	const huge = 1 << 40
	if t.length >= huge || t.dist >= huge || c.grammar != exact && t.count >= huge {
		return out, false
	}
	have, l, d, count := len(out), int(t.length)+c.min, int(t.dist), int(t.count)
	src := have - d - 1 // a direct repeat's source
	if have+l > int(n) || src < 0 {
		return out, false
	}
	offs := []int{}
	for k, off := 0, 0; c.grammar != exact && k < count; k++ {
		if k == len(t.ops) {
			panic("a record's ops end before its count")
		}
		if off += int(t.ops[k].delta); t.ops[k].delta >= huge || off > l || c.grammar == subs && off == l {
			return out, false
		}
		offs = append(offs, off)
	}
	switch c.grammar {
	case exact:
		if t.rc {
			if src = have - d - l; src < 0 {
				return out, false
			}
			for i := src + l - 1; i >= src; i-- {
				out = append(out, 3-out[i])
			}
			break
		}
		for i := src; len(out) < have+l; i++ {
			out = append(out, out[i])
		}
	case subs:
		if l > d+1 || count > c.maxOps+1 {
			return out, false
		}
		copied := append([]byte(nil), out[src:src+l]...)
		for k, off := range offs {
			copied[off] = t.ops[k].base
		}
		out = append(out, copied...)
	case edit:
		if count > c.maxOps {
			return out, false
		}
		for s, k := src, 0; len(out) < have+l; {
			if k < count && offs[k] == len(out)-have {
				o := t.ops[k]
				k++
				if o.kind != match.OpIns {
					s++
				}
				if o.kind != match.OpDel {
					out = append(out, o.base)
				}
				continue
			}
			if s >= have {
				return out, false
			}
			out = append(out, out[s])
			s++
		}
	}
	t.bases = out[have:]
	return out, true
}

// fuzzBytes are the bytes a token list is read from; past the end they
// read as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzBytes) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(b.next())
	}
	return v
}

// field reads a field value in [0, 2^64-2], the range a UintModel codes:
// one of edges (uint64 arithmetic, so an edge below 0 wraps) for a byte
// below 0x80, any value after 0xFF, and otherwise a small one.
func (b *fuzzBytes) field(edges ...uint64) uint64 {
	v := uint64(0)
	switch sel := b.next(); {
	case sel < 0x80:
		v = edges[int(sel)%len(edges)]
	case sel == 0xFF:
		v = b.u64()
	default:
		v = uint64(sel & 0x3F)
	}
	return min(v, math.MaxUint64-1)
}

// budget bounds the bases a generated list produces.
const budget = 1 << 16

// generate maps data to a header claim n and a token list in c's grammar,
// and returns the bases the list decodes to, or false where a decoder must
// reject it. Every list ends where a decoder stops: at n bases or at a
// rejected record. The same bytes give a list in each grammar: a repeat's
// fields are read in one order (orientation, length, distance, count, then
// up to 64 ops), and a grammar ignores what its records lack.
func (c codec) generate(data []byte) (uint64, []tok, []byte, bool) {
	b := fuzzBytes(data)
	var n uint64
	switch b.next() % 4 {
	case 0:
		n = uint64(b.next())
	case 1:
		n = uint64(b.next())<<8 | uint64(b.next())
	case 2:
		n = token.MaxBases - 1 + uint64(b.next()%3)
	default:
		n = b.u64()
	}
	if n > token.MaxBases {
		return n, nil, nil, false
	}
	var toks []tok
	var out []byte
	ok := true
	for ok && uint64(len(out)) < n && len(b) > 0 && len(toks) < 256 {
		toks = append(toks, c.token(&b, uint64(len(out)), n))
		out, ok = c.step(out, n, &toks[len(toks)-1])
	}
	if ok && uint64(len(out)) < n {
		// The bytes ran out first: end on the literals left, or on a
		// record every decoder rejects.
		t := tok{repeat: true, dist: math.MaxUint64 - 1}
		if n-uint64(len(out)) <= budget {
			t = tok{lits: make([]byte, n-uint64(len(out)))}
		}
		toks = append(toks, t)
		out, ok = c.step(out, n, &toks[len(toks)-1])
	}
	return n, toks, out, ok
}

// token reads one token for a stream of n bases that holds have so far.
// Field values lean to the edges of the bounds: 0, have, have+1, 2^63, and
// each grammar's own.
func (c codec) token(b *fuzzBytes, have, n uint64) tok {
	if b.next()&1 == 0 {
		lits := make([]byte, b.next())
		x := uint32(b.next()) | 1
		for i := range lits {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			lits[i] = byte(x >> 30)
		}
		return tok{lits: lits}
	}
	room, m, maxOps := n-have, uint64(c.min), uint64(c.maxOps)
	t := tok{repeat: true, rc: b.next()&1 == 1}
	t.length = b.field(0, have, have+1, 1<<63, room-m, room-m+1)
	l := t.length + m
	t.dist = b.field(0, have, have+1, 1<<63, have-1, have-l, have-l+1, l-1, l-2)
	t.count = b.field(0, have, have+1, 1<<63, maxOps, maxOps+1, maxOps+2)
	for off := uint64(0); uint64(len(t.ops)) < min(t.count, 64); {
		o := op{kind: match.OpKind(b.next() % 3)}
		o.delta = b.field(0, 1, l-off-1, l-off, l-off+1, math.MaxUint64-2, 1<<63)
		o.base = b.next() & 3
		off += o.delta
		t.ops = append(t.ops, o)
	}
	// A record that fits n but not the budget must be rejected before its
	// replay; so must one whose count runs past its generated ops, before
	// the decoder reads past them.
	long := room >= m && t.length <= room-m && have+l > budget
	if c.grammar == exact || t.count == 0 {
		t.ops = nil
		if long {
			t.dist = math.MaxUint64 - 1
		}
	} else if long || t.count > uint64(len(t.ops)) {
		if uint64(len(t.ops)) == t.count {
			t.ops = t.ops[:len(t.ops)-1]
		}
		t.ops = append(t.ops, op{delta: math.MaxUint64 - 1})
	}
	return t
}

// write writes toks with the shared writer, under a header claiming n.
func (c codec) write(n uint64, toks []tok) []byte {
	w := token.NewWriter(0, 2)
	for _, t := range toks {
		if !t.repeat {
			w.Literals(t.lits)
			continue
		}
		ops, off := make([]match.EditOp, len(t.ops)), 0
		for i, o := range t.ops {
			off += int(o.delta) // wraps as the decoder's sum would not
			ops[i] = match.EditOp{Kind: o.kind, Off: off, Base: o.base}
		}
		switch c.grammar {
		case exact:
			w.Exact(t.rc, t.length, t.dist, t.bases)
		case edit:
			w.Edit(t.dist, t.length, t.count, ops, t.bases)
		case subs:
			w.Subs(t.dist, t.length, t.count, ops, t.bases)
		}
	}
	// The writer sizes its buffer from its header's count, so the claim
	// replaces the one-byte header of 0 here.
	return append(binary.AppendUvarint(nil, n), w.Finish()[1:]...)
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// FuzzRepeatTokens writes a token list with the shared writer and decodes
// it with each codec's raw Decompress. A decoder must reject as
// ErrCorrupt exactly the lists the interpreter (step) rejects, return the
// interpreter's bases for the others, never panic, and allocate in
// proportion to what it decoded, not to what a field claims. Run `go test
// -fuzz FuzzRepeatTokens ./internal/compress/token` for a longer campaign.
func FuzzRepeatTokens(f *testing.F) {
	for _, s := range tokenSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			n, toks, want, ok := c.generate(data)
			stream := c.write(n, toks)
			// Twice, keeping the smaller count: other goroutines of the
			// process allocate too.
			var got []byte
			var err error
			grew := uint64(math.MaxUint64)
			for range 2 {
				before := heapAllocs()
				got, _, err = c.Decompress(stream)
				grew = min(grew, heapAllocs()-before)
			}
			switch {
			case !ok && !errors.Is(err, compress.ErrCorrupt):
				t.Fatalf("%s: %d tokens for %d bases: got %d bases, err %v; the interpreter rejects them", c.Name(), len(toks), n, len(got), err)
			case ok && err != nil:
				t.Fatalf("%s: %d tokens for %d bases: %v", c.Name(), len(toks), n, err)
			case ok && !bytes.Equal(got, want):
				t.Fatalf("%s: %d tokens for %d bases: decoded %d bases, not the interpreter's %d", c.Name(), len(toks), n, len(got), len(want))
			}
			// The output's preallocation, slack for the allocator's per-span
			// accounting, and the rest in proportion to input and output.
			if limit := uint64(4*compress.MaxHeaderPrealloc + 64*(len(stream)+len(want))); grew > limit {
				t.Fatalf("%s: allocated %d bytes for %d bases from %d stream bytes", c.Name(), grew, len(want), len(stream))
			}
		}
	})
}

// seed encodes a header claim n and toks as FuzzRepeatTokens input, every
// field a raw value. A literal run keeps only its length.
func seed(n uint64, toks ...tok) []byte {
	raw := func(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(append(b, 0xFF), v) }
	b := binary.BigEndian.AppendUint64([]byte{3}, n)
	for _, t := range toks {
		if !t.repeat {
			b = append(b, 0, byte(len(t.lits)), 7)
			continue
		}
		b = append(b, 1, 0)
		if t.rc {
			b[len(b)-1] = 1
		}
		b = raw(raw(raw(b, t.length), t.dist), t.count)
		for _, o := range t.ops {
			b = append(raw(append(b, byte(o.kind)), o.delta), o.base)
		}
	}
	return b
}

func lits(n int) tok { return tok{lits: make([]byte, n)} }

func rep(rc bool, length, dist, count uint64, ops ...op) tok {
	return tok{repeat: true, rc: rc, length: length, dist: dist, count: count, ops: ops}
}

// tokenSeeds put each bound of each grammar at its edge. Each is a token
// list in every grammar, so a seed aimed at one grammar's bound also runs
// through the others.
func tokenSeeds() [][]byte {
	const max = math.MaxUint64
	subAt := func(delta uint64) op { return op{kind: match.OpSub, delta: delta, base: 2} }
	seeds := [][]byte{
		seed(0),
		seed(40, lits(40)),
		seed(token.MaxBases + 1),
		// Whole repeats: direct, overlapping, reverse complement, and
		// edits and substitutions at both ends.
		seed(80, lits(40), rep(false, 0, 39, 0), lits(24)),
		seed(80, lits(40), rep(false, 4, 0, 0), lits(20)),
		seed(76, lits(40), rep(true, 4, 20, 0), lits(16)),
		seed(60, lits(40), rep(false, 4, 39, 3, subAt(0), op{kind: match.OpIns, delta: 5, base: 1}, op{kind: match.OpDel, delta: 0})),
		seed(60, lits(40), rep(false, 4, 39, 2, subAt(0), subAt(19))),
		// Wrapped lengths, and a length one past the header's count.
		seed(54, lits(40), rep(false, max-1, 39, 0)),
		seed(56, lits(40), rep(false, 1, 39, 0)),
		// Op counts at and one past each grammar's bound (24 edit ops; 9
		// substitutions); past the count listed, ops read as
		// substitutions at offset 0.
		seed(56, lits(40), rep(false, 0, 39, 24)),
		seed(56, lits(40), rep(false, 0, 39, 25)),
		seed(60, lits(40), rep(false, 0, 39, 25)),
		seed(56, lits(40), rep(false, 0, 39, 8+1)),
		seed(56, lits(40), rep(false, 0, 39, 8+2)),
		// A record claiming 2^22 ops in a repeat the header allows.
		seed(1<<31, lits(40), rep(false, 1<<22, 39, 1<<22)),
	}
	// Op offsets at and past each grammar's length (16, or 20 for
	// dnacompress), and wrapped below 0; 4 literals end the 60 bases.
	for _, off := range []uint64{15, 16, 17, 19, 20, 21, 1 << 63, max - 2} {
		seeds = append(seeds, seed(60, lits(40), rep(false, 0, 39, 2, subAt(1), subAt(off-1)), lits(4)))
	}
	seeds = append(seeds,
		// An edit whose source runs into the repeat, and a substitution
		// source that overlaps it.
		seed(17, lits(1), rep(false, 0, 0, 0)),
		seed(36, lits(20), rep(false, 0, 10, 0)),
		// A header of MaxBases: a long record with a claimed count, ended by
		// an op offset past its length.
		seed(token.MaxBases, lits(40), rep(false, 1<<33, 39, 1<<33, subAt(0), subAt(max-1))),
	)
	// The dnax streams of the distance-bounds table: 40 literals, then a
	// 16-base repeat whose distance field reaches past the output so far,
	// some by wrapping a signed int.
	for _, d := range []uint64{40, 1 << 63, max - 4, max - 1} {
		seeds = append(seeds, seed(56, lits(40), rep(false, 0, d, 0)), seed(56, lits(40), rep(true, 0, d, 0)))
	}
	for _, d := range []uint64{0, 24, 25} { // reverse-complement gaps at the edge
		seeds = append(seeds, seed(56, lits(40), rep(true, 0, d, 0)))
	}
	return seeds
}
