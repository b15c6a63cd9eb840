// Package token is the repeat-token stream that dnax, gencompress,
// dnacompress and dnapack write and read. The paper's Table 1 tells these
// codecs apart by how they search for repeats; what they find is coded the
// same way, as tokens: a run of literals or one repeat record.
//
// Stream layout (one range-coder stream after a uvarint header):
//
//	header : uvarint base count n, at most MaxBases
//	token  : flag bit (0 = literal, 1 = repeat), adaptive
//	literal: one symbol through an order-k context model
//	repeat : the record of the codec's grammar, its fields through one
//	         adaptive UintModel per field (length, distance, count, offset)
//	  Exact (dnax): orientation bit (0 direct, 1 reverse complement),
//	         length - min, then the distance field: for a direct repeat
//	         the distance minus one, for a reverse complement the gap
//	         between the source's end and the output's end
//	  Edit (gencompress, dnacompress): distance - 1, length - min, op
//	         count, then per op its kind (two adaptive bits: "is sub?",
//	         then "is ins?"), the delta of its offset from the previous
//	         op's, and for a substitution or an insertion its base (two
//	         adaptive bits)
//	  Subs (dnapack): distance - 1, length - min, substitution count,
//	         then per substitution its offset's delta and its base
//
// A repeat's bases advance the literal model's context as literals would,
// without being coded. min is the codec's minimum repeat length.
//
// Writer writes the stream; Reader reads it, and owns every bound on a
// field: each is compared as read, in uint64, so that no hostile value can
// wrap into range, and memory grows only with what has been decoded.
// biocompress codes its own Fibonacci token stream and shares only the
// exact and reverse-complement replay, CopyExact.
package token

import (
	"encoding/binary"
	"slices"

	"github.com/srl-nuces/ctxdna/internal/arith"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/match"
)

// MaxBases is the largest base count a stream header may claim.
const MaxBases = 1 << 34

// Counts are a stream's tokens, as the codecs' WorkNS charges them.
type Counts struct {
	Literals int64 // literal bases
	Repeats  int64 // repeat records
	Copied   int64 // bases the repeats produce
	Ops      int64 // edit ops or substitutions
}

// models are one stream's adaptive models; a grammar uses some of them.
type models struct {
	lit                      *arith.SymbolModel
	flag, orient             arith.Prob
	length, dist, count, off arith.UintModel
	kind, base               [2]arith.Prob
}

func newModels(order int) models {
	p := arith.NewProb()
	return models{
		lit:  arith.NewSymbolModel(order),
		flag: p, orient: p,
		length: *arith.NewUintModel(), dist: *arith.NewUintModel(),
		count: *arith.NewUintModel(), off: *arith.NewUintModel(),
		kind: [2]arith.Prob{p, p}, base: [2]arith.Prob{p, p},
	}
}

// ModelBytes is the resident size of the literal model and of fields
// field models: the share of PeakMem a codec charges for its models.
func (m *models) ModelBytes(fields int) int {
	return m.lit.MemoryFootprint() + fields*m.dist.MemoryFootprint()
}

// Writer writes a token stream.
type Writer struct {
	models
	Counts Counts
	enc    *arith.Encoder
}

// NewWriter returns a Writer for a stream of n bases whose literals go
// through an order-order context model. The header goes first, and the
// range coder appends its payload behind it.
func NewWriter(n, order int) *Writer {
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(n))
	return &Writer{models: newModels(order), enc: arith.NewEncoder(hdr[:hn], n/3+64)}
}

// Literals writes syms as literal tokens.
func (w *Writer) Literals(syms []byte) {
	w.enc.EncodeLiterals(&w.flag, w.lit, syms)
	w.Counts.Literals += int64(len(syms))
}

// repeat writes a repeat flag for a record that produces bases.
func (w *Writer) repeat(bases []byte) {
	w.enc.EncodeBit(&w.flag, 1)
	lit := w.lit
	for _, b := range bases {
		lit.Observe(b)
	}
	w.Counts.Repeats++
	w.Counts.Copied += int64(len(bases))
}

// Exact writes an exact repeat record (see the package doc for its
// fields) that produces bases.
func (w *Writer) Exact(rc bool, length, dist uint64, bases []byte) {
	w.repeat(bases)
	orient := 0
	if rc {
		orient = 1
	}
	w.enc.EncodeBit(&w.orient, orient)
	w.length.Encode(w.enc, length)
	w.dist.Encode(w.enc, dist)
}

// Edit writes an edit-script repeat record that produces bases: its
// fields, then every op of ops, whose offsets count from the repeat's
// start. A codec passes len(ops) as count.
func (w *Writer) Edit(dist, length, count uint64, ops []match.EditOp, bases []byte) {
	w.repeat(bases)
	w.dist.Encode(w.enc, dist)
	w.length.Encode(w.enc, length)
	w.count.Encode(w.enc, count)
	prev := 0
	for _, op := range ops {
		if op.Kind == match.OpSub {
			w.enc.EncodeBit(&w.kind[0], 0)
		} else {
			w.enc.EncodeBit(&w.kind[0], 1)
			w.enc.EncodeBit(&w.kind[1], int(op.Kind-match.OpIns))
		}
		w.off.Encode(w.enc, uint64(op.Off-prev))
		prev = op.Off
		if op.Kind != match.OpDel {
			w.writeBase(op.Base)
		}
	}
	w.Counts.Ops += int64(len(ops))
}

// Subs writes a repeat record with substitutions that produces bases: its
// fields, then every substitution of subs, whose offsets count from the
// repeat's start. A codec passes len(subs) as count.
func (w *Writer) Subs(dist, length, count uint64, subs []match.EditOp, bases []byte) {
	w.repeat(bases)
	w.dist.Encode(w.enc, dist)
	w.length.Encode(w.enc, length)
	w.count.Encode(w.enc, count)
	prev := 0
	for _, op := range subs {
		w.off.Encode(w.enc, uint64(op.Off-prev))
		prev = op.Off
		w.writeBase(op.Base)
	}
	w.Counts.Ops += int64(len(subs))
}

func (w *Writer) writeBase(b byte) {
	w.enc.EncodeBit(&w.base[0], int(b>>1))
	w.enc.EncodeBit(&w.base[1], int(b&1))
}

// Finish returns the stream: the header, then the range coder's payload.
// The Writer must not be used afterwards.
func (w *Writer) Finish() []byte { return w.enc.Finish() }

// Reader reads a token stream: Next decodes literals up to the next
// repeat record, and the codec's grammar method, Exact, Edit or Subs,
// reads, bounds and replays that record.
type Reader struct {
	models
	Out    []byte // the bases decoded so far
	Counts Counts
	name   string
	dec    *arith.Decoder
	n      uint64
	ops    []match.EditOp // the last record's ops, reused
	err    error          // the stream ran out; the grammar method returns it
}

// NewReader parses the header of data, a stream whose literals go through
// an order-order context model, for the codec named name, the prefix of
// every error the Reader returns. Out restores into dst[:0]'s backing
// array, grown to HeaderPrealloc of the header's count if it has less
// room, then by append: a repeat's source indexes Out, so it never
// reaches a byte of dst that this stream did not restore.
func NewReader(dst, data []byte, name string, order int) (*Reader, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, compress.Corruptf("%s: bad length header", name)
	}
	if n > MaxBases {
		return nil, compress.Corruptf("%s: implausible length %d", name, n)
	}
	return &Reader{
		models: newModels(order),
		Out:    slices.Grow(dst[:0], compress.HeaderPrealloc(n)),
		name:   name,
		dec:    arith.NewDecoder(data[used:]),
		n:      n,
	}, nil
}

// Next decodes literals until Out holds the header's count of bases or a
// repeat flag comes, and reports whether the codec must call its grammar
// method: a repeat record follows, or the stream ran out before the
// header's count, which that method then returns as ErrCorrupt.
func (r *Reader) Next() bool {
	before := len(r.Out)
	var ok bool
	r.Out, ok = Literals(r.dec, &r.flag, r.lit, r.Out, r.n)
	r.Counts.Literals += int64(len(r.Out) - before)
	if !ok {
		r.truncated()
	}
	return r.err != nil || uint64(len(r.Out)) < r.n
}

// truncated records and returns the error of a stream that ran out at
// len(Out). The grammar methods call it once a record's fields are read,
// if the decoder has read past the stream's end.
func (r *Reader) truncated() error {
	r.err = compress.Corruptf("%s: stream ends before base %d of %d", r.name, len(r.Out), r.n)
	return r.err
}

// Literals is dec.DecodeLiterals(flag, m, out, n) in chunks of at most
// arith.OverrunStride literals. After each chunk it checks dec.Overrun,
// and stops early, reporting false, once dec has read past its input: a
// truncated stream cannot make it decode in proportion to a claimed
// count. The symbols, model states and bytes read are DecodeLiterals'
// own.
func Literals(dec *arith.Decoder, flag *arith.Prob, m *arith.SymbolModel, out []byte, n uint64) ([]byte, bool) {
	for {
		target := min(n, uint64(len(out))+arith.OverrunStride)
		out = dec.DecodeLiterals(flag, m, out, target)
		if dec.Overrun() {
			return out, false
		}
		if uint64(len(out)) < target || target == n {
			return out, true
		}
	}
}

// record reads the distance, length and count fields of an Edit or Subs
// record and checks the first two: the source starts at most len(Out)
// bases back, and the repeat, of minLen bases or more, fits in the header's
// count. It returns the repeat's length.
func (r *Reader) record(minLen int) (dist uint64, tlen int, count uint64, err error) {
	if r.err != nil {
		return 0, 0, 0, r.err
	}
	dist = r.dist.Decode(r.dec)
	length := r.length.Decode(r.dec)
	count = r.count.Decode(r.dec)
	if room := r.n - uint64(len(r.Out)); dist >= uint64(len(r.Out)) || room < uint64(minLen) || length > room-uint64(minLen) {
		return 0, 0, 0, compress.Corruptf("%s: repeat (distance field %d, length field %d) out of range at base %d of %d", r.name, dist, length, len(r.Out), r.n)
	}
	return dist, int(length) + minLen, count, nil
}

// copied counts a replayed record.
func (r *Reader) copied(tlen int, ops int) {
	r.Counts.Repeats++
	r.Counts.Copied += int64(tlen)
	r.Counts.Ops += int64(ops)
}

// Exact reads an exact repeat record and appends its bases (CopyExact).
func (r *Reader) Exact(minLen int) error {
	if r.err != nil {
		return r.err
	}
	rc := r.dec.DecodeBit(&r.orient) == 1
	length := r.length.Decode(r.dec)
	dist := r.dist.Decode(r.dec)
	if r.dec.Overrun() {
		return r.truncated()
	}
	out, ok := CopyExact(r.Out, r.n, r.lit, rc, minLen, length, dist)
	if !ok {
		return compress.Corruptf("%s: repeat (rc %v, length field %d, distance field %d) out of range at base %d of %d", r.name, rc, length, dist, len(r.Out), r.n)
	}
	r.copied(len(out)-len(r.Out), 0)
	r.Out = out
	return nil
}

// Edit reads an edit-script repeat record and appends its bases. The
// record holds at most maxOps ops, the most match.ExtendApprox finds, at
// offsets up to its length, and its source, which the ops advance over,
// must end before the repeat starts.
func (r *Reader) Edit(minLen, maxOps int) error {
	dist, tlen, count, err := r.record(minLen)
	if err != nil {
		return err
	}
	if count > uint64(maxOps) {
		return compress.Corruptf("%s: %d ops in a %d-base repeat", r.name, count, tlen)
	}
	ops, off := r.ops[:0], 0
	for range count {
		kind := match.OpSub
		if r.dec.DecodeBit(&r.kind[0]) == 1 {
			kind = match.OpIns + match.OpKind(r.dec.DecodeBit(&r.kind[1]))
		}
		delta := r.off.Decode(r.dec)
		var base byte
		if kind != match.OpDel {
			base = r.readBase()
		}
		if delta > uint64(tlen-off) {
			return compress.Corruptf("%s: op offset %d+%d beyond repeat length %d", r.name, off, delta, tlen)
		}
		off += int(delta)
		ops = append(ops, match.EditOp{Kind: kind, Off: off, Base: base})
	}
	r.ops = ops
	if r.dec.Overrun() {
		return r.truncated()
	}
	out, start, lit := r.Out, len(r.Out), r.lit
	s, next := start-int(dist)-1, 0
	for len(out)-start < tlen {
		if next < len(ops) && ops[next].Off == len(out)-start {
			op := ops[next]
			next++
			if op.Kind != match.OpIns {
				s++
			}
			if op.Kind != match.OpDel {
				out = append(out, op.Base)
				lit.Observe(op.Base)
			}
			continue
		}
		if s >= start {
			return compress.Corruptf("%s: edit replay source %d escapes the %d bases before the repeat", r.name, s, start)
		}
		b := out[s]
		out = append(out, b)
		lit.Observe(b)
		s++
	}
	r.Out = out
	r.copied(tlen, len(ops))
	return nil
}

// Subs reads a repeat record with substitutions and appends its bases.
// The source must end before the repeat starts, and the record holds at
// most maxSubs + 1 substitutions, at offsets below its length; of two at
// one offset the later wins.
func (r *Reader) Subs(minLen, maxSubs int) error {
	dist, tlen, count, err := r.record(minLen)
	if err != nil {
		return err
	}
	if uint64(tlen) > dist+1 || count > uint64(maxSubs)+1 {
		return compress.Corruptf("%s: %d-base repeat with %d substitutions from %d bases back", r.name, tlen, count, dist+1)
	}
	subs, off := r.ops[:0], 0
	for range count {
		delta := r.off.Decode(r.dec)
		base := r.readBase()
		if delta >= uint64(tlen-off) {
			return compress.Corruptf("%s: substitution offset %d+%d beyond repeat length %d", r.name, off, delta, tlen)
		}
		off += int(delta)
		subs = append(subs, match.EditOp{Kind: match.OpSub, Off: off, Base: base})
	}
	r.ops = subs
	if r.dec.Overrun() {
		return r.truncated()
	}
	out, lit := r.Out, r.lit
	src, next := len(out)-int(dist)-1, 0
	for t := range tlen {
		b := out[src+t]
		for next < len(subs) && subs[next].Off == t {
			b = subs[next].Base
			next++
		}
		out = append(out, b)
		lit.Observe(b)
	}
	r.Out = out
	r.copied(tlen, len(subs))
	return nil
}

func (r *Reader) readBase() byte {
	hi := r.dec.DecodeBit(&r.base[0])
	return byte(hi<<1 | r.dec.DecodeBit(&r.base[1]))
}

// CopyExact appends to out, the output so far of a stream of n bases, the
// exact repeat of minLen+length bases whose distance field is dist, and
// advances lit's context over it. A direct repeat's source starts dist+1
// bases back and may run into the bases it produces; a reverse
// complement's source ends dist bases before out does. It returns out
// unchanged and false if the repeat would pass n or its source is not in
// out.
func CopyExact(out []byte, n uint64, lit *arith.SymbolModel, rc bool, minLen int, length, dist uint64) ([]byte, bool) {
	have := uint64(len(out))
	if room := n - have; room < uint64(minLen) || length > room-uint64(minLen) {
		return out, false
	}
	l := int(length) + minLen
	if rc {
		if uint64(l) > have || dist > have-uint64(l) {
			return out, false
		}
		src := len(out) - int(dist) - l
		for t := 0; t < l; t++ {
			b := 3 - (out[src+l-1-t] & 3)
			out = append(out, b)
			lit.Observe(b)
		}
		return out, true
	}
	if dist >= have {
		return out, false
	}
	src := len(out) - int(dist) - 1
	for t := 0; t < l; t++ { // byte-wise: overlapping copies are legal
		b := out[src+t]
		out = append(out, b)
		lit.Observe(b)
	}
	return out, true
}
