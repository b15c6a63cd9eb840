package arith

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestStaticBitRoundTrip(t *testing.T) {
	bits := []int{0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0}
	const p0 = ProbOne / 2
	e := NewEncoder(nil, 32)
	for _, b := range bits {
		e.EncodeBitP(p0, b)
	}
	d := NewDecoder(e.Finish())
	for i, want := range bits {
		if got := d.DecodeBitP(p0); got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

// TestEncoderLead: an encoder given leading bytes returns them, then the
// bytes an encoder given none returns for the same bits, whatever carries
// the bits propagate (0xFF leads and skewed probabilities make many).
func TestEncoderLead(t *testing.T) {
	for _, lead := range [][]byte{nil, {7}, bytes.Repeat([]byte{0xFF}, binary.MaxVarintLen64)} {
		rng := rand.New(rand.NewSource(int64(len(lead))))
		plain, led := NewEncoder(nil, 16), NewEncoder(lead, 16)
		for i := 0; i < 50000; i++ {
			p0, bit := uint32(1+rng.Intn(ProbOne-1)), rng.Intn(2)
			plain.EncodeBitP(p0, bit)
			led.EncodeBitP(p0, bit)
		}
		want := plain.Finish()
		if got := led.Finish(); !bytes.Equal(got[:len(lead)], lead) || !bytes.Equal(got[len(lead):], want) {
			t.Fatalf("lead %x: output is not the lead and then the %d bytes coded without it", lead, len(want))
		}
	}
}

func TestSkewedProbabilities(t *testing.T) {
	// Extreme but legal probabilities must round-trip.
	for _, p0 := range []uint32{1, 7, ProbOne / 16, ProbOne - 1} {
		rng := rand.New(rand.NewSource(int64(p0)))
		bits := make([]int, 3000)
		for i := range bits {
			if rng.Float64() > float64(p0)/ProbOne {
				bits[i] = 1
			}
		}
		e := NewEncoder(nil, 1024)
		for _, b := range bits {
			e.EncodeBitP(p0, b)
		}
		d := NewDecoder(e.Finish())
		for i, want := range bits {
			if got := d.DecodeBitP(p0); got != want {
				t.Fatalf("p0=%d bit %d: got %d want %d", p0, i, got, want)
			}
		}
	}
}

func TestAdaptiveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bits := make([]int, 20000)
	for i := range bits {
		// A biased, drifting source that exercises model adaptation.
		if rng.Float64() < 0.2+0.5*math.Sin(float64(i)/500)*math.Sin(float64(i)/500) {
			bits[i] = 1
		}
	}
	pe, pd := NewProb(), NewProb()
	e := NewEncoder(nil, 4096)
	for _, b := range bits {
		e.EncodeBit(&pe, b)
	}
	out := e.Finish()
	d := NewDecoder(out)
	for i, want := range bits {
		if got := d.DecodeBit(&pd); got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
	if pe != pd {
		t.Fatalf("encoder and decoder models diverged: %d vs %d", pe, pd)
	}
}

func TestCompressionOfBiasedSource(t *testing.T) {
	// A 95/5 source has entropy ~0.286 bits/bit; the adaptive coder should
	// land well under 0.45 bits/bit including overhead.
	rng := rand.New(rand.NewSource(11))
	const n = 100000
	p := NewProb()
	e := NewEncoder(nil, n/4)
	for i := 0; i < n; i++ {
		b := 0
		if rng.Float64() < 0.05 {
			b = 1
		}
		e.EncodeBit(&p, b)
	}
	out := e.Finish()
	bpb := float64(len(out)*8) / n
	if bpb > 0.45 {
		t.Fatalf("biased source compressed to %.3f bits/bit, want < 0.45", bpb)
	}
	if bpb < 0.2 {
		t.Fatalf("suspiciously good rate %.3f bits/bit — check entropy accounting", bpb)
	}
}

func TestRandomSourceNearOneBit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 50000
	p := NewProb()
	e := NewEncoder(nil, n/8)
	for i := 0; i < n; i++ {
		e.EncodeBit(&p, rng.Intn(2))
	}
	out := e.Finish()
	bpb := float64(len(out)*8) / n
	if bpb < 0.99 || bpb > 1.05 {
		t.Fatalf("uniform source at %.4f bits/bit, want ~1.0", bpb)
	}
}

func TestProbUpdateBounds(t *testing.T) {
	p := NewProb()
	for i := 0; i < 1000; i++ {
		p.Update(0)
	}
	if uint32(p) == 0 || uint32(p) >= ProbOne {
		t.Fatalf("prob escaped range after zeros: %d", p)
	}
	hi := uint32(p)
	if hi < ProbOne*9/10 {
		t.Fatalf("prob failed to adapt upward: %d", hi)
	}
	for i := 0; i < 1000; i++ {
		p.Update(1)
	}
	if uint32(p) == 0 || uint32(p) >= ProbOne {
		t.Fatalf("prob escaped range after ones: %d", p)
	}
	if uint32(p) > ProbOne/10 {
		t.Fatalf("prob failed to adapt downward: %d", p)
	}
}

func TestCarryPropagation(t *testing.T) {
	// Long runs of maximally-probable bits push low close to the range top,
	// manufacturing pending-carry chains inside the encoder.
	e := NewEncoder(nil, 1024)
	pattern := make([]int, 5000)
	for i := range pattern {
		if i%97 == 96 {
			pattern[i] = 0
		} else {
			pattern[i] = 1
		}
	}
	const p0 = ProbOne - 1 // bit 1 gets a microscopic sub-range
	for _, b := range pattern {
		e.EncodeBitP(p0, b)
	}
	d := NewDecoder(e.Finish())
	for i, want := range pattern {
		if got := d.DecodeBitP(p0); got != want {
			t.Fatalf("carry test bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestFinishIdempotent(t *testing.T) {
	e := NewEncoder(nil, 16)
	e.EncodeBitP(ProbOne/2, 1)
	a := e.Finish()
	b := e.Finish()
	if len(a) != len(b) {
		t.Fatalf("second Finish changed output: %d vs %d bytes", len(a), len(b))
	}
}

func TestQuickBitstream(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		if len(data) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		probs := make([]uint32, 16)
		for i := range probs {
			probs[i] = uint32(rng.Intn(ProbOne-2)) + 1
		}
		e := NewEncoder(nil, len(data)*2)
		for i, b := range data {
			for k := 7; k >= 0; k-- {
				e.EncodeBitP(probs[(i+k)%16], int(b>>uint(k))&1)
			}
		}
		d := NewDecoder(e.Finish())
		for i, b := range data {
			var got byte
			for k := 7; k >= 0; k-- {
				got = got<<1 | byte(d.DecodeBitP(probs[(i+k)%16]))
			}
			if got != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolModelRoundTrip(t *testing.T) {
	for _, order := range []int{0, 1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(order) + 1))
		syms := make([]byte, 30000)
		for i := range syms {
			// Markov-ish source: repeat previous symbol 70% of the time.
			if i > 0 && rng.Float64() < 0.7 {
				syms[i] = syms[i-1]
			} else {
				syms[i] = byte(rng.Intn(4))
			}
		}
		me := NewSymbolModel(order)
		e := NewEncoder(nil, len(syms))
		e.EncodeLiterals(nil, me, syms)
		out := e.Finish()
		md := NewSymbolModel(order)
		got := NewDecoder(out).DecodeLiterals(nil, md, nil, uint64(len(syms)))
		if !bytes.Equal(got, syms) {
			t.Fatalf("order %d: %d symbols decoded, first difference at %d", order, len(got), firstDifference(got, syms))
		}
		// The repetitive source must compress below 2 bits/base.
		bpb := float64(len(out)*8) / float64(len(syms))
		if order >= 1 && bpb > 1.8 {
			t.Errorf("order %d: %.3f bits/base, want < 1.8", order, bpb)
		}
	}
}

func TestSymbolModelObserve(t *testing.T) {
	// Encoding with Observe-advanced context must mirror decoding with the
	// same Observe calls.
	syms := []byte{0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3}
	skip := map[int]bool{3: true, 7: true}
	me := NewSymbolModel(2)
	e := NewEncoder(nil, 64)
	for i, s := range syms {
		if skip[i] {
			me.Observe(s)
		} else {
			e.EncodeLiterals(nil, me, syms[i:i+1])
		}
	}
	md := NewSymbolModel(2)
	d := NewDecoder(e.Finish())
	for i, want := range syms {
		if skip[i] {
			md.Observe(want)
			continue
		}
		if got := d.DecodeLiterals(nil, md, nil, 1); got[0] != want {
			t.Fatalf("sym %d: got %d want %d", i, got[0], want)
		}
	}
}

func TestSymbolModelReset(t *testing.T) {
	m := NewSymbolModel(2)
	e := NewEncoder(nil, 64)
	for i := 0; i < 100; i++ {
		e.EncodeLiterals(nil, m, []byte{byte(i % 4)})
	}
	m.Reset()
	fresh := NewSymbolModel(2)
	if m.ctx != fresh.ctx {
		t.Fatal("Reset did not clear context")
	}
	for i := range m.probs {
		if m.probs[i] != fresh.probs[i] {
			t.Fatalf("Reset left learned prob at index %d", i)
		}
	}
}

func TestSymbolModelMemoryFootprint(t *testing.T) {
	m := NewSymbolModel(2)
	want := (1 << 4) * 3 * 2 // 16 contexts × 3 probs × 2 bytes
	if got := m.MemoryFootprint(); got != want {
		t.Fatalf("MemoryFootprint = %d, want %d", got, want)
	}
}

func TestSymbolModelOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSymbolModel(13) did not panic")
		}
	}()
	NewSymbolModel(13)
}

func BenchmarkEncodeBitAdaptive(b *testing.B) {
	p := NewProb()
	e := NewEncoder(nil, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<22 {
			e = NewEncoder(nil, 1<<20)
		}
		e.EncodeBit(&p, i&1)
	}
}

// BenchmarkSymbolModelOrder2 codes runs of 4,096 symbols through an
// order-2 model, with no flag: throughput is per symbol.
func BenchmarkSymbolModelOrder2(b *testing.B) {
	syms := make([]byte, 4096)
	for i := range syms {
		syms[i] = byte(i * 7 % 4)
	}
	m := NewSymbolModel(2)
	e := NewEncoder(nil, 1<<20)
	b.ReportAllocs()
	b.SetBytes(int64(len(syms)))
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<22 {
			e = NewEncoder(nil, 1<<20)
		}
		e.EncodeLiterals(nil, m, syms)
	}
}

// refEncoder, refDecoder and refUpdate are the branching bit coder and model
// update that the mask form replaced, kept as the oracle: every stored
// stream was written by them, so the mask form must reproduce their output
// bytes, model states and decoded bits exactly.
// BytesRead reports how many input bytes have been consumed (may exceed
// len(input) by a small amount at end of stream due to zero-fill).
func (d *Decoder) BytesRead() int { return d.pos }

type refEncoder struct{ Encoder }

func (e *refEncoder) encodeBitP(p0 uint32, bit int) {
	bound := (e.rng >> probBits) * p0
	if bit == 0 {
		e.rng = bound
	} else {
		e.low += uint64(bound)
		e.rng -= bound
	}
	for e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

func (e *refEncoder) encodeBit(p *Prob, bit int) {
	e.encodeBitP(uint32(*p), bit)
	refUpdate(p, bit)
}

type refDecoder struct{ Decoder }

func (d *refDecoder) decodeBitP(p0 uint32) int {
	bound := (d.rng >> probBits) * p0
	var bit int
	if d.code < bound {
		d.rng = bound
	} else {
		bit = 1
		d.code -= bound
		d.rng -= bound
	}
	for d.rng < topValue {
		d.code = d.code<<8 | uint32(d.next())
		d.rng <<= 8
	}
	return bit
}

func (d *refDecoder) decodeBit(p *Prob) int {
	bit := d.decodeBitP(uint32(*p))
	refUpdate(p, bit)
	return bit
}

func refUpdate(p *Prob, bit int) {
	v := uint32(*p)
	if bit == 0 {
		v += (ProbOne - v) >> adaptShift
	} else {
		v -= v >> adaptShift
	}
	if v == 0 {
		v = 1
	}
	if v >= ProbOne {
		v = ProbOne - 1
	}
	*p = Prob(v)
}

// oneBits are the values a caller may pass for a 1 bit: any non-zero int.
var oneBits = []int{1, 1, 1, -1, 2, 3, 255, math.MaxInt, math.MinInt}

// encodeSymbol and encodeToken are the per-symbol references for
// EncodeLiterals: the symbol's two bits through its context's models, and
// the flag bit before them, one encodeBit call each.
func (e *refEncoder) encodeSymbol(m *SymbolModel, sym byte) {
	base := m.ctx * 3
	hi := int(sym >> 1)
	e.encodeBit(&m.probs[base], hi)
	e.encodeBit(&m.probs[base+1+uint32(hi)], int(sym&1))
	m.advance(sym)
}

func (e *refEncoder) encodeToken(flag *Prob, m *SymbolModel, bit int, sym byte) {
	e.encodeBit(flag, bit)
	if bit == 0 {
		e.encodeSymbol(m, sym)
	}
}

// decodeSymbol and decodeToken are the per-symbol references for
// DecodeLiterals.
func (d *refDecoder) decodeSymbol(m *SymbolModel) byte {
	base := m.ctx * 3
	hi := d.decodeBit(&m.probs[base])
	lo := d.decodeBit(&m.probs[base+1+uint32(hi)])
	sym := byte(hi<<1 | lo)
	m.advance(sym)
	return sym
}

func (d *refDecoder) decodeToken(flag *Prob, m *SymbolModel) (sym byte, ok bool) {
	if d.decodeBit(flag) != 0 {
		return 0, false
	}
	return d.decodeSymbol(m), true
}

// decodeRun is the reference for DecodeLiterals: tokens one at a time
// while out holds fewer than n symbols, or symbols alone with a nil flag.
func (d *refDecoder) decodeRun(flag *Prob, m *SymbolModel, out []byte, n uint64) []byte {
	for uint64(len(out)) < n {
		if flag == nil {
			out = append(out, d.decodeSymbol(m))
			continue
		}
		sym, ok := d.decodeToken(flag, m)
		if !ok {
			break
		}
		out = append(out, sym)
	}
	return out
}

// stepKind is what one step of an oracle schedule codes.
type stepKind int

const (
	staticStep   stepKind = iota // a bit with static P(0) = p0
	adaptiveStep                 // a bit through model slot
	symbolStep                   // a run of syms through the symbol model, no flag
	tokenStep                    // a run of literal tokens, flag in model slot, then on bit 1 a repeat flag
)

// codedBit is one step of an oracle schedule.
type codedBit struct {
	kind stepKind
	slot int
	p0   uint32
	bit  int
	syms []byte
	n    uint64 // the token run's limit for DecodeLiterals
}

// reset sets one model before a step: symbol-model entry idx if sym, else
// the step's slot.
type reset struct {
	sym bool
	idx int
	v   Prob
}

// oracleSymbols is the number of models in the oracle's symbol model:
// order 1, four contexts of three models each.
const oracleSymbols = 12

// oracleSymbolModel returns the oracle's order-1 symbol model, its models
// set up like oracleModels.
func oracleSymbolModel() *SymbolModel {
	m := NewSymbolModel(1)
	copy(m.probs, oracleModels(oracleSymbols))
	return m
}

func sameSymbolModel(a, b *SymbolModel) bool {
	return a.ctx == b.ctx && slices.Equal(a.probs, b.probs)
}

// runLength draws the length of a run: 0 or 1 symbol now and then, and
// otherwise up to 40, with a long run of up to 1,000 once in a while.
func runLength(rng *rand.Rand) int {
	switch r := rng.Intn(64); {
	case r < 8:
		return 0
	case r < 24:
		return 1
	case r == 63:
		return rng.Intn(1000)
	default:
		return 2 + rng.Intn(39)
	}
}

// oracleSchedule draws n mixed static, adaptive, symbol-run and token-run
// steps. Static probabilities include both extremes, 1 and ProbOne-1;
// adaptive slots and symbol-model entries are now and then reset to the
// zero-value Prob or to ProbOne-1. A zero-valued model leaves a 0 bit an
// empty sub-range in either coder, so its next bit is a 1: a token run
// whose flag is zero-valued is an empty run cut by a repeat flag, and a
// zero-valued symbol model codes a 1. A token run is cut by a repeat flag
// (bit 1) a quarter of the time, its limit n then lying past the run, up
// to the largest uint64; otherwise n is its length and no flag follows.
func oracleSchedule(rng *rand.Rand, n, slots int) (steps []codedBit, resets map[int]reset) {
	steps = make([]codedBit, n)
	resets = make(map[int]reset)
	zero := make([]bool, slots)
	for i := range zero {
		zero[i] = i%4 == 3 // see oracleModels
	}
	symZero := make([]bool, oracleSymbols)
	for i := range symZero {
		symZero[i] = i%4 == 3
	}
	var ctx int // the symbol model's context, as its steps move it
	// symbolBit draws a random bit for symbol-model entry idx, a 1 if the
	// entry is zero-valued.
	symbolBit := func(idx int) int {
		bit := rng.Intn(2)
		if symZero[idx] {
			bit = 1
		}
		symZero[idx] = false
		return bit
	}
	for i := range steps {
		s := &steps[i]
		s.kind = stepKind(rng.Intn(4))
		if s.kind == adaptiveStep || s.kind == tokenStep {
			s.slot = rng.Intn(slots)
		}
		if s.kind != staticStep && rng.Intn(4096) == 0 {
			r := reset{idx: s.slot}
			if rng.Intn(2) == 0 {
				r.v = ProbOne - 1
			}
			if s.kind == symbolStep || (s.kind == tokenStep && rng.Intn(2) == 0) {
				r.sym, r.idx = true, rng.Intn(oracleSymbols)
				symZero[r.idx] = r.v == 0
			} else {
				zero[s.slot] = r.v == 0
			}
			resets[i] = r
		}
		switch s.kind {
		case staticStep:
			switch rng.Intn(8) {
			case 0:
				s.p0 = 1
			case 1:
				s.p0 = ProbOne - 1
			case 2:
				s.p0 = ProbOne / 2
			default:
				s.p0 = uint32(rng.Intn(ProbOne-1)) + 1
			}
			// A static bit follows its probability, so that long runs of
			// the likely outcome build carry chains.
			if uint32(rng.Intn(ProbOne)) >= s.p0 {
				s.bit = oneBits[rng.Intn(len(oneBits))]
			}
			continue
		case adaptiveStep:
			// An adaptive bit follows a random probability, so that models
			// wander over their whole range.
			if uint32(rng.Intn(ProbOne)) >= uint32(rng.Intn(ProbOne-1))+1 || zero[s.slot] {
				s.bit = oneBits[rng.Intn(len(oneBits))]
			}
			zero[s.slot] = false
			continue
		}
		l := runLength(rng)
		if s.kind == tokenStep {
			if zero[s.slot] {
				l, s.bit = 0, 1
			} else if rng.Intn(4) == 0 {
				s.bit = 1
			}
			zero[s.slot] = zero[s.slot] && l == 0 && s.bit == 0
			s.n = uint64(l)
			if s.bit != 0 {
				switch rng.Intn(4) {
				case 0:
					s.n = math.MaxUint64
				default:
					s.n += 1 + uint64(rng.Intn(3))
				}
			}
		}
		s.syms = make([]byte, l)
		for j := range s.syms {
			hi := symbolBit(ctx * 3)
			lo := symbolBit(ctx*3 + 1 + hi)
			s.syms[j] = byte(hi<<1 | lo)
			ctx = (ctx<<2 | int(s.syms[j])) & 3
		}
	}
	return steps, resets
}

// apply sets the model a reset names.
func (r reset) apply(ps []Prob, m *SymbolModel) {
	if r.sym {
		m.probs[r.idx] = r.v
	} else {
		ps[r.idx] = r.v
	}
}

// oracleModels returns the initial model table: fresh, skewed and
// zero-valued models side by side.
func oracleModels(slots int) []Prob {
	ps := make([]Prob, slots)
	for i := range ps {
		switch i % 4 {
		case 0:
			ps[i] = NewProb()
		case 1:
			ps[i] = 1
		case 2:
			ps[i] = ProbOne - 1
		case 3:
			ps[i] = 0
		}
	}
	return ps
}

// TestMaskCoderMatchesReference drives over a million mixed static,
// adaptive, symbol-run and token-run steps through the mask coder and the
// branching reference in lockstep: output bytes, every model state, every
// decoded bit and symbol and the bytes each decoder consumed must be
// equal. A token run is EncodeLiterals, then on bit 1 EncodeBit's repeat
// flag; the reference codes it a token at a time. Runs hold 0, 1 or many
// symbols, and DecodeLiterals must stop on the repeat flag or at n,
// whichever the run was cut by, without decoding a token past it.
func TestMaskCoderMatchesReference(t *testing.T) {
	const n, slots = 1<<20 + 4099, 64
	steps, resets := oracleSchedule(rand.New(rand.NewSource(2015)), n, slots)

	e, re := NewEncoder(nil, n/8), &refEncoder{*NewEncoder(nil, n/8)}
	ps, rps := oracleModels(slots), oracleModels(slots)
	sm, rsm := oracleSymbolModel(), oracleSymbolModel()
	for i, s := range steps {
		if r, ok := resets[i]; ok {
			r.apply(ps, sm)
			r.apply(rps, rsm)
		}
		switch s.kind {
		case staticStep:
			e.EncodeBitP(s.p0, s.bit)
			re.encodeBitP(s.p0, s.bit)
		case adaptiveStep:
			e.EncodeBit(&ps[s.slot], s.bit)
			re.encodeBit(&rps[s.slot], s.bit)
		case symbolStep:
			e.EncodeLiterals(nil, sm, s.syms)
			for _, sym := range s.syms {
				re.encodeSymbol(rsm, sym)
			}
		case tokenStep:
			e.EncodeLiterals(&ps[s.slot], sm, s.syms)
			for _, sym := range s.syms {
				re.encodeToken(&rps[s.slot], rsm, 0, sym)
			}
			if s.bit != 0 {
				e.EncodeBit(&ps[s.slot], s.bit)
				re.encodeToken(&rps[s.slot], rsm, s.bit, 0)
			}
		}
		if ps[s.slot] != rps[s.slot] {
			t.Fatalf("step %d: encoder model %d, reference %d", i, ps[s.slot], rps[s.slot])
		}
		if !sameSymbolModel(sm, rsm) {
			t.Fatalf("step %d: encoder symbol model differs from the reference", i)
		}
	}
	out, refOut := e.Finish(), re.Finish()
	if !bytes.Equal(out, refOut) {
		t.Fatalf("output differs from the reference coder: %d vs %d bytes, first difference at %d",
			len(out), len(refOut), firstDifference(out, refOut))
	}

	d, rd := NewDecoder(out), &refDecoder{*NewDecoder(out)}
	ps, rps = oracleModels(slots), oracleModels(slots)
	sm, rsm = oracleSymbolModel(), oracleSymbolModel()
	var run, refRun []byte
	for i, s := range steps {
		if r, ok := resets[i]; ok {
			r.apply(ps, sm)
			r.apply(rps, rsm)
		}
		coded := 0
		if s.bit != 0 {
			coded = 1
		}
		var got, want int
		switch s.kind {
		case staticStep:
			got, want = d.DecodeBitP(s.p0), rd.decodeBitP(s.p0)
		case adaptiveStep:
			got, want = d.DecodeBit(&ps[s.slot]), rd.decodeBit(&rps[s.slot])
		case symbolStep, tokenStep:
			var flag, refFlag *Prob
			limit := uint64(len(s.syms))
			if s.kind == tokenStep {
				flag, refFlag, limit = &ps[s.slot], &rps[s.slot], s.n
			}
			run = d.DecodeLiterals(flag, sm, run[:0], limit)
			refRun = rd.decodeRun(refFlag, rsm, refRun[:0], limit)
			if !bytes.Equal(run, refRun) || !bytes.Equal(run, s.syms) {
				t.Fatalf("step %d: decoded a run of %d symbols, reference %d, coded %d; first difference at %d",
					i, len(run), len(refRun), len(s.syms), firstDifference(run, s.syms))
			}
			got, want, coded = len(run), len(refRun), len(s.syms)
		}
		if ps[s.slot] != rps[s.slot] {
			t.Fatalf("step %d: decoder model %d, reference %d", i, ps[s.slot], rps[s.slot])
		}
		if !sameSymbolModel(sm, rsm) {
			t.Fatalf("step %d: decoder symbol model differs from the reference", i)
		}
		if got != want || got != coded {
			t.Fatalf("step %d: decoded %d, reference %d, coded %d", i, got, want, coded)
		}
		if d.BytesRead() != rd.BytesRead() {
			t.Fatalf("step %d: decoder read %d bytes, reference %d", i, d.BytesRead(), rd.BytesRead())
		}
	}
}

// TestUpdateMatchesReference checks Update against the branching update for
// every model state, the zero value included, and for 0, 1 and other bits.
func TestUpdateMatchesReference(t *testing.T) {
	for v := 0; v < ProbOne; v++ {
		for _, bit := range append([]int{0}, oneBits...) {
			p, rp := Prob(v), Prob(v)
			p.Update(bit)
			refUpdate(&rp, bit)
			if p != rp {
				t.Fatalf("Update(%d) from %d: got %d, reference %d", bit, v, p, rp)
			}
		}
	}
}

func firstDifference(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// fuzzP0 maps a schedule byte to a static probability in [1, ProbOne-1],
// both extremes included.
func fuzzP0(s byte) uint32 {
	if s&0x7f == 0x7f {
		return ProbOne - 1
	}
	return uint32(s&0x7f)*516 + 1
}

// FuzzDecoderMatchesReference decodes arbitrary payload bytes, as a stored
// frame's decoder does, under a fuzzed schedule of static probabilities,
// adaptive models (zero-valued ones included), symbol runs and literal
// token runs. The mask decoder must give the reference's bits, symbols,
// model states and BytesRead. A schedule byte below 0x80 is a static bit;
// 0x80–0xBF an adaptive bit through slot s&15; 0xC0–0xDF a token run,
// DecodeLiterals with its flag in slot s&15 and a limit of the next
// schedule byte's value in symbols, so that a run may stop on a repeat
// flag or at its limit; 0xE0–0xFF a run of s&31 symbols with no flag.
func FuzzDecoderMatchesReference(f *testing.F) {
	e := NewEncoder(nil, 64)
	p := NewProb()
	for i := 0; i < 300; i++ {
		e.EncodeBit(&p, i%3&1)
		e.EncodeBitP(fuzzP0(byte(i)), i%5&1)
	}
	f.Add(e.Finish(), []byte{0x80, 0x00, 0x81, 0x7f, 0x40})
	f.Add([]byte{}, []byte{0x83})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0x7f, 0x00})
	f.Add([]byte{0x00, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0}, []byte{0x8f, 0x8e, 0x01})
	// A code register exactly on the first bit's bound, which belongs to
	// the 1 sub-range.
	edge := make([]byte, 5)
	binary.BigEndian.PutUint32(edge[1:], (0xFFFFFFFF>>probBits)*fuzzP0(0x40))
	f.Add(edge, []byte{0x40})
	// Literal tokens and repeats, as a parse writes them, on fresh models.
	{
		e := NewEncoder(nil, 64)
		flag, m := NewProb(), NewSymbolModel(1)
		syms := make([]byte, 8)
		for i := 0; i < 25; i++ {
			for j := range syms {
				syms[j] = byte((8*i + j) * 5 % 4)
			}
			e.EncodeLiterals(&flag, m, syms)
			e.EncodeBit(&flag, 1)
		}
		f.Add(e.Finish(), []byte{0xC0})
		f.Add(e.Finish(), []byte{0xC0, 0x08, 0xC0, 0x00, 0xC0, 0x01, 0xC0, 0x09})
		f.Add([]byte{0x00, 0x80, 0x00, 0x00, 0x00, 0x01}, []byte{0xC3, 0xE0, 0xC3, 0x8b, 0x21, 0xE1, 0xFF})
	}
	f.Fuzz(func(t *testing.T, payload, schedule []byte) {
		if len(schedule) == 0 {
			schedule = []byte{0x80}
		}
		d, rd := NewDecoder(payload), &refDecoder{*NewDecoder(payload)}
		ps, rps := oracleModels(16), oracleModels(16)
		sm, rsm := oracleSymbolModel(), oracleSymbolModel()
		var run, refRun []byte
		for i := 0; i < 8*len(payload)+64; i++ {
			s := schedule[i%len(schedule)]
			slot := s & 15
			var got, want int
			switch {
			case s < 0x80:
				got, want = d.DecodeBitP(fuzzP0(s)), rd.decodeBitP(fuzzP0(s))
			case s < 0xC0:
				got, want = d.DecodeBit(&ps[slot]), rd.decodeBit(&rps[slot])
			default:
				var flag, refFlag *Prob
				limit := uint64(s & 31)
				if s < 0xE0 {
					flag, refFlag = &ps[slot], &rps[slot]
					limit = uint64(schedule[(i+1)%len(schedule)])
				}
				run = d.DecodeLiterals(flag, sm, run[:0], limit)
				refRun = rd.decodeRun(refFlag, rsm, refRun[:0], limit)
				if !bytes.Equal(run, refRun) {
					t.Fatalf("step %d: decoded a run of %d symbols, reference %d; first difference at %d",
						i, len(run), len(refRun), firstDifference(run, refRun))
				}
			}
			if ps[slot] != rps[slot] {
				t.Fatalf("step %d: model %d, reference %d", i, ps[slot], rps[slot])
			}
			if !sameSymbolModel(sm, rsm) {
				t.Fatalf("step %d: symbol model differs from the reference", i)
			}
			if got != want {
				t.Fatalf("step %d: decoded %d, reference %d", i, got, want)
			}
		}
		if d.BytesRead() != rd.BytesRead() {
			t.Fatalf("decoder read %d bytes, reference %d", d.BytesRead(), rd.BytesRead())
		}
	})
}
