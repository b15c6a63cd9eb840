package arith

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStaticBitRoundTrip(t *testing.T) {
	bits := []int{0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0}
	const p0 = ProbOne / 2
	e := NewEncoder(32)
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
		e := NewEncoder(1024)
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
	e := NewEncoder(4096)
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
	e := NewEncoder(n / 4)
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
	e := NewEncoder(n / 8)
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
	e := NewEncoder(1024)
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
	e := NewEncoder(16)
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
		e := NewEncoder(len(data) * 2)
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
		e := NewEncoder(len(syms))
		for _, s := range syms {
			me.Encode(e, s)
		}
		out := e.Finish()
		md := NewSymbolModel(order)
		d := NewDecoder(out)
		for i, want := range syms {
			if got := md.Decode(d); got != want {
				t.Fatalf("order %d sym %d: got %d want %d", order, i, got, want)
			}
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
	e := NewEncoder(64)
	for i, s := range syms {
		if skip[i] {
			me.Observe(s)
		} else {
			me.Encode(e, s)
		}
	}
	md := NewSymbolModel(2)
	d := NewDecoder(e.Finish())
	for i, want := range syms {
		if skip[i] {
			md.Observe(want)
			continue
		}
		if got := md.Decode(d); got != want {
			t.Fatalf("sym %d: got %d want %d", i, got, want)
		}
	}
}

func TestSymbolModelReset(t *testing.T) {
	m := NewSymbolModel(2)
	e := NewEncoder(64)
	for i := 0; i < 100; i++ {
		m.Encode(e, byte(i%4))
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
	e := NewEncoder(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<22 {
			e = NewEncoder(1 << 20)
		}
		e.EncodeBit(&p, i&1)
	}
}

func BenchmarkSymbolModelOrder2(b *testing.B) {
	m := NewSymbolModel(2)
	e := NewEncoder(1 << 20)
	b.ReportAllocs()
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<22 {
			e = NewEncoder(1 << 20)
		}
		m.Encode(e, byte(i&3))
	}
}

// refEncoder, refDecoder and refUpdate are the branching bit coder and model
// update that the mask form replaced, kept as the oracle: every stored
// stream was written by them, so the mask form must reproduce their output
// bytes, model states and decoded bits exactly.
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

// codedBit is one step of an oracle schedule: a static bit with P(0) = p0,
// or an adaptive bit through model slot.
type codedBit struct {
	adaptive bool
	slot     int
	p0       uint32
	bit      int
}

// oracleSchedule draws n mixed static and adaptive steps. Static
// probabilities include both extremes, 1 and ProbOne-1; adaptive slots are
// now and then reset to the zero-value Prob or to ProbOne-1. A zero-valued
// model leaves a 0 bit an empty sub-range in either coder, so its next bit
// is a 1.
func oracleSchedule(rng *rand.Rand, n, slots int) (steps []codedBit, resets map[int]Prob) {
	steps = make([]codedBit, n)
	resets = make(map[int]Prob)
	zero := make([]bool, slots)
	for i := range zero {
		zero[i] = i%4 == 3 // see oracleModels
	}
	for i := range steps {
		s := &steps[i]
		var p0 uint32
		if rng.Intn(2) == 0 {
			s.adaptive = true
			s.slot = rng.Intn(slots)
			if rng.Intn(4096) == 0 {
				v := Prob(0)
				if rng.Intn(2) == 0 {
					v = ProbOne - 1
				}
				resets[i] = v
				zero[s.slot] = v == 0
			}
			p0 = uint32(rng.Intn(ProbOne-1)) + 1
		} else {
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
			p0 = s.p0
		}
		// A static bit follows its probability, so that long runs of the
		// likely outcome build carry chains; an adaptive bit follows a
		// random one, so that models wander over their whole range.
		if uint32(rng.Intn(ProbOne)) >= p0 || (s.adaptive && zero[s.slot]) {
			s.bit = oneBits[rng.Intn(len(oneBits))]
			if s.adaptive {
				zero[s.slot] = false
			}
		}
	}
	return steps, resets
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

// TestMaskCoderMatchesReference drives over a million mixed static and
// adaptive bits through the mask coder and the branching reference in
// lockstep: output bytes, every model state, every decoded bit and the bytes
// each decoder consumed must be equal.
func TestMaskCoderMatchesReference(t *testing.T) {
	const n, slots = 1<<20 + 4099, 64
	steps, resets := oracleSchedule(rand.New(rand.NewSource(2015)), n, slots)

	e, re := NewEncoder(n/8), &refEncoder{*NewEncoder(n / 8)}
	ps, rps := oracleModels(slots), oracleModels(slots)
	for i, s := range steps {
		if v, ok := resets[i]; ok {
			ps[s.slot], rps[s.slot] = v, v
		}
		if s.adaptive {
			e.EncodeBit(&ps[s.slot], s.bit)
			re.encodeBit(&rps[s.slot], s.bit)
			if ps[s.slot] != rps[s.slot] {
				t.Fatalf("step %d: encoder model %d, reference %d", i, ps[s.slot], rps[s.slot])
			}
		} else {
			e.EncodeBitP(s.p0, s.bit)
			re.encodeBitP(s.p0, s.bit)
		}
	}
	out, refOut := e.Finish(), re.Finish()
	if !bytes.Equal(out, refOut) {
		t.Fatalf("output differs from the reference coder: %d vs %d bytes, first difference at %d",
			len(out), len(refOut), firstDifference(out, refOut))
	}

	d, rd := NewDecoder(out), &refDecoder{*NewDecoder(out)}
	ps, rps = oracleModels(slots), oracleModels(slots)
	for i, s := range steps {
		if v, ok := resets[i]; ok {
			ps[s.slot], rps[s.slot] = v, v
		}
		var got, want int
		if s.adaptive {
			got, want = d.DecodeBit(&ps[s.slot]), rd.decodeBit(&rps[s.slot])
			if ps[s.slot] != rps[s.slot] {
				t.Fatalf("step %d: decoder model %d, reference %d", i, ps[s.slot], rps[s.slot])
			}
		} else {
			got, want = d.DecodeBitP(s.p0), rd.decodeBitP(s.p0)
		}
		coded := 0
		if s.bit != 0 {
			coded = 1
		}
		if got != want || got != coded {
			t.Fatalf("step %d: decoded %d, reference %d, coded %d", i, got, want, coded)
		}
	}
	if d.BytesRead() != rd.BytesRead() {
		t.Fatalf("decoder read %d bytes, reference %d", d.BytesRead(), rd.BytesRead())
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
// frame's decoder does, under a fuzzed schedule of static probabilities and
// adaptive models (zero-valued ones included). The mask decoder must give
// the reference's bits, model states and BytesRead.
func FuzzDecoderMatchesReference(f *testing.F) {
	e := NewEncoder(64)
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
	f.Fuzz(func(t *testing.T, payload, schedule []byte) {
		if len(schedule) == 0 {
			schedule = []byte{0x80}
		}
		d, rd := NewDecoder(payload), &refDecoder{*NewDecoder(payload)}
		ps, rps := oracleModels(16), oracleModels(16)
		for i := 0; i < 8*len(payload)+64; i++ {
			s := schedule[i%len(schedule)]
			var got, want int
			if s&0x80 != 0 {
				slot := s & 15
				got, want = d.DecodeBit(&ps[slot]), rd.decodeBit(&rps[slot])
				if ps[slot] != rps[slot] {
					t.Fatalf("bit %d: model %d, reference %d", i, ps[slot], rps[slot])
				}
			} else {
				got, want = d.DecodeBitP(fuzzP0(s)), rd.decodeBitP(fuzzP0(s))
			}
			if got != want {
				t.Fatalf("bit %d: decoded %d, reference %d", i, got, want)
			}
		}
		if d.BytesRead() != rd.BytesRead() {
			t.Fatalf("decoder read %d bytes, reference %d", d.BytesRead(), rd.BytesRead())
		}
	})
}
