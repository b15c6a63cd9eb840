package match

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

func mustEncode(t *testing.T, s string) []byte {
	t.Helper()
	codes, err := seq.Encode([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return codes
}

func TestFindForwardBasic(t *testing.T) {
	// 16-base block repeated after a spacer.
	block := "ACGTACGGTTCAACGT"
	data := mustEncode(t, block+"TTTT"+block)
	m := NewHashMatcher(data)
	pos := len(block) + 4
	m.Advance(pos)
	mt, ok := m.FindForward(pos)
	if !ok {
		t.Fatal("no forward match found")
	}
	if mt.Src != 0 || mt.Len != len(block) || mt.RC {
		t.Fatalf("got %+v, want Src=0 Len=%d RC=false", mt, len(block))
	}
	if !VerifyMatch(data, pos, mt) {
		t.Fatal("VerifyMatch rejected the match")
	}
}

func TestFindForwardOverlap(t *testing.T) {
	// Period-13 repetition: the longest match at pos 13 has source 0 and
	// overlaps its own output (classic LZ run).
	unit := "ACGTTGCAAGGTC"
	data := mustEncode(t, unit+unit+unit+unit)
	m := NewHashMatcher(data)
	pos := len(unit)
	m.Advance(pos)
	mt, ok := m.FindForward(pos)
	if !ok {
		t.Fatal("no match")
	}
	if mt.Src != 0 || mt.Len != 3*len(unit) {
		t.Fatalf("got %+v, want Src=0 Len=%d", mt, 3*len(unit))
	}
	if !VerifyMatch(data, pos, mt) {
		t.Fatal("overlapping match failed verification")
	}
}

func TestFindRCBasic(t *testing.T) {
	blk := "ACGTACGGTTCAACGTAAAA"
	rc := string(seq.Decode(seq.ReverseComplement(mustEncode(t, blk))))
	data := mustEncode(t, blk+"CC"+rc)
	m := NewHashMatcher(data)
	pos := len(blk) + 2
	m.Advance(pos)
	mt, ok := m.FindRC(pos)
	if !ok {
		t.Fatal("no RC match found")
	}
	if !mt.RC || mt.Src != 0 || mt.Len != len(blk) {
		t.Fatalf("got %+v, want Src=0 Len=%d RC=true", mt, len(blk))
	}
	if !VerifyMatch(data, pos, mt) {
		t.Fatal("VerifyMatch rejected RC match")
	}
}

func TestFindBestPrefersLonger(t *testing.T) {
	// Forward copy of 12, RC copy of 20 — RC must win.
	fwd := "ACGTTGCAAGGT"         // 12
	blk := "ACGTACGGTTCAACGTAAAA" // 20
	rc := string(seq.Decode(seq.ReverseComplement(mustEncode(t, blk))))
	data := mustEncode(t, blk+fwd+"CC"+fwd+rc)
	// Query at start of fwd+rc tail: both anchors available at different
	// positions; check at the rc position.
	pos := len(blk) + len(fwd) + 2 + len(fwd)
	m := NewHashMatcher(data)
	m.Advance(pos)
	mt, ok := m.FindBest(pos)
	if !ok {
		t.Fatal("no match")
	}
	if !mt.RC || mt.Len != len(blk) {
		t.Fatalf("got %+v, want RC len %d", mt, len(blk))
	}
}

// TestFindBestMatchesBothWalks checks FindBest, which returns before any
// chain walk when both buckets are empty, against a twin matcher that calls
// FindForward then FindRC: at every step of a parse, over a random input
// and a repeat-rich one, at strides 1 and 8, the Match, ok and Stats must
// be equal.
func TestFindBestMatchesBothWalks(t *testing.T) {
	inputs := []struct {
		name string
		data []byte
	}{
		{"random", synth.Profile{Length: 1 << 16, GC: 0.45}.Generate(7)},
		{"repeat-rich", synth.Profile{Length: 80000, GC: 0.4, RepeatProb: 0.025, RepeatMin: 30, RepeatMax: 800, RCFraction: 0.2, MutationRate: 0.005}.Generate(42)},
	}
	for _, in := range inputs {
		for _, stride := range []int{1, 8} {
			m := NewHashMatcher(in.data, WithStride(stride))
			twin := NewHashMatcher(in.data, WithStride(stride))
			var matches, walked int
			for i := 0; i < len(in.data); {
				m.Advance(i)
				twin.Advance(i)
				probes := m.Stats().Probes
				got, ok := m.FindBest(i)
				f, okF := twin.FindForward(i)
				r, okR := twin.FindRC(i)
				want, wantOK := Match{}, false
				switch {
				case okR && (!okF || r.Len > f.Len):
					want, wantOK = r, true
				case okF:
					want, wantOK = f, true
				}
				if got != want || ok != wantOK || m.Stats() != twin.Stats() {
					t.Fatalf("%s stride %d at %d: FindBest %+v %v %+v, both walks %+v %v %+v",
						in.name, stride, i, got, ok, m.Stats(), want, wantOK, twin.Stats())
				}
				if m.Stats().Probes != probes {
					walked++
				}
				if ok && got.Len >= 20 {
					matches++
					i += got.Len
					continue
				}
				i++
			}
			m.Release()
			twin.Release()
			// Both paths must have run: steps that walked a chain and
			// steps that returned early, and on the repeat-rich input
			// repeats long enough to jump over.
			if walked == 0 || (in.name == "repeat-rich" && matches == 0) {
				t.Fatalf("%s stride %d: %d steps walked a chain, %d repeats taken", in.name, stride, walked, matches)
			}
		}
	}
}

func TestNoMatchInRandomPrefix(t *testing.T) {
	p := synth.Profile{Length: 4000, GC: 0.5} // iid, no planted repeats
	data := p.Generate(99)
	m := NewHashMatcher(data)
	pos := 2000
	m.Advance(pos)
	mt, ok := m.FindForward(pos)
	if ok && mt.Len > 24 {
		t.Fatalf("suspiciously long match %d in iid data", mt.Len)
	}
	// Any reported match must still verify.
	if ok && !VerifyMatch(data, pos, mt) {
		t.Fatal("reported match does not verify")
	}
}

func TestMatcherRespectsProcessedBoundary(t *testing.T) {
	blk := "ACGTACGGTTCAACGT"
	data := mustEncode(t, blk+blk)
	m := NewHashMatcher(data)
	// Without Advance the index is empty: nothing may be found.
	if _, ok := m.FindForward(len(blk)); ok {
		t.Fatal("match found with empty index")
	}
	m.Advance(len(blk))
	if _, ok := m.FindForward(len(blk)); !ok {
		t.Fatal("match missing after Advance")
	}
}

func TestMatcherAgainstSAMOracle(t *testing.T) {
	// With unbounded chains the matcher must find matches at least as long
	// as k whenever the oracle says a >=k match exists, and never longer
	// than the oracle's optimum.
	p := synth.Profile{Length: 6000, GC: 0.4, RepeatProb: 0.02, RepeatMin: 15, RepeatMax: 120, RCFraction: 0, MutationRate: 0}
	data := p.Generate(17)
	m := NewHashMatcher(data, WithMaxChain(1<<30))
	step := 97
	for pos := 0; pos < len(data)-DefaultK; pos += step {
		m.Advance(pos)
		// Rebuild oracle prefix lazily: cheaper to rebuild every step for
		// this size than to track incremental equivalence.
		oracle := NewSuffixAutomaton(pos)
		oracle.ExtendAll(data[:pos])
		want := oracle.LongestPrefixIn(data[pos:])
		mt, ok := m.FindForward(pos)
		got := 0
		if ok {
			got = mt.Len
		}
		if got > want {
			t.Fatalf("pos %d: matcher claims %d, oracle optimum %d", pos, got, want)
		}
		if want >= DefaultK && got < DefaultK {
			t.Fatalf("pos %d: oracle found %d-base match, matcher found none", pos, want)
		}
		if ok && !VerifyMatch(data, pos, mt) {
			t.Fatalf("pos %d: match fails verification", pos)
		}
		// Overlapping sources give the matcher access to strings the
		// [0,pos) oracle can't see, so got may legitimately exceed want
		// only via overlap; VerifyMatch above already guarantees validity.
	}
}

func TestSAMContains(t *testing.T) {
	text := mustEncode(t, "ACGTACGGTTCA")
	sa := NewSuffixAutomaton(len(text))
	sa.ExtendAll(text)
	for i := 0; i < len(text); i++ {
		for j := i + 1; j <= len(text); j++ {
			if !sa.Contains(text[i:j]) {
				t.Fatalf("substring [%d:%d] not recognized", i, j)
			}
		}
	}
	if sa.Contains(mustEncode(t, "AAAA")) {
		t.Fatal("recognized absent substring")
	}
}

func TestSAMLongestPrefixIn(t *testing.T) {
	sa := NewSuffixAutomaton(8)
	sa.ExtendAll(mustEncode(t, "ACGTACGG"))
	cases := []struct {
		p    string
		want int
	}{
		{"ACGT", 4}, {"ACGTACGG", 8}, {"ACGTT", 4}, {"TTTT", 1}, {"GGGG", 2},
	}
	for _, c := range cases {
		if got := sa.LongestPrefixIn(mustEncode(t, c.p)); got != c.want {
			t.Errorf("LongestPrefixIn(%s) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestSAMStateBound(t *testing.T) {
	p := synth.Profile{Length: 2000, GC: 0.5}
	data := p.Generate(3)
	sa := NewSuffixAutomaton(len(data))
	sa.ExtendAll(data)
	if sa.States() > 2*len(data) {
		t.Fatalf("%d states for %d symbols exceeds 2n bound", sa.States(), len(data))
	}
}

func TestExtendApproxPureCopy(t *testing.T) {
	blk := "ACGTACGGTTCAACGTACGT"
	data := mustEncode(t, blk+blk)
	am := ExtendApprox(data, 0, len(blk), 12, DefaultApproxConfig(), nil, nil)
	if am.TLen != len(blk) || len(am.Ops) != 0 {
		t.Fatalf("got TLen=%d ops=%d, want %d/0", am.TLen, len(am.Ops), len(blk))
	}
	if !am.Valid(data, len(blk)) {
		t.Fatal("pure copy match invalid")
	}
}

func TestExtendApproxSubstitution(t *testing.T) {
	src := mustEncode(t, "ACGTACGGTTCAACGTACGTCCAGGTAC")
	dst := make([]byte, len(src))
	copy(dst, src)
	dst[20] = (dst[20] + 1) & 3 // one substitution mid-block
	data := append(append([]byte{}, src...), dst...)
	am := ExtendApprox(data, 0, len(src), 12, DefaultApproxConfig(), nil, nil)
	if am.TLen != len(src) {
		t.Fatalf("TLen = %d, want %d", am.TLen, len(src))
	}
	if len(am.Ops) != 1 || am.Ops[0].Kind != OpSub || am.Ops[0].Off != 20 {
		t.Fatalf("ops = %+v", am.Ops)
	}
	if !am.Valid(data, len(src)) {
		t.Fatal("sub match invalid")
	}
}

func TestExtendApproxIndel(t *testing.T) {
	src := mustEncode(t, "ACGTACGGTTCAACGTACGTCCAGGTACGGTT")
	// Target: source with one base deleted at 18 and one inserted at 25 —
	// single-base indels, the mutation pattern GenCompress's greedy
	// one-op-lookahead extension is designed to bridge.
	tgt := append([]byte{}, src[:18]...)
	tgt = append(tgt, src[19:25]...)
	tgt = append(tgt, seq.G) // single-base insertion
	tgt = append(tgt, src[25:]...)
	data := append(append([]byte{}, src...), tgt...)
	cfg := DefaultApproxConfig()
	am := ExtendApprox(data, 0, len(src), 12, cfg, nil, nil)
	if am.TLen < len(tgt)-2 {
		t.Fatalf("TLen = %d, want >= %d", am.TLen, len(tgt)-2)
	}
	if !am.Valid(data, len(src)) {
		t.Fatalf("indel match invalid: %+v", am)
	}
	hasDel := false
	for _, op := range am.Ops {
		if op.Kind == OpDel {
			hasDel = true
		}
	}
	if !hasDel {
		t.Fatalf("expected a deletion op, got %+v", am.Ops)
	}
}

func TestExtendApproxHammingOnly(t *testing.T) {
	src := mustEncode(t, "ACGTACGGTTCAACGTACGTCCAGGTACGGTT")
	tgt := append([]byte{}, src...)
	tgt[15] = (tgt[15] + 2) & 3
	data := append(append([]byte{}, src...), tgt...)
	cfg := DefaultApproxConfig()
	cfg.HammingOnly = true
	am := ExtendApprox(data, 0, len(src), 12, cfg, nil, nil)
	for _, op := range am.Ops {
		if op.Kind != OpSub {
			t.Fatalf("HammingOnly produced %v", op.Kind)
		}
	}
	if !am.Valid(data, len(src)) {
		t.Fatal("hamming match invalid")
	}
}

func TestExtendApproxBudget(t *testing.T) {
	// Heavily mutated copy: ops must never exceed the budget.
	p := synth.Profile{Length: 400, GC: 0.5}
	src := p.Generate(5)
	rng := rand.New(rand.NewSource(6))
	tgt := append([]byte{}, src...)
	for i := 12; i < len(tgt); i += 9 {
		tgt[i] = (tgt[i] + byte(1+rng.Intn(3))) & 3
	}
	data := append(append([]byte{}, src...), tgt...)
	cfg := ApproxConfig{MaxOps: 5, MaxRun: 3, Lookahead: 4}
	am := ExtendApprox(data, 0, len(src), 12, cfg, nil, nil)
	if len(am.Ops) > 5 {
		t.Fatalf("budget exceeded: %d ops", len(am.Ops))
	}
	if !am.Valid(data, len(src)) {
		t.Fatal("budgeted match invalid")
	}
}

func TestExtendApproxEndsOnAgreement(t *testing.T) {
	// A mismatch at the very end must be trimmed, not encoded.
	src := mustEncode(t, "ACGTACGGTTCAACGTACGT")
	tgt := append([]byte{}, src...)
	tgt[len(tgt)-1] = (tgt[len(tgt)-1] + 1) & 3
	data := append(append([]byte{}, src...), tgt...)
	am := ExtendApprox(data, 0, len(src), 12, DefaultApproxConfig(), nil, nil)
	if len(am.Ops) != 0 {
		t.Fatalf("trailing error not trimmed: %+v", am.Ops)
	}
	if am.TLen != len(src)-1 {
		t.Fatalf("TLen = %d, want %d", am.TLen, len(src)-1)
	}
}

func TestExtendApproxRandomizedValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := synth.Profile{Length: 3000, GC: 0.45, RepeatProb: 0.03, RepeatMin: 20, RepeatMax: 200, MutationRate: 0.03}
	data := p.Generate(31)
	m := NewHashMatcher(data)
	// A reused ops buffer, dirty from earlier trials, must yield exactly the
	// match a fresh one does.
	var spent []EditOp
	for trial := 0; trial < 300; trial++ {
		pos := DefaultK + rng.Intn(len(data)-2*DefaultK)
		m.Advance(pos)
		mt, ok := m.FindForward(pos)
		if !ok || mt.Src+mt.Len > pos {
			continue
		}
		am := ExtendApprox(data, mt.Src, pos, mt.Len, DefaultApproxConfig(), nil, nil)
		reused := ExtendApprox(data, mt.Src, pos, mt.Len, DefaultApproxConfig(), nil, spent)
		if reused.Src != am.Src || reused.TLen != am.TLen || reused.SLen != am.SLen || len(reused.Ops) != len(am.Ops) {
			t.Fatalf("trial %d: reused buffer gave %+v, fresh %+v", trial, reused, am)
		}
		for i := range am.Ops {
			if reused.Ops[i] != am.Ops[i] {
				t.Fatalf("trial %d: op %d is %+v with a reused buffer, %+v fresh", trial, i, reused.Ops[i], am.Ops[i])
			}
		}
		spent = reused.Ops
		if !am.Valid(data, pos) {
			t.Fatalf("trial %d: invalid approx match %+v at pos %d", trial, am, pos)
		}
		if am.TLen < mt.Len {
			t.Fatalf("trial %d: approx extension shrank exact match %d -> %d", trial, mt.Len, am.TLen)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := synth.Profile{Length: 5000, GC: 0.4, RepeatProb: 0.02, RepeatMin: 15, RepeatMax: 100}
	data := p.Generate(8)
	m := NewHashMatcher(data)
	m.Advance(2500)
	// Query many positions: individual buckets can be empty, but across a
	// repeat-rich prefix some chain walks must happen.
	for pos := 2500; pos < 3500; pos += 13 {
		m.Advance(pos)
		m.FindForward(pos)
		m.FindRC(pos)
	}
	st := m.Stats()
	if st.Probes == 0 {
		t.Error("no probes recorded")
	}
}

func TestMemoryFootprints(t *testing.T) {
	data := make([]byte, 1000)
	m := NewHashMatcher(data)
	if m.MemoryFootprint() <= 0 {
		t.Error("matcher footprint must be positive")
	}
}

func TestVerifyMatchRejectsBad(t *testing.T) {
	data := mustEncode(t, "ACGTACGTACGT")
	bad := []struct {
		dst int
		mt  Match
	}{
		{4, Match{Src: 0, Len: 0}},
		{4, Match{Src: -1, Len: 4}},
		{4, Match{Src: 0, Len: 100}},
		{4, Match{Src: 1, Len: 4}},           // misaligned copy
		{8, Match{Src: 6, Len: 4, RC: true}}, // RC overlapping dst
	}
	for i, c := range bad {
		if VerifyMatch(data, c.dst, c.mt) {
			t.Errorf("case %d: accepted bad match %+v", i, c.mt)
		}
	}
}

func BenchmarkFindForward(b *testing.B) {
	p := synth.Profile{Length: 1 << 20, GC: 0.4, RepeatProb: 0.015, RepeatMin: 20, RepeatMax: 400, MutationRate: 0.01}
	data := p.Generate(1)
	m := NewHashMatcher(data)
	m.Advance(len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FindForward((i*4099 + 13) % (len(data) - DefaultK))
	}
}

func BenchmarkSAMExtend(b *testing.B) {
	p := synth.Profile{Length: 1 << 16, GC: 0.4, RepeatProb: 0.01, RepeatMin: 20, RepeatMax: 200}
	data := p.Generate(2)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sa := NewSuffixAutomaton(len(data))
		sa.ExtendAll(data)
	}
}

var sinkCompare bool

func BenchmarkVerifyMatch(b *testing.B) {
	blk := bytes.Repeat([]byte{0, 1, 2, 3}, 256)
	data := append(append([]byte{}, blk...), blk...)
	mt := Match{Src: 0, Len: len(blk)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCompare = VerifyMatch(data, len(blk), mt)
	}
}
