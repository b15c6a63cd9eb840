package match

// Approximate repeat extension with edit operations — the core of
// GenCompress. Starting from an exact k-base anchor (found by HashMatcher),
// the extension walks source and target forward together, spending a bounded
// budget of edit operations (substitute / insert / delete) to bridge
// mismatches, exactly the "edit operations … insert, delete and replace"
// with "constraint at the edit operation using a threshold value" the paper
// describes for GenCompress.

// OpKind enumerates edit operations relative to a plain copy of the source.
type OpKind uint8

const (
	// OpSub replaces the copied base at a target offset with Base.
	OpSub OpKind = iota
	// OpIns inserts Base at a target offset (the source does not advance).
	OpIns
	// OpDel skips one source base at a target offset (the target does not
	// consume a base for it).
	OpDel
)

func (k OpKind) String() string {
	switch k {
	case OpSub:
		return "sub"
	case OpIns:
		return "ins"
	case OpDel:
		return "del"
	}
	return "?"
}

// EditOp is a single deviation from an exact copy. Off is the offset in the
// *target* at which the operation applies, relative to the start of the
// approximate match.
type EditOp struct {
	Kind OpKind
	Off  int
	Base byte // for OpSub and OpIns
}

// ApproxConfig bounds the extension search.
type ApproxConfig struct {
	MaxOps      int  // total edit budget per repeat (paper's threshold)
	MaxRun      int  // consecutive-error limit before giving up
	Lookahead   int  // bases examined when deciding between sub/ins/del
	HammingOnly bool // GenCompress-1 mode: substitutions only
}

// DefaultApproxConfig mirrors GenCompress-2 defaults: a generous edit
// budget, stop after 3 consecutive errors, 4-base lookahead.
func DefaultApproxConfig() ApproxConfig {
	return ApproxConfig{MaxOps: 24, MaxRun: 3, Lookahead: 4}
}

// ApproxMatch describes an approximate repeat: the target [Dst, Dst+TLen)
// reproduces the source starting at Src with Ops applied.
type ApproxMatch struct {
	Src  int
	TLen int // bases produced in the target
	SLen int // bases consumed from the source
	Ops  []EditOp
}

// ExtendApprox grows an exact anchor of length k at (src, dst) into an
// approximate match. The extension is greedy with lookahead: on a mismatch
// it evaluates how far a substitution, an insertion or a deletion would
// resynchronize the streams and picks the best. stats, when non-nil,
// accumulates comparison counts for the cost model.
//
// The match's Ops are appended to ops[:0], so a caller scoring many
// candidates can hand back a spent buffer instead of allocating per call;
// nil allocates as needed. The returned Ops share ops' backing array while
// it has room, so the caller must not reuse ops while it still needs them.
func ExtendApprox(data []byte, src, dst, k int, cfg ApproxConfig, stats *Stats, ops []EditOp) ApproxMatch {
	am := ApproxMatch{Src: src, TLen: k, SLen: k, Ops: ops[:0]}
	s := src + k // next source index
	t := dst + k // next target index
	run := 0     // consecutive errors
	count := func(n int) {
		if stats != nil {
			stats.Extends += n
		}
	}
	agree := func(s0, t0 int) int {
		n := 0
		for n < cfg.Lookahead && t0+n < len(data) && s0+n < dst && data[s0+n] == data[t0+n] {
			n++
		}
		count(n + 1)
		return n
	}
	for t < len(data) && s < dst && len(am.Ops) < cfg.MaxOps {
		count(1)
		if data[s] == data[t] {
			am.TLen++
			am.SLen++
			s++
			t++
			run = 0
			continue
		}
		run++
		if run > cfg.MaxRun {
			break
		}
		// Score the three repair options by how long they resynchronize.
		subGain := agree(s+1, t+1)
		insGain, delGain := -1, -1
		if !cfg.HammingOnly {
			insGain = agree(s, t+1) // extra base in target
			delGain = agree(s+1, t) // missing base in target
		}
		switch {
		case subGain >= insGain && subGain >= delGain:
			am.Ops = append(am.Ops, EditOp{Kind: OpSub, Off: t - dst, Base: data[t]})
			am.TLen++
			am.SLen++
			s++
			t++
		case insGain >= delGain:
			am.Ops = append(am.Ops, EditOp{Kind: OpIns, Off: t - dst, Base: data[t]})
			am.TLen++
			t++
		default:
			am.Ops = append(am.Ops, EditOp{Kind: OpDel, Off: t - dst})
			am.SLen++
			s++
		}
	}
	// Trim trailing errors: an approximate match must end on agreement,
	// otherwise the trailing ops encode noise at a loss.
	for len(am.Ops) > 0 {
		last := am.Ops[len(am.Ops)-1]
		// Distance from the end of the match to the last op, in target bases.
		produced := am.TLen - last.Off
		var tail int
		switch last.Kind {
		case OpSub, OpIns:
			tail = produced - 1
		case OpDel:
			tail = produced
		}
		if tail >= 2 { // at least two agreeing bases after the final op
			break
		}
		switch last.Kind {
		case OpSub:
			am.TLen = last.Off
			am.SLen -= produced
		case OpIns:
			am.TLen = last.Off
			am.SLen -= produced - 1
		case OpDel:
			am.TLen = last.Off
			am.SLen -= produced + 1
		}
		am.Ops = am.Ops[:len(am.Ops)-1]
	}
	return am
}
