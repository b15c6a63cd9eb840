package match

// SuffixAutomaton is an online suffix automaton over the 4-symbol nucleotide
// alphabet. It recognizes exactly the set of substrings of the text fed to
// Extend, in O(1) amortized time per symbol and O(n) states.
//
// It is the oracle of the matcher tests: LongestPrefixIn answers "how long
// is the longest prefix of p that occurs somewhere in the indexed text"
// exactly, which upper-bounds what the heuristic hash matcher may claim and
// lower-bounds what it must find when chains are unbounded.
type SuffixAutomaton struct {
	next [][4]int32
	link []int32
	len  []int32
	last int32
}

// NewSuffixAutomaton returns an automaton of the empty string.
func NewSuffixAutomaton(sizeHint int) *SuffixAutomaton {
	sa := &SuffixAutomaton{
		next: make([][4]int32, 1, 2*sizeHint+2),
		link: make([]int32, 1, 2*sizeHint+2),
		len:  make([]int32, 1, 2*sizeHint+2),
	}
	sa.next[0] = [4]int32{-1, -1, -1, -1}
	sa.link[0] = -1
	return sa
}

func (sa *SuffixAutomaton) addState(length, link int32, trans [4]int32) int32 {
	sa.next = append(sa.next, trans)
	sa.link = append(sa.link, link)
	sa.len = append(sa.len, length)
	return int32(len(sa.next) - 1)
}

// Extend appends symbol c (0..3) to the indexed text.
func (sa *SuffixAutomaton) Extend(c byte) {
	c &= 3
	cur := sa.addState(sa.len[sa.last]+1, -1, [4]int32{-1, -1, -1, -1})
	p := sa.last
	for p != -1 && sa.next[p][c] == -1 {
		sa.next[p][c] = cur
		p = sa.link[p]
	}
	if p == -1 {
		sa.link[cur] = 0
	} else {
		q := sa.next[p][c]
		if sa.len[p]+1 == sa.len[q] {
			sa.link[cur] = q
		} else {
			clone := sa.addState(sa.len[p]+1, sa.link[q], sa.next[q])
			for p != -1 && sa.next[p][c] == q {
				sa.next[p][c] = clone
				p = sa.link[p]
			}
			sa.link[q] = clone
			sa.link[cur] = clone
		}
	}
	sa.last = cur
}

// ExtendAll appends every symbol of s.
func (sa *SuffixAutomaton) ExtendAll(s []byte) {
	for _, c := range s {
		sa.Extend(c)
	}
}

// States reports the number of automaton states (useful for memory models;
// at most 2n-1 for a text of length n >= 2).
func (sa *SuffixAutomaton) States() int { return len(sa.next) }

// Contains reports whether s occurs as a substring of the indexed text.
func (sa *SuffixAutomaton) Contains(s []byte) bool {
	st := int32(0)
	for _, c := range s {
		st = sa.next[st][c&3]
		if st == -1 {
			return false
		}
	}
	return true
}

// LongestPrefixIn returns the length of the longest prefix of p that occurs
// as a substring of the indexed text.
func (sa *SuffixAutomaton) LongestPrefixIn(p []byte) int {
	st := int32(0)
	for i, c := range p {
		st = sa.next[st][c&3]
		if st == -1 {
			return i
		}
	}
	return len(p)
}

// VerifyMatch checks that a Match faithfully describes the text at dst.
func VerifyMatch(data []byte, dst int, mt Match) bool {
	if mt.Len <= 0 || dst+mt.Len > len(data) || mt.Src < 0 {
		return false
	}
	if !mt.RC {
		if mt.Src+mt.Len > len(data) {
			return false
		}
		for t := 0; t < mt.Len; t++ {
			if data[dst+t] != data[mt.Src+t] {
				return false
			}
		}
		return true
	}
	if mt.Src+mt.Len > dst { // RC source must be fully processed
		return false
	}
	for t := 0; t < mt.Len; t++ {
		if data[dst+t] != 3-(data[mt.Src+mt.Len-1-t]&3) {
			return false
		}
	}
	return true
}

// Reconstruct applies an approximate match against data (for the source
// bases) and returns the target bases it produces: the oracle of the
// approximate-match tests. token.Reader.Edit replays an edit script the
// same way.
func (am ApproxMatch) Reconstruct(data []byte) []byte {
	out := make([]byte, 0, am.TLen)
	s := am.Src
	opIdx := 0
	for len(out) < am.TLen {
		if opIdx < len(am.Ops) && am.Ops[opIdx].Off == len(out) {
			op := am.Ops[opIdx]
			opIdx++
			switch op.Kind {
			case OpSub:
				out = append(out, op.Base)
				s++
			case OpIns:
				out = append(out, op.Base)
			case OpDel:
				s++
			}
			continue
		}
		out = append(out, data[s])
		s++
	}
	return out
}

// Valid reports whether the match's bookkeeping is internally consistent
// and reproduces data[dst:dst+TLen].
func (am ApproxMatch) Valid(data []byte, dst int) bool {
	if am.TLen < 0 || am.SLen < 0 || am.Src < 0 || am.Src+am.SLen > len(data) || dst+am.TLen > len(data) {
		return false
	}
	got := am.Reconstruct(data)
	if len(got) != am.TLen {
		return false
	}
	for i, b := range got {
		if data[dst+i] != b {
			return false
		}
	}
	return true
}
