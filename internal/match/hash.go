// Package match implements repeat discovery over nucleotide sequences: a
// hash-chain matcher for exact direct and reverse-complement repeats (the
// machinery behind DNAX and BioCompress), a spaced-seed index (DNACompress),
// and greedy approximate extension with edit operations (the machinery
// behind GenCompress).
//
// All functions operate on symbol-coded sequences (values 0..3, see package
// seq).
package match

import "fmt"

// Default parameters for the hash matcher. K is the anchor k-mer length: a
// repeat shorter than K is invisible to the matcher, which is fine because
// repeats below ~12 bases cost more to describe than to code literally.
const (
	DefaultK        = 12
	DefaultMaxChain = 64
	tableBits       = 18
)

// Match describes a repeat found at a target position.
type Match struct {
	Src int  // start of the source block in forward coordinates
	Len int  // match length in bases
	RC  bool // true if the target equals the reverse complement of the source
}

// Stats counts the work the matcher performed; the deterministic cost model
// converts these into simulated milliseconds.
type Stats struct {
	Probes  int // chain entries examined
	Extends int // base comparisons during extension
}

// HashMatcher finds the longest exact (direct or reverse-complement) repeat
// of the text beginning at a query position, with the source constrained to
// the already-processed prefix. Positions are indexed incrementally via
// Advance so that the matcher never "sees the future", mirroring a one-pass
// compressor.
type HashMatcher struct {
	*chainTables // pooled; nil after Release
	data         []byte
	k            int
	stride       int
	maxChain     int
	indexed      int // next stride-aligned k-mer start to insert
	stats        Stats

	// The forward and reverse-complement keys of the k-mer at keyPos, the
	// last queried position (-2 before the first query); see keysAt.
	keyPos        int
	fwdKey, rcKey uint32
	keyMask       uint32 // the low 2k bits
}

// Option configures a HashMatcher.
type Option func(*HashMatcher)

// WithK sets the anchor k-mer length (4..16).
func WithK(k int) Option {
	return func(m *HashMatcher) { m.k = k }
}

// WithMaxChain bounds how many chain candidates are examined per query.
func WithMaxChain(n int) Option {
	return func(m *HashMatcher) { m.maxChain = n }
}

// WithStride indexes only every stride-th source position, emulating
// fingerprint compressors (DNAX's B-block scheme) that anchor repeats on
// block-aligned positions only. Queries still run at every target position,
// so a repeat is found iff it covers an aligned anchor — shorter repeats are
// increasingly invisible as stride grows. Stride 1 (the default) indexes
// everything.
func WithStride(s int) Option {
	return func(m *HashMatcher) { m.stride = s }
}

// NewHashMatcher creates a matcher over data (symbol codes 0..3). The
// matcher holds a reference to data; the caller must not mutate it. Its
// tables come from a pool: call Release when done with the matcher.
func NewHashMatcher(data []byte, opts ...Option) *HashMatcher {
	m := &HashMatcher{
		data:     data,
		k:        DefaultK,
		stride:   1,
		maxChain: DefaultMaxChain,
		keyPos:   -2,
	}
	for _, o := range opts {
		o(m)
	}
	if m.k < 4 || m.k > 16 {
		panic(fmt.Sprintf("match: k=%d outside [4,16]", m.k))
	}
	if m.stride < 1 {
		m.stride = 1
	}
	if m.maxChain < 1 {
		m.maxChain = 1
	}
	m.keyMask = ^uint32(0) >> (32 - 2*m.k)
	n := len(data) - m.k + 1
	if n < 0 {
		n = 0
	}
	m.chainTables = newChainTables(n)
	return m
}

// Release hands the matcher's tables back to the pool. The matcher must not
// be used afterwards, except for Stats and K; a second Release is a no-op.
func (m *HashMatcher) Release() {
	if m.chainTables != nil {
		m.release()
		m.chainTables = nil
	}
}

// K reports the anchor length.
func (m *HashMatcher) K() int { return m.k }

// Stats returns the accumulated work counters.
func (m *HashMatcher) Stats() Stats { return m.stats }

// MemoryFootprint approximates the matcher's table memory in bytes.
func (m *HashMatcher) MemoryFootprint() int { return m.footprint() }

// packAt packs the k-mer starting at i into an integer (2 bits per base,
// first base most significant).
func (m *HashMatcher) packAt(i int) uint32 {
	var v uint32
	for j := 0; j < m.k; j++ {
		v = v<<2 | uint32(m.data[i+j]&3)
	}
	return v
}

// packRCAt packs the reverse complement of the k-mer starting at i.
func (m *HashMatcher) packRCAt(i int) uint32 {
	var v uint32
	for j := m.k - 1; j >= 0; j-- {
		v = v<<2 | uint32(3-(m.data[i+j]&3))
	}
	return v
}

// keysAt returns the forward and reverse-complement keys of the k-mer at i
// (packAt(i) and packRCAt(i)). It keeps the keys of the last queried
// position: a second query there reuses them, a query at the next position
// rolls both by one base, and any other position packs them afresh.
func (m *HashMatcher) keysAt(i int) (fwd, rc uint32) {
	switch i {
	case m.keyPos:
	case m.keyPos + 1:
		m.fwdKey, m.rcKey = m.rolled(i, m.fwdKey, m.rcKey)
		m.keyPos = i
	default:
		m.fwdKey, m.rcKey = m.packAt(i), m.packRCAt(i)
		m.keyPos = i
	}
	return m.fwdKey, m.rcKey
}

// rolled returns fwd and rc, the keys of the k-mer at i-1, moved to i: the
// forward key shifts the new base in at the bottom, the reverse-complement
// key shifts right and takes the base's complement in at the top.
func (m *HashMatcher) rolled(i int, fwd, rc uint32) (uint32, uint32) {
	in := uint32(m.data[i+m.k-1] & 3)
	return (fwd<<2 | in) & m.keyMask, rc>>2 | (3-in)<<(2*m.k-2)
}

func hashKmer(v uint32) uint32 {
	// Multiplicative hashing; 2654435761 is the golden-ratio constant.
	return (v * 2654435761) >> (32 - tableBits)
}

// Advance indexes k-mer start positions up to (but excluding) pos. Calling
// it repeatedly with increasing pos keeps the index covering exactly the
// processed prefix. It inlines to one compare when there is nothing to
// index, as at most parse steps once stride exceeds 1.
func (m *HashMatcher) Advance(pos int) {
	if m.indexed < pos {
		m.advance(pos)
	}
}

// advance is Advance's indexing loop. indexed starts at 0 and steps by
// stride, so it only ever visits the stride-aligned positions; the last
// queried position reuses its key.
func (m *HashMatcher) advance(pos int) {
	limit := pos
	if max := len(m.data) - m.k + 1; limit > max {
		limit = max
	}
	for ; m.indexed < limit; m.indexed += m.stride {
		key := m.fwdKey
		if m.indexed != m.keyPos {
			key = m.packAt(m.indexed)
		}
		m.insert(hashKmer(key), m.indexed)
	}
}

// FindForward returns the longest direct match for the text starting at i
// whose source starts strictly before i (overlapping copies allowed, as a
// sequential decoder reproduces them byte by byte). ok is false when no
// anchor of length k matches.
func (m *HashMatcher) FindForward(i int) (best Match, ok bool) {
	if i+m.k > len(m.data) {
		return Match{}, false
	}
	key, _ := m.keysAt(i)
	cand := m.head[hashKmer(key)]
	for steps := 0; cand > 0 && steps < m.maxChain; steps++ {
		j := int(cand) - 1
		cand = m.prev[j]
		m.stats.Probes++
		if j >= i || m.packAt(j) != key {
			continue
		}
		l := m.extendForward(j, i)
		if l > best.Len {
			best = Match{Src: j, Len: l}
		}
	}
	return best, best.Len >= m.k
}

func (m *HashMatcher) extendForward(j, i int) int {
	l := m.k
	for i+l < len(m.data) && m.data[j+l] == m.data[i+l] {
		l++
		m.stats.Extends++
	}
	return l
}

// FindRC returns the longest reverse-complement match for the text starting
// at i. The returned Src is the start of the source block in forward
// coordinates; the block [Src, Src+Len) lies entirely in [0, i) because an
// RC copy cannot overlap its own output.
func (m *HashMatcher) FindRC(i int) (best Match, ok bool) {
	if i+m.k > len(m.data) {
		return Match{}, false
	}
	// We need a source block whose *last* k bases are the reverse complement
	// of our next k bases, i.e. a forward k-mer equal to RC(data[i:i+k]).
	_, key := m.keysAt(i)
	cand := m.head[hashKmer(key)]
	for steps := 0; cand > 0 && steps < m.maxChain; steps++ {
		j := int(cand) - 1
		cand = m.prev[j]
		m.stats.Probes++
		if j+m.k > i || m.packAt(j) != key {
			continue
		}
		// Anchored: data[i:i+k] == RC(data[j:j+k]). Extend the source block
		// backwards from j while the target extends forwards from i+k.
		ext := 0
		for j-1-ext >= 0 && i+m.k+ext < len(m.data) &&
			m.data[i+m.k+ext] == 3-(m.data[j-1-ext]&3) {
			ext++
			m.stats.Extends++
		}
		l := m.k + ext
		if l > best.Len {
			best = Match{Src: j - ext, Len: l, RC: true}
		}
	}
	return best, best.Len >= m.k
}

// ForEachForwardAnchor calls fn with each processed position j whose k-mer
// equals the one at i, newest first, bounded by the chain limit. fn returns
// false to stop early. GenCompress drives its approximate-repeat search
// through this: every anchor is a candidate seed for edit-distance
// extension.
func (m *HashMatcher) ForEachForwardAnchor(i int, fn func(j int) bool) {
	if i+m.k > len(m.data) {
		return
	}
	key, _ := m.keysAt(i)
	cand := m.head[hashKmer(key)]
	for steps := 0; cand > 0 && steps < m.maxChain; steps++ {
		j := int(cand) - 1
		cand = m.prev[j]
		m.stats.Probes++
		if j >= i || m.packAt(j) != key {
			continue
		}
		if !fn(j) {
			return
		}
	}
}

// FindBest returns the better of the direct and reverse-complement matches
// at i. Direct matches win ties because they are marginally cheaper to
// encode (no orientation flag branch mispredict on decode).
func (m *HashMatcher) FindBest(i int) (Match, bool) {
	f, okF := m.FindForward(i)
	r, okR := m.FindRC(i)
	switch {
	case okF && okR:
		if r.Len > f.Len {
			return r, true
		}
		return f, true
	case okF:
		return f, true
	case okR:
		return r, true
	}
	return Match{}, false
}

// NextCandidate returns the first position j >= i at which FindBest has a
// chain to walk, one whose forward or reverse-complement bucket is not
// empty, or len(data) when no position has one. It leaves the index, the
// keys and Stats as Advance(p) and FindBest(p) at every p in [i, j), then
// Advance(j), would: each of those FindBest calls finds both buckets empty
// and walks nothing, and FindBest(j) then finds what it would have. A
// parse codes [i, j) as literals in one run instead of one step a base.
func (m *HashMatcher) NextCandidate(i int) int {
	n := len(m.data)
	last := n - m.k // the last position with a whole k-mer
	if i > last {
		if i < n {
			m.Advance(i)
		}
		return n
	}
	m.Advance(i)
	m.keysAt(i)
	fwd, rc := m.fwdKey, m.rcKey
	head := m.head
	for head[hashKmer(fwd)]|head[hashKmer(rc)] == 0 {
		if i == last {
			// The k-1 positions after last have no k-mer, so FindBest
			// returns there before any key; Advance(last+1) indexes last.
			m.fwdKey, m.rcKey, m.keyPos = fwd, rc, i
			m.Advance(i + 1)
			return n
		}
		// Advance(i+1): indexing is one step behind, and it reaches i
		// only when i is stride-aligned.
		if m.indexed == i {
			m.insert(hashKmer(fwd), i)
			m.indexed += m.stride
		}
		i++
		fwd, rc = m.rolled(i, fwd, rc)
	}
	m.fwdKey, m.rcKey, m.keyPos = fwd, rc, i
	return i
}
