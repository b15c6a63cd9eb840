package match

import "fmt"

// SpacedSeed is a PatternHunter-style seed: a pattern of care ('1') and
// don't-care ('0') positions. Hashing only the care positions lets an
// anchor survive mismatches at the don't-care positions — the reason
// PatternHunter (and DNACompress, which the paper's Table 1 builds on it)
// finds approximate repeats that contiguous k-mer seeds miss.
type SpacedSeed struct {
	pattern []bool // true = care position
	weight  int    // number of care positions
}

// PatternHunterSeed is the original optimal weight-11 seed from Ma, Tromp &
// Li (2002): 111010010100110111.
const PatternHunterSeed = "111010010100110111"

// ParseSeed builds a seed from a '1'/'0' string. The first and last
// positions must be care positions and the weight must fit 2 bits per care
// base in a uint32 (weight <= 16).
func ParseSeed(s string) (SpacedSeed, error) {
	if len(s) < 2 {
		return SpacedSeed{}, fmt.Errorf("match: seed %q too short", s)
	}
	seed := SpacedSeed{pattern: make([]bool, len(s))}
	for i, c := range s {
		switch c {
		case '1':
			seed.pattern[i] = true
			seed.weight++
		case '0':
		default:
			return SpacedSeed{}, fmt.Errorf("match: seed %q has invalid character %q", s, c)
		}
	}
	if !seed.pattern[0] || !seed.pattern[len(s)-1] {
		return SpacedSeed{}, fmt.Errorf("match: seed %q must start and end with a care position", s)
	}
	if seed.weight > 16 {
		return SpacedSeed{}, fmt.Errorf("match: seed weight %d exceeds 16", seed.weight)
	}
	return seed, nil
}

// Span returns the seed's window length.
func (s SpacedSeed) Span() int { return len(s.pattern) }

// Weight returns the number of care positions.
func (s SpacedSeed) Weight() int { return s.weight }

// HashAt packs the care-position bases of data[pos : pos+Span()] into an
// integer. The caller must ensure the window fits.
func (s SpacedSeed) HashAt(data []byte, pos int) uint32 {
	var v uint32
	for i, care := range s.pattern {
		if care {
			v = v<<2 | uint32(data[pos+i]&3)
		}
	}
	return v
}

// SpacedIndex is a hash-chain index over spaced-seed hashes of a sequence's
// processed prefix, the anchor discovery engine for DNACompress-style
// approximate repeat search.
type SpacedIndex struct {
	*chainTables // pooled; nil after Release
	seed         SpacedSeed
	data         []byte
	maxChain     int
	indexed      int
	stats        Stats
}

// NewSpacedIndex builds an (empty) index over data with the given seed. Its
// tables come from a pool: call Release when done with the index.
func NewSpacedIndex(data []byte, seed SpacedSeed, maxChain int) *SpacedIndex {
	if maxChain < 1 {
		maxChain = DefaultMaxChain
	}
	n := len(data) - seed.Span() + 1
	if n < 0 {
		n = 0
	}
	return &SpacedIndex{
		chainTables: newChainTables(n),
		seed:        seed,
		data:        data,
		maxChain:    maxChain,
	}
}

// Release hands the index's tables back to the pool. The index must not be
// used afterwards, except for Stats; a second Release is a no-op.
func (x *SpacedIndex) Release() {
	if x.chainTables != nil {
		x.release()
		x.chainTables = nil
	}
}

// Advance indexes window start positions up to (but excluding) pos.
func (x *SpacedIndex) Advance(pos int) {
	limit := pos
	if max := len(x.data) - x.seed.Span() + 1; limit > max {
		limit = max
	}
	for ; x.indexed < limit; x.indexed++ {
		x.insert(hashKmer(x.seed.HashAt(x.data, x.indexed)), x.indexed)
	}
}

// ForEachAnchor calls fn with every indexed position whose spaced hash
// equals the one at i, newest first, bounded by the chain limit. Unlike a
// contiguous k-mer anchor, the windows may disagree at don't-care
// positions — that's the point.
func (x *SpacedIndex) ForEachAnchor(i int, fn func(j int) bool) {
	if i+x.seed.Span() > len(x.data) {
		return
	}
	key := x.seed.HashAt(x.data, i)
	h := hashKmer(key)
	cand := x.head[h]
	for steps := 0; cand > 0 && steps < x.maxChain; steps++ {
		j := int(cand) - 1
		cand = x.prev[j]
		x.stats.Probes++
		if j >= i || x.seed.HashAt(x.data, j) != key {
			continue
		}
		if !fn(j) {
			return
		}
	}
}

// Stats returns accumulated probe counts.
func (x *SpacedIndex) Stats() Stats { return x.stats }

// MemoryFootprint approximates the index tables in bytes.
func (x *SpacedIndex) MemoryFootprint() int { return x.footprint() }
