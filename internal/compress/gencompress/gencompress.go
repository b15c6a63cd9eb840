// Package gencompress implements the GenCompress algorithm (Chen, Kwong &
// Li — the paper's reference [14] lineage): substitution compression via
// *approximate* repeats. At each position the encoder enumerates candidate
// anchors in the processed prefix, extends every candidate with bounded
// edit operations (insert / delete / replace, GenCompress-2) or with
// substitutions only (Hamming distance, GenCompress-1), scores the encoded
// cost of each resulting approximate repeat, and emits the winner when it
// undercuts literal coding; otherwise a literal goes through an order-2
// arithmetic coder.
//
// This candidate × extension search is exactly why GenCompress posts the
// best compression ratios but the worst compression times in the paper's
// Figure 5 — and why its decompression (a mere replay of edit scripts) is
// fast, near DNAX's.
//
// The stream is package token's, with its Edit repeat records: distance
// - 1, length - MinLen and the edit script, with order-2 literals.
package gencompress

import (
	"math/bits"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/token"
	"github.com/srl-nuces/ctxdna/internal/match"
)

func init() {
	compress.Register("gencompress", func() compress.Codec { return New(Config{}) })
}

// Config tunes the search. Zero values select the defaults.
type Config struct {
	// Mode1 selects GenCompress-1 (Hamming distance: substitutions only).
	// Default is GenCompress-2 (full edit operations).
	Mode1 bool
	// MaxCandidates bounds how many anchors are approximately extended per
	// position; the dominant time knob (ablated in the bench suite).
	MaxCandidates int
	// MinLen is the minimum approximate-repeat length worth a descriptor.
	MinLen int
	// SeedK is the anchor k-mer length. GenCompress uses *short* seeds
	// (default 6) so that mutated repeats still anchor somewhere — the
	// faithful reproduction of its near-exhaustive prefix search, and the
	// reason its candidate lists (and compression times) dwarf DNAX's.
	SeedK int
	// Approx bounds the per-repeat edit search.
	Approx match.ApproxConfig
}

// Defaults.
const (
	DefaultMaxCandidates = 8
	DefaultMinLen        = 16
	DefaultSeedK         = 6
)

// Codec implements compress.Codec.
type Codec struct {
	cfg Config
}

// New returns a GenCompress codec.
func New(cfg Config) *Codec {
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = DefaultMaxCandidates
	}
	if cfg.MinLen == 0 {
		cfg.MinLen = DefaultMinLen
	}
	if cfg.SeedK == 0 {
		cfg.SeedK = DefaultSeedK
	}
	if cfg.MinLen < cfg.SeedK {
		cfg.MinLen = cfg.SeedK
	}
	if cfg.Approx == (match.ApproxConfig{}) {
		cfg.Approx = match.DefaultApproxConfig()
	}
	cfg.Approx.HammingOnly = cfg.Mode1
	return &Codec{cfg: cfg}
}

// Name implements compress.Codec.
func (*Codec) Name() string { return "gencompress" }

// Cost-model weights, first fitted to this package's benchmarks; the
// candidate loop is charged per probe and per extension comparison, which is
// where GenCompress's time goes. They model the paper's reference binary and
// stay fixed as this code gets faster: the selector trains on WorkNS, so
// measured time may drop while modeled time does not (see the cost-model
// item in ROADMAP.md).
const (
	nsPerProbe = 10.0
	// startupNS models the fixed per-invocation cost of the measured
	// reference binary (process spawn, table/model allocation and zeroing,
	// I/O setup). GenCompress's tables grow with the input, so its
	// fixed cost is small.
	startupNS    = 3_000_000
	nsPerExtend  = 4.0
	nsPerLiteral = 55.0
	nsPerMatch   = 320.0
	nsPerOp      = 90.0
	nsPerCopied  = 4.0
	nsPerSearch  = 80.0
	nsPerIndexed = 15.0

	// implFactor models the research-grade reference implementation the
	// paper actually benchmarked: the original GenCompress executable keeps
	// no k-mer index at all — it scans the processed prefix per position —
	// and is unoptimized throughout (per-symbol dispatch, unbuffered I/O).
	// It runs several times slower than the algorithmic operation count of
	// this re-implementation implies; the paper's timings are of that
	// binary, so the deterministic model carries the factor. DNAX's
	// reference tool ("a simple and FAST dna compressor") needs none.
	implFactor = 4.0
)

// score estimates the bit gain of emitting am at position pos: bases covered
// at ~2 bits each minus the descriptor cost.
func (c *Codec) score(am match.ApproxMatch, pos int) int {
	if am.TLen < c.cfg.MinLen {
		return -1
	}
	dist := pos - am.Src
	cost := 2 + 2*bits.Len(uint(dist)) + 2*bits.Len(uint(am.TLen-c.cfg.MinLen+1)) + 2*bits.Len(uint(len(am.Ops)+1))
	for range am.Ops {
		cost += 2 + 4 + 2 // kind + delta + base, rough adaptive averages
	}
	return 2*am.TLen - cost - 8
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	// Validate every symbol up front: a byte above 3 inside a repeat would
	// otherwise match its source through the 2-bit anchor and be copied as
	// that source base.
	for i, s := range src {
		if s > 3 {
			return nil, compress.Stats{}, compress.Corruptf("gencompress: invalid symbol %d at %d", s, i)
		}
	}
	m := match.NewHashMatcher(src, match.WithK(c.cfg.SeedK), match.WithMaxChain(2*c.cfg.MaxCandidates))
	defer m.Release()
	w := token.NewWriter(len(src), 2)

	var searchStats match.Stats
	// Edit-script buffers for the candidate search: each candidate extends
	// into cur, and a winner swaps its buffer with the one best held, so
	// the search reuses two buffers instead of allocating per candidate.
	var cur, bestOps []match.EditOp

	i := 0
	for i < len(src) {
		m.Advance(i)

		var best match.ApproxMatch
		bestScore := 0
		cands := 0
		m.ForEachForwardAnchor(i, func(j int) bool {
			// The source must be fully processed for an edit-script replay.
			am := match.ExtendApprox(src, j, i, m.K(), c.cfg.Approx, &searchStats, cur)
			if s := c.score(am, i); s > bestScore {
				best, bestScore = am, s
				cur, bestOps = bestOps, am.Ops
			} else {
				cur = am.Ops
			}
			cands++
			return cands < c.cfg.MaxCandidates
		})

		if bestScore > 0 {
			w.Edit(uint64(i-best.Src-1), uint64(best.TLen-c.cfg.MinLen), uint64(len(best.Ops)), best.Ops, src[i:i+best.TLen])
			i += best.TLen
			continue
		}
		w.Literals(src[i : i+1])
		i++
	}
	out := w.Finish()

	ms, n := m.Stats(), w.Counts
	searchStats.Probes += ms.Probes
	searchStats.Extends += ms.Extends
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupNS + int64(implFactor*(float64(nsPerProbe*float64(searchStats.Probes))+float64(nsPerExtend*float64(searchStats.Extends))+
			float64(nsPerSearch*float64(n.Literals+n.Repeats))+float64(nsPerIndexed*float64(len(src)))+
			float64(nsPerLiteral*float64(n.Literals))+float64(nsPerMatch*float64(n.Repeats))+
			float64(nsPerOp*float64(n.Ops))+float64(nsPerCopied*float64(n.Copied)))),
		// The approximate-repeat search keeps per-candidate extension state
		// and scoring buffers alive alongside the chain tables — the "RAM
		// usage of GenCompress is high" observation.
		PeakMem: m.MemoryFootprint() + w.ModelBytes(5) + 2*len(src) + len(out),
	}
	return out, st, nil
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo implements compress.Codec.
func (c *Codec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	r, err := token.NewReader(dst, data, "gencompress", 2)
	if err != nil {
		return nil, compress.Stats{}, err
	}
	for r.Next() {
		if err := r.Edit(c.cfg.MinLen, c.cfg.Approx.MaxOps); err != nil {
			return nil, compress.Stats{}, err
		}
	}
	n := r.Counts
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupNS + int64(implFactor*(float64(nsPerLiteral*float64(n.Literals))+float64(nsPerMatch*float64(n.Repeats))+
			float64(nsPerOp*float64(n.Ops))+float64(nsPerCopied*float64(n.Copied)))),
		PeakMem: r.ModelBytes(5) + len(data) + len(r.Out),
	}
	return r.Out, st, nil
}
