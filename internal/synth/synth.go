// Package synth generates deterministic synthetic DNA sequences with
// controlled repeat structure. It stands in for the paper's corpus (NCBI
// bacterial downloads plus the standard DNA compression benchmark files),
// which cannot be redistributed here. The generator controls exactly the
// properties the compared codecs exploit:
//
//   - exact direct repeats (found by DNAX, BioCompress, gzip's LZ77),
//   - reverse-complement (palindrome) repeats (DNAX, BioCompress),
//   - approximate repeats carrying point mutations at the ~0.1 % rate the
//     paper cites for intra-species variation (GenCompress's edit-distance
//     search is the only searcher that monetizes these),
//   - global base composition / GC skew (all statistical coders: CTW,
//     order-2 arithmetic).
//
// Because relative codec ranking is a function of these properties, a corpus
// that controls them reproduces the paper's comparison shape even though the
// literal bytes differ.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/srl-nuces/ctxdna/internal/seq"
)

// Profile describes the statistical character of a generated sequence.
type Profile struct {
	Name   string
	Length int     // bases
	GC     float64 // target GC fraction for random regions

	// RepeatProb is the per-emission probability of starting a repeat copy
	// instead of a random base. Together with the length bounds it sets the
	// fraction of the sequence covered by repeats.
	RepeatProb           float64
	RepeatMin, RepeatMax int

	// RCFraction is the fraction of repeats copied as reverse complements.
	RCFraction float64

	// MutationRate is the per-base probability that a copied base is
	// substituted, turning an exact repeat into an approximate one.
	MutationRate float64

	// LocalOrder adds order-k Markov structure to the random regions —
	// the dinucleotide/codon bias real DNA carries that statistical coders
	// (CTW, order-2 arithmetic) exploit below the 2-bit floor even where
	// no repeats exist. 0 means iid.
	LocalOrder int
	// LocalBias in [0,1) scales how skewed the per-context distributions
	// are; 0 means uniform (iid), ~0.5 reproduces the ~1.9 bits/base
	// entropy of real genomic DNA.
	LocalBias float64
}

// Validate reports whether the profile's parameters are coherent.
func (p Profile) Validate() error {
	switch {
	case p.Length < 0:
		return fmt.Errorf("synth: profile %q: negative length", p.Name)
	case p.GC < 0 || p.GC > 1:
		return fmt.Errorf("synth: profile %q: GC %v outside [0,1]", p.Name, p.GC)
	case p.RepeatProb < 0 || p.RepeatProb > 1:
		return fmt.Errorf("synth: profile %q: RepeatProb %v outside [0,1]", p.Name, p.RepeatProb)
	case p.RepeatMin < 0 || (p.RepeatProb > 0 && p.RepeatMax < p.RepeatMin):
		return fmt.Errorf("synth: profile %q: repeat bounds [%d,%d] invalid", p.Name, p.RepeatMin, p.RepeatMax)
	case p.RCFraction < 0 || p.RCFraction > 1:
		return fmt.Errorf("synth: profile %q: RCFraction %v outside [0,1]", p.Name, p.RCFraction)
	case p.MutationRate < 0 || p.MutationRate > 1:
		return fmt.Errorf("synth: profile %q: MutationRate %v outside [0,1]", p.Name, p.MutationRate)
	case p.LocalOrder < 0 || p.LocalOrder > 8:
		return fmt.Errorf("synth: profile %q: LocalOrder %d outside [0,8]", p.Name, p.LocalOrder)
	case p.LocalBias < 0 || p.LocalBias >= 1:
		return fmt.Errorf("synth: profile %q: LocalBias %v outside [0,1)", p.Name, p.LocalBias)
	}
	return nil
}

// Generate produces a symbol-coded sequence (values 0..3) of p.Length bases.
// The same profile and seed always yield the same sequence.
func (p Profile) Generate(seed int64) []byte {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, p.Length)

	// Base distribution respecting the GC target: GC mass split between G
	// and C, AT mass between A and T. (Order matches symbol codes A,C,G,T.)
	baseP := [4]float64{(1 - p.GC) / 2, p.GC / 2, p.GC / 2, (1 - p.GC) / 2}

	// Markov local structure: one cumulative distribution per context,
	// derived deterministically from the profile seed by tilting baseP.
	var (
		ctxMask int
		cum     [][4]float64
	)
	if p.LocalOrder > 0 && p.LocalBias > 0 {
		nCtx := 1 << (2 * p.LocalOrder)
		ctxMask = nCtx - 1
		cum = make([][4]float64, nCtx)
		for ctx := range cum {
			var w [4]float64
			total := 0.0
			for b := 0; b < 4; b++ {
				// Tilt in [1-bias, 1+bias], deterministic given the rng.
				// Each product is rounded alone (float64(...)), the one
				// rng.Float64 ends in too, so arm64 fuses none into a sum.
				u := float64(rng.Float64())
				tilt := 1 + float64(p.LocalBias*(float64(2*u)-1))
				w[b] = float64(baseP[b] * tilt)
				total += w[b]
			}
			acc := 0.0
			for b := 0; b < 4; b++ {
				acc += w[b] / total
				cum[ctx][b] = acc
			}
			cum[ctx][3] = 1 // guard against rounding
		}
	}

	ctx := 0
	randomBase := func() byte {
		r := rng.Float64()
		var dist [4]float64
		if cum != nil {
			dist = cum[ctx]
		} else {
			acc := 0.0
			for b := 0; b < 4; b++ {
				acc += baseP[b]
				dist[b] = acc
			}
			dist[3] = 1
		}
		for b := byte(0); b < 3; b++ {
			if r < dist[b] {
				return b
			}
		}
		return 3
	}
	push := func(b byte) {
		out = append(out, b)
		ctx = (ctx<<2 | int(b)) & ctxMask
	}

	for len(out) < p.Length {
		// A repeat needs an existing prefix at least RepeatMin long.
		if p.RepeatProb > 0 && len(out) > p.RepeatMin && rng.Float64() < p.RepeatProb {
			span := p.RepeatMax - p.RepeatMin
			repLen := p.RepeatMin
			if span > 0 {
				repLen += rng.Intn(span + 1)
			}
			if repLen > len(out) {
				repLen = len(out)
			}
			if repLen > p.Length-len(out) {
				repLen = p.Length - len(out)
			}
			if repLen <= 0 {
				continue
			}
			src := rng.Intn(len(out) - repLen + 1)
			asRC := rng.Float64() < p.RCFraction
			for i := 0; i < repLen; i++ {
				var b byte
				if asRC {
					b = seq.Complement(out[src+repLen-1-i])
				} else {
					b = out[src+i]
				}
				if p.MutationRate > 0 && rng.Float64() < p.MutationRate {
					b = (b + byte(1+rng.Intn(3))) & 3 // substitute with a different base
				}
				push(b)
			}
			continue
		}
		push(randomBase())
	}
	return out
}

// GenerateASCII is Generate followed by conversion to ACGT letters.
func (p Profile) GenerateASCII(seed int64) []byte {
	return seq.Decode(p.Generate(seed))
}

// Benchmark returns profiles named and sized after the standard DNA
// compression corpus used throughout the literature the paper builds on
// (Grumbach & Tahi; Manzini & Rastero; the paper's §IV.A "seven files from
// benchmark standard dataset"). Lengths are the published base counts; the
// repeat parameters are tuned per family: chloroplasts and mitochondria are
// repeat-rich, human genes carry fewer but longer repeats, and the vaccinia
// virus genome has strong direct repeats at ~33 % coverage.
func Benchmark() []Profile {
	// Repeat coverage fraction ≈ p·E[len] / (p·E[len] + 1-p). The values
	// below put coverage at 8–35 %, matching how the real corpus behaves
	// under LZ-style parsing (DNA codecs land at 1.6–1.95 bits/base, gzip
	// stays above 2).
	return []Profile{
		{Name: "chmpxx", Length: 121024, GC: 0.36, RepeatProb: 0.0012, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.25, MutationRate: 0.035, LocalOrder: 3, LocalBias: 0.85},
		{Name: "chntxx", Length: 155844, GC: 0.38, RepeatProb: 0.0012, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.30, MutationRate: 0.035, LocalOrder: 3, LocalBias: 0.85},
		{Name: "hehcmv", Length: 229354, GC: 0.57, RepeatProb: 0.0008, RepeatMin: 20, RepeatMax: 300, RCFraction: 0.20, MutationRate: 0.04, LocalOrder: 3, LocalBias: 0.8},
		{Name: "humdyst", Length: 38770, GC: 0.37, RepeatProb: 0.0006, RepeatMin: 15, RepeatMax: 200, RCFraction: 0.15, MutationRate: 0.05, LocalOrder: 4, LocalBias: 0.85},
		{Name: "humghcs", Length: 66495, GC: 0.52, RepeatProb: 0.0020, RepeatMin: 30, RepeatMax: 800, RCFraction: 0.10, MutationRate: 0.035, LocalOrder: 4, LocalBias: 0.85},
		{Name: "humhbb", Length: 73308, GC: 0.40, RepeatProb: 0.0010, RepeatMin: 20, RepeatMax: 300, RCFraction: 0.15, MutationRate: 0.04, LocalOrder: 4, LocalBias: 0.85},
		{Name: "humhdab", Length: 58864, GC: 0.54, RepeatProb: 0.0010, RepeatMin: 20, RepeatMax: 300, RCFraction: 0.15, MutationRate: 0.04, LocalOrder: 4, LocalBias: 0.85},
		{Name: "humprtb", Length: 56737, GC: 0.38, RepeatProb: 0.0010, RepeatMin: 20, RepeatMax: 300, RCFraction: 0.15, MutationRate: 0.04, LocalOrder: 4, LocalBias: 0.85},
		{Name: "mpomtcg", Length: 186608, GC: 0.43, RepeatProb: 0.0012, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.25, MutationRate: 0.035, LocalOrder: 3, LocalBias: 0.85},
		{Name: "mtpacga", Length: 100314, GC: 0.41, RepeatProb: 0.0012, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.25, MutationRate: 0.035, LocalOrder: 3, LocalBias: 0.85},
		{Name: "vaccg", Length: 191737, GC: 0.33, RepeatProb: 0.0030, RepeatMin: 30, RepeatMax: 1000, RCFraction: 0.20, MutationRate: 0.03, LocalOrder: 3, LocalBias: 0.8},
	}
}

// File is one member of a generated corpus.
type File struct {
	Name string
	Data []byte // symbol codes 0..3
}

// CorpusSpec configures ExperimentCorpus.
type CorpusSpec struct {
	NumFiles int   // paper: 132
	MinSize  int   // bases; paper corpus starts around 1 KB
	MaxSize  int   // bases; paper restricted files to 10 MB
	Seed     int64 // master seed; file i derives seed Seed*1e6 + i
}

// ExperimentCorpus generates spec.NumFiles sequences with log-spaced sizes
// and rotating repeat character, emulating the paper's mixed bag of
// bacterial sequences: "A total of 132 files are used in the experiments
// with different file sizes."
func ExperimentCorpus(spec CorpusSpec) []File {
	if spec.NumFiles <= 0 {
		return nil
	}
	if spec.MinSize <= 0 {
		spec.MinSize = 1024
	}
	if spec.MaxSize < spec.MinSize {
		spec.MaxSize = spec.MinSize
	}
	// Repeat-character rotation: light, medium, heavy, palindromic —
	// repeat coverage spanning roughly 5–40 %, the realistic corpus range.
	kinds := []Profile{
		{GC: 0.42, RepeatProb: 0.0005, RepeatMin: 12, RepeatMax: 120, RCFraction: 0.10, MutationRate: 0.05, LocalOrder: 3, LocalBias: 0.8},
		{GC: 0.38, RepeatProb: 0.0012, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.20, MutationRate: 0.035, LocalOrder: 3, LocalBias: 0.85},
		{GC: 0.35, RepeatProb: 0.0030, RepeatMin: 30, RepeatMax: 900, RCFraction: 0.20, MutationRate: 0.025, LocalOrder: 3, LocalBias: 0.8},
		{GC: 0.50, RepeatProb: 0.0015, RepeatMin: 25, RepeatMax: 500, RCFraction: 0.60, MutationRate: 0.03, LocalOrder: 4, LocalBias: 0.85},
	}
	files := make([]File, spec.NumFiles)
	ratio := float64(spec.MaxSize) / float64(spec.MinSize)
	for i := range files {
		frac := 0.0
		if spec.NumFiles > 1 {
			frac = float64(i) / float64(spec.NumFiles-1)
		}
		size := int(float64(spec.MinSize) * math.Pow(ratio, frac))
		p := kinds[i%len(kinds)]
		p.Name = fmt.Sprintf("synth%03d", i)
		p.Length = size
		files[i] = File{Name: p.Name, Data: p.Generate(spec.Seed*1_000_000 + int64(i))}
	}
	return files
}
