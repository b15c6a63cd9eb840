// Package stats provides the statistical primitives behind the decision-tree
// learners and the experiment analysis: chi-squared independence tests with
// p-values (CHAID), Gini impurity (CART), entropy, min-max normalization
// (the paper's Figures 10/12/14/16 plot normalized context variables), and
// quantile binning of continuous predictors.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Gini returns the Gini impurity of a class-count vector: 1 - Σ p_i².
func Gini(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	sumSq := 0.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		sumSq += float64(p * p)
	}
	return 1 - sumSq
}

// ChiSquare computes the chi-squared statistic and degrees of freedom for a
// contingency table (rows = categories of the predictor, cols = classes).
// Rows and columns whose totals are zero are ignored.
func ChiSquare(table [][]int) (chi2 float64, df int) {
	if len(table) == 0 {
		return 0, 0
	}
	nCols := len(table[0])
	rowTot := make([]float64, len(table))
	colTot := make([]float64, nCols)
	grand := 0.0
	for r, row := range table {
		if len(row) != nCols {
			panic(fmt.Sprintf("stats: ragged contingency table row %d", r))
		}
		for c, v := range row {
			rowTot[r] += float64(v)
			colTot[c] += float64(v)
			grand += float64(v)
		}
	}
	if grand == 0 {
		return 0, 0
	}
	liveRows, liveCols := 0, 0
	for _, t := range rowTot {
		if t > 0 {
			liveRows++
		}
	}
	for _, t := range colTot {
		if t > 0 {
			liveCols++
		}
	}
	if liveRows < 2 || liveCols < 2 {
		return 0, 0
	}
	for r := range table {
		if rowTot[r] == 0 {
			continue
		}
		for c := range table[r] {
			if colTot[c] == 0 {
				continue
			}
			expected := rowTot[r] * colTot[c] / grand
			d := float64(table[r][c]) - expected
			chi2 += d * d / expected
		}
	}
	return chi2, (liveRows - 1) * (liveCols - 1)
}

// ChiSquarePValue returns P(X >= chi2) for a chi-squared distribution with
// df degrees of freedom: the upper regularized incomplete gamma function
// Q(df/2, chi2/2).
func ChiSquarePValue(chi2 float64, df int) float64 {
	if df <= 0 {
		return 1
	}
	if chi2 <= 0 {
		return 1
	}
	return gammaQ(float64(df)/2, chi2/2)
}

// gammaQ computes the upper regularized incomplete gamma function Q(a, x)
// via the series (x < a+1) or continued fraction (x >= a+1) — the classic
// Numerical-Recipes construction using math.Lgamma.
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinued(a, x)
}

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del = float64(del * (x / ap))
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+float64(a*math.Log(x))-lg)
}

func gammaQContinued(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = float64(an*d) + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+float64(a*math.Log(x))-lg) * h
}

// Normalize min-max scales values into [0,1]; constant slices map to zeros.
// The paper's per-figure "analysis based on context" charts plot exactly
// this transformation of CPU, RAM and file size.
func Normalize(values []float64) []float64 {
	out := make([]float64, len(values))
	if len(values) == 0 {
		return out
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return out
	}
	for i, v := range values {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}

// QuantileBins returns up to n-1 cut points splitting values into n
// near-equal-population bins. Duplicate cut points are collapsed, so fewer
// cuts may be returned for heavily tied data.
func QuantileBins(values []float64, n int) []float64 {
	if n < 2 || len(values) == 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cuts []float64
	for i := 1; i < n; i++ {
		idx := i * len(sorted) / n
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		cut := sorted[idx]
		if len(cuts) == 0 || cut > cuts[len(cuts)-1] {
			cuts = append(cuts, cut)
		}
	}
	return cuts
}

// BinIndex places v into the bin defined by sorted cut points: bin i covers
// (-inf, cuts[0]), [cuts[0], cuts[1]), ..., [cuts[last], +inf).
func BinIndex(cuts []float64, v float64) int {
	// Binary search for the first cut greater than v.
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v >= cuts[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Median returns the median (0 for empty input).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
