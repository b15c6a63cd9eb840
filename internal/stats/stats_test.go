package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGini(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{[]int{10, 0}, 0},
		{[]int{5, 5}, 0.5},
		{[]int{25, 25, 25, 25}, 0.75},
		{[]int{}, 0},
		{[]int{0, 0}, 0},
		{[]int{9, 1}, 1 - 0.81 - 0.01},
	}
	for _, c := range cases {
		if got := Gini(c.counts); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Gini(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

// Entropy returns the Shannon entropy (bits) of a class-count vector.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]int{5, 5}); !almostEq(got, 1, 1e-12) {
		t.Errorf("Entropy(5,5) = %v, want 1", got)
	}
	if got := Entropy([]int{4, 0}); got != 0 {
		t.Errorf("Entropy(4,0) = %v, want 0", got)
	}
	if got := Entropy([]int{1, 1, 1, 1}); !almostEq(got, 2, 1e-12) {
		t.Errorf("Entropy uniform-4 = %v, want 2", got)
	}
}

func TestChiSquareIndependent(t *testing.T) {
	// Perfectly proportional table: chi2 = 0.
	chi2, df := ChiSquare([][]int{{10, 20}, {20, 40}})
	if !almostEq(chi2, 0, 1e-9) || df != 1 {
		t.Fatalf("chi2 = %v df = %d, want 0, 1", chi2, df)
	}
}

func TestChiSquareKnownValue(t *testing.T) {
	// Classic 2x2 example: [[10, 20], [30, 5]].
	// Totals: rows 30, 35; cols 40, 25; grand 65.
	chi2, df := ChiSquare([][]int{{10, 20}, {30, 5}})
	if df != 1 {
		t.Fatalf("df = %d, want 1", df)
	}
	// e11=30·40/65=18.4615, e12=11.5385, e21=21.5385, e22=13.4615;
	// (o-e)² = 71.598 in every cell, chi2 = 71.598·Σ1/e ≈ 18.726.
	if !almostEq(chi2, 18.726, 0.01) {
		t.Fatalf("chi2 = %v, want ≈18.726", chi2)
	}
}

func TestChiSquareDegenerate(t *testing.T) {
	if chi2, df := ChiSquare(nil); chi2 != 0 || df != 0 {
		t.Error("nil table must be 0,0")
	}
	if _, df := ChiSquare([][]int{{5, 5}}); df != 0 {
		t.Error("single-row table has no df")
	}
	if _, df := ChiSquare([][]int{{5, 0}, {3, 0}}); df != 0 {
		t.Error("single live column has no df")
	}
}

func TestChiSquarePValue(t *testing.T) {
	// Known quantiles: P(X >= 3.841 | df=1) = 0.05; P(X >= 6.635|1) = 0.01;
	// P(X >= 9.488 | df=4) = 0.05.
	cases := []struct {
		chi2 float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{6.635, 1, 0.01},
		{9.488, 4, 0.05},
		{18.467, 10, 0.0478}, // ≈0.048
	}
	for _, c := range cases {
		if got := ChiSquarePValue(c.chi2, c.df); !almostEq(got, c.want, 0.002) {
			t.Errorf("pvalue(%v, %d) = %v, want %v", c.chi2, c.df, got, c.want)
		}
	}
	if got := ChiSquarePValue(0, 3); got != 1 {
		t.Errorf("pvalue(0) = %v, want 1", got)
	}
	if got := ChiSquarePValue(5, 0); got != 1 {
		t.Errorf("pvalue(df=0) = %v, want 1", got)
	}
}

func TestChiSquarePValueMonotone(t *testing.T) {
	prev := 1.0
	for chi2 := 0.5; chi2 < 50; chi2 += 0.5 {
		p := ChiSquarePValue(chi2, 3)
		if p > prev+1e-12 {
			t.Fatalf("p-value not monotone at chi2=%v: %v > %v", chi2, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("p-value out of range: %v", p)
		}
		prev = p
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("Normalize = %v, want %v", got, want)
		}
	}
	if got := Normalize([]float64{3, 3, 3}); got[0] != 0 || got[1] != 0 {
		t.Error("constant slice must normalize to zeros")
	}
	if got := Normalize(nil); len(got) != 0 {
		t.Error("nil input must give empty output")
	}
}

func TestQuantileBins(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	cuts := QuantileBins(vals, 4)
	if len(cuts) != 3 {
		t.Fatalf("got %d cuts, want 3: %v", len(cuts), cuts)
	}
	if cuts[0] != 25 || cuts[1] != 50 || cuts[2] != 75 {
		t.Fatalf("cuts = %v", cuts)
	}
	// Ties collapse.
	tied := QuantileBins([]float64{1, 1, 1, 1, 1, 9}, 4)
	if len(tied) >= 4 {
		t.Fatalf("tied cuts not collapsed: %v", tied)
	}
	if QuantileBins(nil, 4) != nil {
		t.Error("nil values must give nil cuts")
	}
	if QuantileBins(vals, 1) != nil {
		t.Error("n<2 must give nil cuts")
	}
}

func TestBinIndex(t *testing.T) {
	cuts := []float64{10, 20, 30}
	cases := []struct {
		v    float64
		want int
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29.9, 2}, {30, 3}, {100, 3}, {-5, 0}}
	for _, c := range cases {
		if got := BinIndex(cuts, c.v); got != c.want {
			t.Errorf("BinIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := BinIndex(nil, 5); got != 0 {
		t.Errorf("BinIndex(nil) = %d, want 0", got)
	}
}

func TestQuickBinIndexConsistent(t *testing.T) {
	f := func(raw []float64, v float64) bool {
		cuts := QuantileBins(raw, 5)
		idx := BinIndex(cuts, v)
		if idx < 0 || idx > len(cuts) {
			return false
		}
		// v must be >= every cut below idx and < every cut at/after idx.
		for i := 0; i < idx; i++ {
			if v < cuts[i] {
				return false
			}
		}
		for i := idx; i < len(cuts); i++ {
			if v >= cuts[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) must be 0")
	}
	if Median([]float64{5, 1, 3}) != 3 {
		t.Error("odd Median wrong")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even Median wrong")
	}
	if Median(nil) != 0 {
		t.Error("Median(nil) must be 0")
	}
}

func TestGiniQuickBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		g := Gini(counts)
		return g >= 0 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
