// Package dtree implements the two decision-tree induction methods the
// paper uses to turn labeled experiment rows into selection rules:
//
//   - CART (Classification and Regression Trees): greedy binary splits on
//     continuous predictors chosen by Gini impurity reduction. The paper
//     found CART "more effective as the problem ... is basically that of
//     the prediction of category based on continuous or categorical
//     variables".
//   - CHAID (Chi-squared Automatic Interaction Detector): predictors are
//     quantile-binned, statistically indistinguishable adjacent categories
//     are merged pairwise, and the predictor with the smallest
//     Bonferroni-adjusted chi-squared p-value wins a multiway split.
//
// Both produce the same Tree type, which predicts, reports accuracy and
// confusion matrices, and can flatten itself into human-readable rules —
// the "rules generated" that the paper's inference engine consumes.
package dtree

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/srl-nuces/ctxdna/internal/stats"
)

// Dataset is a labeled table of continuous features.
type Dataset struct {
	FeatureNames []string
	ClassNames   []string
	X            [][]float64 // rows × features
	Y            []int       // class index per row
}

// Validate checks structural consistency.
func (ds Dataset) Validate() error {
	if len(ds.X) != len(ds.Y) {
		return fmt.Errorf("dtree: %d feature rows vs %d labels", len(ds.X), len(ds.Y))
	}
	for i, row := range ds.X {
		if len(row) != len(ds.FeatureNames) {
			return fmt.Errorf("dtree: row %d has %d features, want %d", i, len(row), len(ds.FeatureNames))
		}
	}
	for i, y := range ds.Y {
		if y < 0 || y >= len(ds.ClassNames) {
			return fmt.Errorf("dtree: row %d label %d outside classes", i, y)
		}
	}
	return nil
}

// Config bounds tree growth. Zero values select defaults.
type Config struct {
	MaxDepth        int     // default 6
	MinSamplesSplit int     // default 24
	MinSamplesLeaf  int     // default 8
	MinGain         float64 // CART: minimum Gini reduction (default 1e-4)
	Alpha           float64 // CHAID: split significance (default 0.05)
	MergeAlpha      float64 // CHAID: category-merge threshold (default 0.10)
	MaxBins         int     // CHAID: initial quantile bins (default 8)
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 6
	}
	if cfg.MinSamplesSplit == 0 {
		cfg.MinSamplesSplit = 24
	}
	if cfg.MinSamplesLeaf == 0 {
		cfg.MinSamplesLeaf = 8
	}
	if cfg.MinGain == 0 {
		cfg.MinGain = 1e-4
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.05
	}
	if cfg.MergeAlpha == 0 {
		cfg.MergeAlpha = 0.10
	}
	if cfg.MaxBins == 0 {
		cfg.MaxBins = 8
	}
	return cfg
}

// node is a tree node covering both methods: CART nodes have a threshold
// and exactly two children; CHAID nodes have bin cuts, a bin→child group
// mapping, and len(children) >= 2.
type node struct {
	leaf    bool
	class   int
	counts  []int
	feature int

	// CART
	threshold   float64
	left, right *node

	// CHAID
	cuts     []float64
	groups   []int // bin index -> child slot
	children []*node
}

// Tree is a trained classifier.
type Tree struct {
	Method       string // "cart" or "chaid"
	FeatureNames []string
	ClassNames   []string
	root         *node
}

// Predict returns the class index for a feature vector.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	for !n.leaf {
		if n.children != nil { // CHAID multiway
			bin := stats.BinIndex(n.cuts, x[n.feature])
			n = n.children[n.groups[bin]]
			continue
		}
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// PredictName returns the class name for a feature vector.
func (t *Tree) PredictName(x []float64) string {
	return t.ClassNames[t.Predict(x)]
}

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int { return countNodes(t.root) }

func countNodes(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	if n.children != nil {
		total := 1
		for _, c := range n.children {
			total += countNodes(c)
		}
		return total
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// Depth returns the maximum depth (a lone leaf has depth 1).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	best := 0
	if n.children != nil {
		for _, c := range n.children {
			if d := depthOf(c); d > best {
				best = d
			}
		}
	} else {
		best = depthOf(n.left)
		if d := depthOf(n.right); d > best {
			best = d
		}
	}
	return 1 + best
}

// Accuracy is matched/total on a dataset — the paper's metric.
func Accuracy(t *Tree, ds Dataset) float64 {
	if len(ds.Y) == 0 {
		return 0
	}
	hits := 0
	for i, row := range ds.X {
		if t.Predict(row) == ds.Y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(ds.Y))
}

func majority(counts []int) int {
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

func classCounts(ds Dataset, idx []int) []int {
	counts := make([]int, len(ds.ClassNames))
	for _, i := range idx {
		counts[ds.Y[i]]++
	}
	return counts
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// ---------- CART ----------

// TrainCART grows a binary Gini tree.
func TrainCART(ds Dataset, cfg Config) (*Tree, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if len(ds.Y) == 0 {
		return nil, fmt.Errorf("dtree: empty dataset")
	}
	cfg = cfg.withDefaults()
	idx := make([]int, len(ds.Y))
	for i := range idx {
		idx[i] = i
	}
	root := growCART(ds, cfg, idx, 1)
	return &Tree{Method: "cart", FeatureNames: ds.FeatureNames, ClassNames: ds.ClassNames, root: root}, nil
}

func leafNode(counts []int) *node {
	return &node{leaf: true, class: majority(counts), counts: counts}
}

func growCART(ds Dataset, cfg Config, idx []int, depth int) *node {
	counts := classCounts(ds, idx)
	if depth >= cfg.MaxDepth || len(idx) < cfg.MinSamplesSplit || pure(counts) {
		return leafNode(counts)
	}
	baseImp := stats.Gini(counts)
	bestGain := cfg.MinGain
	bestFeat := -1
	bestThr := 0.0
	nTotal := float64(len(idx))

	for f := range ds.FeatureNames {
		// Sort row indices by feature value, then scan split points.
		sorted := append([]int(nil), idx...)
		sort.Slice(sorted, func(a, b int) bool { return ds.X[sorted[a]][f] < ds.X[sorted[b]][f] })
		leftCounts := make([]int, len(ds.ClassNames))
		rightCounts := append([]int(nil), counts...)
		for i := 0; i < len(sorted)-1; i++ {
			y := ds.Y[sorted[i]]
			leftCounts[y]++
			rightCounts[y]--
			v, next := ds.X[sorted[i]][f], ds.X[sorted[i+1]][f]
			if v == next {
				continue // can't split between equal values
			}
			nLeft := i + 1
			nRight := len(sorted) - nLeft
			if nLeft < cfg.MinSamplesLeaf || nRight < cfg.MinSamplesLeaf {
				continue
			}
			gain := baseImp -
				(float64(float64(nLeft)*stats.Gini(leftCounts))+float64(float64(nRight)*stats.Gini(rightCounts)))/nTotal
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 {
		return leafNode(counts)
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if ds.X[i][bestFeat] <= bestThr {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThr,
		counts:    counts,
		class:     majority(counts),
		left:      growCART(ds, cfg, leftIdx, depth+1),
		right:     growCART(ds, cfg, rightIdx, depth+1),
	}
}

// ---------- CHAID ----------

// TrainCHAID grows a multiway chi-squared tree.
func TrainCHAID(ds Dataset, cfg Config) (*Tree, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if len(ds.Y) == 0 {
		return nil, fmt.Errorf("dtree: empty dataset")
	}
	cfg = cfg.withDefaults()
	idx := make([]int, len(ds.Y))
	for i := range idx {
		idx[i] = i
	}
	root := growCHAID(ds, cfg, idx, 1)
	return &Tree{Method: "chaid", FeatureNames: ds.FeatureNames, ClassNames: ds.ClassNames, root: root}, nil
}

// chaidSplit is a candidate multiway split of one feature.
type chaidSplit struct {
	feature  int
	cuts     []float64
	groups   []int // bin -> merged group
	nGroups  int
	adjP     float64
	children [][]int // row indices per group
}

func growCHAID(ds Dataset, cfg Config, idx []int, depth int) *node {
	counts := classCounts(ds, idx)
	if depth >= cfg.MaxDepth || len(idx) < cfg.MinSamplesSplit || pure(counts) {
		return leafNode(counts)
	}
	var best *chaidSplit
	for f := range ds.FeatureNames {
		sp := chaidCandidate(ds, cfg, idx, f)
		if sp == nil {
			continue
		}
		if best == nil || sp.adjP < best.adjP {
			best = sp
		}
	}
	if best == nil || best.adjP > cfg.Alpha {
		return leafNode(counts)
	}
	children := make([]*node, best.nGroups)
	for g := range children {
		children[g] = growCHAID(ds, cfg, best.children[g], depth+1)
	}
	return &node{
		feature:  best.feature,
		counts:   counts,
		class:    majority(counts),
		cuts:     best.cuts,
		groups:   best.groups,
		children: children,
	}
}

// chaidCandidate bins feature f, merges statistically similar adjacent
// categories, and returns the split with its Bonferroni-adjusted p-value.
func chaidCandidate(ds Dataset, cfg Config, idx []int, f int) *chaidSplit {
	values := make([]float64, len(idx))
	for i, r := range idx {
		values[i] = ds.X[r][f]
	}
	cuts := stats.QuantileBins(values, cfg.MaxBins)
	if len(cuts) == 0 {
		return nil // constant feature
	}
	nBins := len(cuts) + 1
	// Contingency table bin × class.
	table := make([][]int, nBins)
	for b := range table {
		table[b] = make([]int, len(ds.ClassNames))
	}
	binOf := make([]int, len(idx))
	for i, r := range idx {
		b := stats.BinIndex(cuts, ds.X[r][f])
		binOf[i] = b
		table[b][ds.Y[r]]++
	}
	// Merge adjacent categories while the most similar adjacent pair is
	// indistinguishable (p > MergeAlpha). groups[] maps bin -> group id,
	// with group ids kept contiguous and ordered.
	groups := make([]int, nBins)
	for b := range groups {
		groups[b] = b
	}
	groupTables := make([][]int, nBins)
	for g := range groupTables {
		groupTables[g] = append([]int(nil), table[g]...)
	}
	nGroups := nBins
	for nGroups > 2 {
		// Find most-similar adjacent pair.
		bestP := -1.0
		bestG := -1
		for g := 0; g < nGroups-1; g++ {
			chi2, df := stats.ChiSquare([][]int{groupTables[g], groupTables[g+1]})
			p := stats.ChiSquarePValue(chi2, df)
			if p > bestP {
				bestP = p
				bestG = g
			}
		}
		if bestP < cfg.MergeAlpha || bestG < 0 {
			break
		}
		// Merge group bestG+1 into bestG.
		for c := range groupTables[bestG] {
			groupTables[bestG][c] += groupTables[bestG+1][c]
		}
		groupTables = append(groupTables[:bestG+1], groupTables[bestG+2:]...)
		for b := range groups {
			if groups[b] > bestG {
				groups[b]--
			}
		}
		nGroups--
	}
	// Significance of the merged table.
	merged := make([][]int, nGroups)
	copy(merged, groupTables)
	chi2, df := stats.ChiSquare(merged)
	if df == 0 {
		return nil
	}
	p := stats.ChiSquarePValue(chi2, df)
	// Bonferroni adjustment: number of ways to reduce nBins categories to
	// nGroups contiguous groups is C(nBins-1, nGroups-1).
	adj := p * choose(nBins-1, nGroups-1)
	if adj > 1 {
		adj = 1
	}
	// Row indices per group, honoring MinSamplesLeaf.
	children := make([][]int, nGroups)
	for i, r := range idx {
		g := groups[binOf[i]]
		children[g] = append(children[g], r)
	}
	for _, ch := range children {
		if len(ch) < cfg.MinSamplesLeaf {
			return nil
		}
	}
	return &chaidSplit{feature: f, cuts: cuts, groups: groups, nGroups: nGroups, adjP: adj, children: children}
}

func choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

// ---------- rules ----------

// Condition is one predicate along a rule path.
type Condition struct {
	Feature int
	Low     float64 // inclusive lower bound (-Inf when unbounded)
	High    float64 // exclusive upper bound (+Inf when unbounded)
}

// Rule is a root-to-leaf path: all conditions conjoined imply the class.
type Rule struct {
	Conditions []Condition
	Class      int
	Support    int // training rows at the leaf
}

// Rules flattens the tree into an ordered rule list.
func (t *Tree) Rules() []Rule {
	var out []Rule
	var walk func(n *node, conds []Condition)
	walk = func(n *node, conds []Condition) {
		if n.leaf {
			support := 0
			for _, c := range n.counts {
				support += c
			}
			out = append(out, Rule{
				Conditions: append([]Condition(nil), conds...),
				Class:      n.class,
				Support:    support,
			})
			return
		}
		if n.children != nil {
			// CHAID: each group covers a bin interval union; since merges
			// are adjacent-only, every group covers one contiguous range.
			for g := range n.children {
				lo, hi := math.Inf(-1), math.Inf(1)
				first := true
				for b, bg := range n.groups {
					if bg != g {
						continue
					}
					blo, bhi := binBounds(n.cuts, b)
					if first {
						lo, hi = blo, bhi
						first = false
					} else {
						if blo < lo {
							lo = blo
						}
						if bhi > hi {
							hi = bhi
						}
					}
				}
				walk(n.children[g], append(conds, Condition{Feature: n.feature, Low: lo, High: hi}))
			}
			return
		}
		walk(n.left, append(conds, Condition{Feature: n.feature, Low: math.Inf(-1), High: n.threshold + 1e-300}))
		walk(n.right, append(conds, Condition{Feature: n.feature, Low: n.threshold, High: math.Inf(1)}))
	}
	walk(t.root, nil)
	return out
}

func binBounds(cuts []float64, b int) (float64, float64) {
	lo, hi := math.Inf(-1), math.Inf(1)
	if b > 0 {
		lo = cuts[b-1]
	}
	if b < len(cuts) {
		hi = cuts[b]
	}
	return lo, hi
}

// String renders the rule list compactly for logs and the CLI.
func (t *Tree) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s tree: %d nodes, depth %d\n", t.Method, t.NodeCount(), t.Depth())
	for _, r := range t.Rules() {
		sb.WriteString("  IF ")
		for i, c := range r.Conditions {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			name := t.FeatureNames[c.Feature]
			switch {
			case math.IsInf(c.Low, -1) && math.IsInf(c.High, 1):
				fmt.Fprintf(&sb, "%s=any", name)
			case math.IsInf(c.Low, -1):
				fmt.Fprintf(&sb, "%s < %.4g", name, c.High)
			case math.IsInf(c.High, 1):
				fmt.Fprintf(&sb, "%s >= %.4g", name, c.Low)
			default:
				fmt.Fprintf(&sb, "%.4g <= %s < %.4g", c.Low, name, c.High)
			}
		}
		if len(r.Conditions) == 0 {
			sb.WriteString("(always)")
		}
		fmt.Fprintf(&sb, " THEN %s (n=%d)\n", t.ClassNames[r.Class], r.Support)
	}
	return sb.String()
}
