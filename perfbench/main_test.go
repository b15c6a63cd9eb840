package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

var workloads = []string{"paper-small", "archive-range", "exchange"}

func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 7)
		c, _ := makePlan(w, 8)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave two different plans", w)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w)
		}
	}
}

// declared reads BENCHMARK.json's end_to_end and per_layer lists.
func declared(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	return e2e, layer
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := declared(t)
	for _, c := range []struct {
		kind          string
		printed, decl []metricDef
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layer}} {
		if len(c.printed) != len(c.decl) {
			t.Errorf("%s: the command prints %d metrics, BENCHMARK.json declares %d", c.kind, len(c.printed), len(c.decl))
			continue
		}
		for i := range c.printed {
			if c.printed[i] != c.decl[i] {
				t.Errorf("%s[%d]: printed %+v, declared %+v", c.kind, i, c.printed[i], c.decl[i])
			}
		}
	}
}

// TestSmoke runs each workload for a second, untraced and traced, and
// checks that nothing failed and every printed name is declared.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w, seed: 3, seconds: 1, trace: trace, model: "model.json"})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			decl := e2e
			if trace {
				decl = layer
			}
			units := map[string]string{}
			for _, d := range decl {
				units[d.name] = d.unit
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", w, trace, len(res.Metrics), len(decl))
			}
			for name, m := range res.Metrics {
				unit, ok := units[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %q is not declared in BENCHMARK.json", w, trace, name)
				case unit != m.Unit:
					t.Errorf("%s trace=%v: metric %q printed in %s, declared in %s", w, trace, name, m.Unit, unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %q is %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

func TestCheckRoutes(t *testing.T) {
	for _, c := range []struct {
		workload string
		routes   []string
		ok       bool
	}{
		{"paper-small", []string{"gencompress", "ctw", "ctw"}, true},
		{"paper-small", []string{"gencompress", "ctw", "ctw", "ctw", "ctw"}, false},
		{"paper-small", []string{"gencompress", "ctw", "dnax"}, false},
		{"exchange", []string{"dnax", "dnax"}, true},
		{"archive-range", []string{"dnax", "ctw"}, false},
	} {
		if err := checkRoutes(c.workload, c.routes); (err == nil) != c.ok {
			t.Errorf("checkRoutes(%s, %v) = %v, want ok=%v", c.workload, c.routes, err, c.ok)
		}
	}
}

func TestBalancedOrder(t *testing.T) {
	for _, n := range []int{1, 7, 24} {
		order := balancedOrder(rand.New(rand.NewSource(1)), n)
		seen := make([]bool, n)
		for i, s := range order {
			if seen[s] {
				t.Fatalf("n=%d: stratum %d listed twice in %v", n, s, order)
			}
			seen[s] = true
			if i%2 == 1 && s+order[i-1] != n-1 {
				t.Errorf("n=%d: strata %d and %d are paired", n, order[i-1], s)
			}
		}
		if len(order) != n {
			t.Errorf("n=%d: order has %d strata", n, len(order))
		}
	}
}

func TestCounterTotal(t *testing.T) {
	page := []byte(`# HELP dna_block_decoded_total Blocks decoded.
# TYPE dna_block_decoded_total counter
dna_block_decoded_total{codec="dnax"} 12
dna_block_decoded_total{codec="ctw"} 3
dna_block_decoded_total_extra 100
dna_block_sealed_total{codec="dnax"} 7
`)
	got, err := counterTotal(page, "dna_block_decoded_total")
	if err != nil || got != 15 {
		t.Errorf("counterTotal = %v, %v; want 15", got, err)
	}
	if _, err := counterTotal([]byte("dna_block_decoded_total x\n"), "dna_block_decoded_total"); err == nil {
		t.Error("counterTotal accepted a sample that is not a number")
	}
}
