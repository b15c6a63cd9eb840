package serve

import (
	"context"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// TestRunLoadAccountsEveryRequest is the issue's load-harness criterion:
// a bounded, deterministic run completes with zero dropped-but-unreported
// requests (the accounting invariant RunLoad enforces), zero round-trip
// mismatches, and latency histograms published on the registry.
func TestRunLoadAccountsEveryRequest(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{})

	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:     ts.URL,
		Units:       24,
		Concurrency: 4,
		Seed:        1,
		MinBases:    256,
		MaxBases:    2048,
		Registry:    reg,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Units != 24 {
		t.Errorf("units = %d, want 24", rep.Units)
	}
	if rep.Completed+rep.Rejected+rep.Failed != rep.Calls {
		t.Fatalf("accounting broken: %d+%d+%d != %d", rep.Completed, rep.Rejected, rep.Failed, rep.Calls)
	}
	if rep.Failed != 0 {
		t.Errorf("failed calls against an idle server: %d (%v)", rep.Failed, rep.Errors)
	}
	if rep.Mismatches != 0 {
		t.Errorf("round-trip mismatches: %d (%v)", rep.Mismatches, rep.Errors)
	}
	if rep.Latency.Calls != rep.Calls || rep.Latency.MaxMS < rep.Latency.P50MS {
		t.Errorf("latency summary inconsistent: %+v", rep.Latency)
	}
	if n := reg.Histogram("dna_loadgen_latency_ms", "", obs.DefMSBuckets()).Count(); n != uint64(rep.Calls) {
		t.Errorf("latency histogram holds %d observations, want %d", n, rep.Calls)
	}
	done := reg.Counter("dna_loadgen_calls_total", "", "outcome", "completed").Value()
	if done != uint64(rep.Completed) {
		t.Errorf("completed counter = %d, want %d", done, rep.Completed)
	}
}

// TestRunLoadAccountsCanceledRun: a run whose ctx is done before any unit
// starts still returns its report, each unit booked as one failed call,
// and the accounting invariant holds.
func TestRunLoadAccountsCanceledRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	rep, err := RunLoad(ctx, LoadOptions{
		BaseURL:     ts.URL,
		Units:       24,
		Concurrency: 4,
		Seed:        1,
		MinBases:    256,
		MaxBases:    2048,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("RunLoad with a canceled ctx: %v", err)
	}
	if rep.Completed+rep.Rejected+rep.Failed != rep.Calls {
		t.Fatalf("accounting broken: %d+%d+%d != %d", rep.Completed, rep.Rejected, rep.Failed, rep.Calls)
	}
	if rep.Failed != rep.Units {
		t.Errorf("failed = %d, want one per unit (%d)", rep.Failed, rep.Units)
	}
}

// TestRunLoadReportsBackpressure: against a starved server (one worker, a
// one-slot queue, heavy concurrency), rejections surface as Rejected in
// the report — never as silent drops — and the invariant still holds.
func TestRunLoadReportsBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:     ts.URL,
		Units:       32,
		Concurrency: 16,
		Seed:        2,
		MinBases:    256,
		MaxBases:    1024,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Completed+rep.Rejected+rep.Failed != rep.Calls {
		t.Fatalf("accounting broken: %d+%d+%d != %d", rep.Completed, rep.Rejected, rep.Failed, rep.Calls)
	}
	if rep.Failed != 0 {
		t.Errorf("unexpected hard failures: %d (%v)", rep.Failed, rep.Errors)
	}
	if rep.Mismatches != 0 {
		t.Errorf("mismatches under load: %d (%v)", rep.Mismatches, rep.Errors)
	}
}

// TestRunLoadPlanIsDeterministic: the same seed generates the same plan —
// request bodies, contexts and range probes — regardless of concurrency.
func TestRunLoadPlanIsDeterministic(t *testing.T) {
	opts := LoadOptions{Units: 10, Seed: 5, MinBases: 300, MaxBases: 600, RangeEvery: 3, Concurrency: 1}
	a, b := planUnits(opts), planUnits(opts)
	if len(a) != len(b) {
		t.Fatal("plan lengths differ")
	}
	for i := range a {
		if string(a[i].body) != string(b[i].body) || a[i].ctx != b[i].ctx ||
			a[i].ranged != b[i].ranged || a[i].off != b[i].off || a[i].n != b[i].n {
			t.Fatalf("plan unit %d differs between identical seeds", i)
		}
	}
}
