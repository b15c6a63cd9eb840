package experiment

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// stubCodec is a trivial length-prefixed store codec for concurrency tests:
// delay simulates slow compression, fail forces the error path.
type stubCodec struct {
	name  string
	delay time.Duration
	fail  bool
}

func (s stubCodec) Name() string { return s.name }

func (s stubCodec) Compress(src []byte) ([]byte, compress.Stats, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if s.fail {
		return nil, compress.Stats{}, errors.New("stub failure")
	}
	out := binary.AppendUvarint(nil, uint64(len(src)))
	return append(out, src...), compress.Stats{WorkNS: 1000, PeakMem: 1024}, nil
}

func (s stubCodec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return s.DecompressTo(nil, data)
}

func (s stubCodec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || int(n) != len(data)-k {
		return nil, compress.Stats{}, compress.ErrCorrupt
	}
	return append(dst[:0], data[k:]...), compress.Stats{WorkNS: 1000, PeakMem: 1024}, nil
}

func init() {
	compress.Register("teststub", func() compress.Codec { return stubCodec{name: "teststub"} })
	compress.Register("testslow", func() compress.Codec { return stubCodec{name: "testslow", delay: 30 * time.Millisecond} })
	compress.Register("testfail", func() compress.Codec { return stubCodec{name: "testfail", fail: true} })
}

// equivCorpus is small enough that the full sequential/parallel comparison
// across three jobs settings stays fast even with GenCompress in the mix.
func equivCorpus() []synth.File {
	return synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 6, MinSize: 2 << 10, MaxSize: 24 << 10, Seed: 11})
}

// TestParallelMatchesSequential is the determinism contract: RunGrid at
// jobs ∈ {1, 2, 8} must reproduce the sequential grid exactly — rows,
// measurements, labels, and the CSV export byte for byte.
func TestParallelMatchesSequential(t *testing.T) {
	files := equivCorpus()
	ctxs := cloud.Grid()[:6]
	want, err := Run(files, ctxs, paperCodecs, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	wantLabels := want.Labels(core.TimeOnlyWeights())

	for _, jobs := range []int{1, 2, 8} {
		got, _, err := RunGrid(context.Background(), files, ctxs, paperCodecs, DefaultNoise(), RunConfig{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d: grid differs from sequential Run", jobs)
		}
		if labels := got.Labels(core.TimeOnlyWeights()); !reflect.DeepEqual(labels, wantLabels) {
			t.Errorf("jobs=%d: labels differ", jobs)
		}
		var gotCSV bytes.Buffer
		if err := got.WriteCSV(&gotCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
			t.Errorf("jobs=%d: CSV export not byte-identical (%d vs %d bytes)",
				jobs, gotCSV.Len(), wantCSV.Len())
		}
	}
}

// TestParallelCacheEquivalence proves a warm cache changes nothing but the
// work done: both the cold and the fully-cached run reproduce the
// sequential grid, and the second sweep is all hits.
func TestParallelCacheEquivalence(t *testing.T) {
	files := equivCorpus()
	ctxs := cloud.Grid()[:4]
	want, err := Run(files, ctxs, paperCodecs, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	cache := compress.NewCache()
	cold, _, err := RunGrid(context.Background(), files, ctxs, paperCodecs, DefaultNoise(), RunConfig{Jobs: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Error("cold cached run differs from sequential Run")
	}
	if hits, misses := cache.Counters(); hits != 0 || misses != uint64(len(files)*len(paperCodecs)) {
		t.Fatalf("cold run: %d hits, %d misses, want 0 and %d", hits, misses, len(files)*len(paperCodecs))
	}
	warm, _, err := RunGrid(context.Background(), files, ctxs, paperCodecs, DefaultNoise(), RunConfig{Jobs: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Error("warm cached run differs from sequential Run")
	}
	if hits, _ := cache.Counters(); hits != uint64(len(files)*len(paperCodecs)) {
		t.Errorf("warm run: %d hits, want %d", hits, len(files)*len(paperCodecs))
	}
}

// TestParallelErrorAttribution: a codec failing on a file must surface one
// aggregated error that names both, with the typed failures reachable via
// errors.As.
func TestParallelErrorAttribution(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 4, MinSize: 1024, MaxSize: 2048, Seed: 3})
	for _, jobs := range []int{1, 4} {
		_, _, err := RunGrid(context.Background(), files, cloud.Grid()[:2], []string{"teststub", "testfail"}, DefaultNoise(), RunConfig{Jobs: jobs})
		if err == nil {
			t.Fatalf("jobs=%d: failing codec produced no error", jobs)
		}
		var runErrs RunErrors
		if !errors.As(err, &runErrs) || len(runErrs) == 0 {
			t.Fatalf("jobs=%d: error is %T, want RunErrors", jobs, err)
		}
		for _, re := range runErrs {
			if re.Codec != "testfail" {
				t.Errorf("jobs=%d: blamed codec %q, want testfail", jobs, re.Codec)
			}
			if !strings.HasPrefix(re.File, "synth") {
				t.Errorf("jobs=%d: blamed file %q, want a corpus file", jobs, re.File)
			}
		}
		if msg := err.Error(); !strings.Contains(msg, "testfail") || !strings.Contains(msg, "synth") {
			t.Errorf("jobs=%d: aggregated message %q lacks file/codec attribution", jobs, msg)
		}
		var one *RunError
		if !errors.As(err, &one) {
			t.Errorf("jobs=%d: errors.As cannot reach *RunError", jobs)
		}
	}
}

// TestParallelCancellation: a canceled context aborts the grid long before
// the sequential cost, returns ctx.Err(), and leaves no worker goroutines
// behind.
func TestParallelCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	// 64 one-KB files through a 30 ms/run codec = ~1.9 s sequential.
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 64, MinSize: 1024, MaxSize: 1024, Seed: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	g, _, err := RunGrid(ctx, files, cloud.Grid()[:2], []string{"testslow"}, DefaultNoise(), RunConfig{Jobs: 4})
	elapsed := time.Since(start)
	if g != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: grid=%v err=%v, want nil grid and context.Canceled", g != nil, err)
	}
	if elapsed > time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}

	// The failing-codec path also cancels internally; neither may leak.
	if _, _, err := RunGrid(context.Background(), files[:8], cloud.Grid()[:2], []string{"testfail"}, DefaultNoise(), RunConfig{Jobs: 4}); err == nil {
		t.Fatal("failing codec produced no error")
	}

	// Workers are joined before RunGrid returns, so the goroutine count
	// settles back to the baseline (give the runtime a moment to reap).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestPartialGridDegradation is the graceful-degradation acceptance test: a
// Partial build over an always-failing codec still yields labeled rows for
// every other codec, and the failures name every (file, codec) slot.
func TestPartialGridDegradation(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 4, MinSize: 1024, MaxSize: 2048, Seed: 3})
	ctxs := cloud.Grid()[:3]
	for _, jobs := range []int{1, 4} {
		g, failed, err := RunGrid(context.Background(), files, ctxs, []string{"teststub", "testfail"}, DefaultNoise(),
			RunConfig{Jobs: jobs, Partial: true})
		if err != nil {
			t.Fatalf("jobs=%d: partial build failed outright: %v", jobs, err)
		}
		if len(failed) != len(files) {
			t.Fatalf("jobs=%d: %d failed slots, want one per file", jobs, len(failed))
		}
		seen := map[string]bool{}
		for _, re := range failed {
			if re.Codec != "testfail" {
				t.Errorf("jobs=%d: blamed codec %q, want testfail", jobs, re.Codec)
			}
			seen[re.File] = true
		}
		if len(seen) != len(files) {
			t.Errorf("jobs=%d: failures name %d distinct files, want %d", jobs, len(seen), len(files))
		}
		if len(g.Files) != len(files) {
			t.Fatalf("jobs=%d: %d surviving files, want all %d (teststub succeeded)", jobs, len(g.Files), len(files))
		}
		for _, fr := range g.Files {
			if len(fr.Runs) != 1 || fr.Runs[0].Codec != "teststub" {
				t.Fatalf("jobs=%d: %s runs = %+v, want only teststub", jobs, fr.Name, fr.Runs)
			}
		}
		if want := len(files) * len(ctxs); len(g.Rows) != want {
			t.Fatalf("jobs=%d: %d rows, want %d", jobs, len(g.Rows), want)
		}
		for i, l := range g.Labels(core.TimeOnlyWeights()) {
			if l != "teststub" {
				t.Fatalf("jobs=%d: row %d labeled %q, want the surviving codec", jobs, i, l)
			}
		}
	}
}

// TestPartialGridAllFail: when every slot fails even Partial mode has no
// grid to return, and the error still carries the typed failures.
func TestPartialGridAllFail(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 2, MinSize: 1024, MaxSize: 1024, Seed: 4})
	g, failed, err := RunGrid(context.Background(), files, cloud.Grid()[:2], []string{"testfail"}, DefaultNoise(),
		RunConfig{Jobs: 2, Partial: true})
	if g != nil || err == nil {
		t.Fatalf("all-fail partial build: grid=%v err=%v, want nil grid and error", g != nil, err)
	}
	if len(failed) != len(files) {
		t.Fatalf("%d failed slots, want %d", len(failed), len(files))
	}
	var one *RunError
	if !errors.As(err, &one) {
		t.Error("errors.As cannot reach *RunError from the all-fail error")
	}
}

// TestPartialStrictEquivalence: with no failures, Partial and strict builds
// are identical — degradation has no effect on the healthy path.
func TestPartialStrictEquivalence(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 3, MinSize: 1024, MaxSize: 4096, Seed: 6})
	ctxs := cloud.Grid()[:2]
	strict, failedS, errS := RunGrid(context.Background(), files, ctxs, []string{"teststub"}, DefaultNoise(), RunConfig{Jobs: 2})
	partial, failedP, errP := RunGrid(context.Background(), files, ctxs, []string{"teststub"}, DefaultNoise(), RunConfig{Jobs: 2, Partial: true})
	if errS != nil || errP != nil || len(failedS) != 0 || len(failedP) != 0 {
		t.Fatalf("healthy builds errored: %v / %v (%d / %d failed)", errS, errP, len(failedS), len(failedP))
	}
	if !reflect.DeepEqual(strict, partial) {
		t.Error("Partial mode changed a failure-free grid")
	}
}

// TestExternalCancelBeatsRunErrors pins the cancellation/failure race: a
// caller that cancelled its own context must see context.Canceled, not the
// RunErrors that failing workers raced in during teardown.
func TestExternalCancelBeatsRunErrors(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 8, MinSize: 1024, MaxSize: 1024, Seed: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// testfail guarantees RunErrors exist in the same teardown; the caller's
	// cancellation must still win.
	g, failed, err := RunGrid(ctx, files, cloud.Grid()[:2], []string{"testfail"}, DefaultNoise(), RunConfig{Jobs: 4})
	if g != nil || failed != nil {
		t.Fatalf("cancelled run returned grid=%v failed=%d", g != nil, len(failed))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled to beat RunErrors", err)
	}
	var runErrs RunErrors
	if errors.As(err, &runErrs) {
		t.Error("cancelled run leaked RunErrors through the error chain")
	}
}

// TestParallelRejectsBadInput mirrors TestRunRejectsEmpty on the parallel
// entry point, including up-front unknown-codec validation.
func TestParallelRejectsBadInput(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 1, MinSize: 1024, MaxSize: 1024, Seed: 1})
	ctx := context.Background()
	if _, _, err := RunGrid(ctx, nil, cloud.Grid(), paperCodecs, DefaultNoise(), RunConfig{Jobs: 4}); err == nil {
		t.Error("empty files accepted")
	}
	if _, _, err := RunGrid(ctx, files, nil, paperCodecs, DefaultNoise(), RunConfig{Jobs: 4}); err == nil {
		t.Error("empty contexts accepted")
	}
	if _, _, err := RunGrid(ctx, files, cloud.Grid(), nil, DefaultNoise(), RunConfig{Jobs: 4}); err == nil {
		t.Error("empty codecs accepted")
	}
	if _, _, err := RunGrid(ctx, files, cloud.Grid(), []string{"nope"}, DefaultNoise(), RunConfig{Jobs: 4}); err == nil {
		t.Error("unknown codec accepted")
	}
	// jobs <= 0 falls back to GOMAXPROCS rather than deadlocking.
	if _, _, err := RunGrid(ctx, files, cloud.Grid()[:1], []string{"teststub"}, DefaultNoise(), RunConfig{Jobs: 0}); err != nil {
		t.Errorf("jobs=0: %v", err)
	}
}
