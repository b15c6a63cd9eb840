package compresstest_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// TestPooledTablesConcurrent compresses six inputs of mixed sizes with the
// repeat-matching codecs, whose index tables come from a shared pool, on six
// goroutines at once, twice over so that tables pass between goroutines.
// Every payload and Stats value must equal a sequential run. The largest
// input has more positions than the pool keeps a table for.
func TestPooledTablesConcurrent(t *testing.T) {
	p := synth.Profile{GC: 0.42, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.3, MutationRate: 0.02}
	jobs := []struct {
		codec string
		bases int
	}{
		{"dnax", 1<<20 + 4096}, // above the pooled prev cap of 1<<20 positions
		{"dnax", 64 << 10},
		{"biocompress", 40 << 10},
		{"gencompress", 24 << 10},
		{"dnapack", 12 << 10},
		{"dnacompress", 30 << 10},
	}
	type result struct {
		payload []byte
		stats   compress.Stats
	}
	compressOne := func(k int) (result, error) {
		in := p
		in.Length = jobs[k].bases
		c, err := compress.New(jobs[k].codec)
		if err != nil {
			return result{}, err
		}
		payload, st, err := c.Compress(in.Generate(int64(100 + k)))
		return result{payload, st}, err
	}

	want := make([]result, len(jobs))
	for k := range jobs {
		r, err := compressOne(k)
		if err != nil {
			t.Fatalf("%s/%d: %v", jobs[k].codec, jobs[k].bases, err)
		}
		want[k] = r
	}

	const rounds = 2
	got := make([][rounds]result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for k := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				res, err := compressOne(k)
				if err != nil {
					errs[k] = fmt.Errorf("round %d: %w", r, err)
					return
				}
				got[k][r] = res
			}
		}()
	}
	wg.Wait()
	for k, job := range jobs {
		if errs[k] != nil {
			t.Fatalf("%s/%d: %v", job.codec, job.bases, errs[k])
		}
		for r := range rounds {
			if !bytes.Equal(got[k][r].payload, want[k].payload) || got[k][r].stats != want[k].stats {
				t.Errorf("%s/%d round %d: concurrent result differs from the sequential one", job.codec, job.bases, r)
			}
		}
	}
}
