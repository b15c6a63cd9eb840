package main

import (
	"fmt"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
)

// probeInputs is how many of a workload's own inputs one codec probe
// iteration compresses.
const probeInputs = 6

// codecProbe measures one codec on a workload's own inputs with
// testing.Benchmark: ns, B and allocs per base or call, the payload's
// bits per base, and how the measured compress time compares with the
// modeled Stats.WorkNS the selector was trained on.
func codecProbe(codecName string, inputs [][]byte, vals map[string]float64) error {
	var bases, payloadBytes int
	var workNS int64
	payloads := make([][]byte, len(inputs))
	for i, in := range inputs {
		c, err := compress.New(codecName)
		if err != nil {
			return err
		}
		var st compress.Stats
		if payloads[i], st, err = c.Compress(in); err != nil {
			return fmt.Errorf("probe %s: %w", codecName, err)
		}
		bases += len(in)
		payloadBytes += len(payloads[i])
		workNS += st.WorkNS
	}
	var failure error
	comp := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for _, in := range inputs {
				c, _ := compress.New(codecName) // resolved above
				if _, _, err := c.Compress(in); err != nil {
					failure = err
				}
			}
		}
	})
	dec := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for i, payload := range payloads {
				c, _ := compress.New(codecName)
				out, _, err := c.Decompress(payload)
				if err != nil || len(out) != len(inputs[i]) {
					failure = fmt.Errorf("probe %s: restore of input %d failed: %v", codecName, i, err)
				}
			}
		}
	})
	if failure != nil {
		return failure
	}
	prefix := "compress." + codecName + "."
	vals[prefix+"compress_ns_per_base"] = float64(comp.NsPerOp()) / float64(bases)
	vals[prefix+"decompress_ns_per_base"] = float64(dec.NsPerOp()) / float64(bases)
	vals[prefix+"alloc_bytes_per_base"] = float64(comp.AllocedBytesPerOp()) / float64(bases)
	vals[prefix+"allocs_per_call"] = float64(comp.AllocsPerOp()) / float64(len(inputs))
	vals[prefix+"bits_per_base"] = 8 * float64(payloadBytes) / float64(bases)
	if workNS > 0 {
		vals[prefix+"model_ratio"] = float64(comp.NsPerOp()) / float64(workNS)
	}
	return nil
}

// blockProbe measures BlockCompressObserved's allocation per base on one
// workload input, with the default worker count.
func blockProbe(src []byte, vals map[string]float64) error {
	var failure error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, _, err := compress.BlockCompressObserved(nil, "dnax", src, compress.BlockOptions{BlockSize: blockSize}); err != nil {
				failure = err
			}
		}
	})
	if failure != nil {
		return fmt.Errorf("probe block compress: %w", failure)
	}
	vals["compress.block.alloc_bytes_per_base"] = float64(res.AllocedBytesPerOp()) / float64(len(src))
	return nil
}

// firstRouted returns up to probeInputs inputs the plan sends to codec,
// blockwise: each item contributes its first block.
func firstRouted(p *plan, routes []string, codecName string, wholeItems bool) [][]byte {
	var out [][]byte
	for i, it := range p.items {
		if len(out) == probeInputs {
			break
		}
		if routes[i%len(routes)] != codecName {
			continue
		}
		in := it.symbols
		if !wholeItems && len(in) > blockSize {
			in = in[:blockSize]
		}
		out = append(out, in)
	}
	return out
}
