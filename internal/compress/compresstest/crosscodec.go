package compresstest

import (
	"context"
	"strings"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// DegenerateCase is one raw ASCII input for the cross-codec suite: text a
// real pipeline sees before cleansing — mixed case, IUPAC ambiguity codes
// (N runs above all), FASTA furniture, numbering.
type DegenerateCase struct {
	Name string
	Raw  []byte
}

// DegenerateCases returns the shared table of degenerate inputs. Every case
// cleanses to a valid (possibly empty) symbol sequence via seq.Clean, the
// same path cmd/dnacomp feeds codecs through.
func DegenerateCases() []DegenerateCase {
	return []DegenerateCase{
		{"MixedCase", []byte(strings.Repeat("acgtACGTgGcCaAtT", 256))},
		{"LowercaseOnly", []byte(strings.Repeat("gattaca", 400))},
		{"NRuns", []byte("ACGT" + strings.Repeat("N", 500) + strings.Repeat("acgt", 300) + strings.Repeat("n", 200) + "TTTT")},
		{"IUPACMix", []byte(strings.Repeat("ACRYSWKMGTbdhv", 200))},
		{"FASTAFurniture", []byte(">seq1 test record\n" + strings.Repeat("ACGTacgtNNNN\n", 150) + ">seq2\n" + strings.Repeat("ggccttaa\n", 100))},
		{"NumberedLines", []byte(strings.Repeat("  1 acgtn ACGTN 42\r\n", 120))},
		{"AllAmbiguous", []byte(strings.Repeat("NRYSWKM", 64))}, // cleanses to empty
	}
}

// CrossCodecParallel cleanses every degenerate case and round-trips every
// named codec over the resulting corpus through the parallel experiment
// harness, which verifies byte-exact reconstruction per (file, codec) run.
func CrossCodecParallel(t *testing.T, names []string, jobs int) {
	t.Helper()
	if len(names) == 0 {
		t.Fatal("no codecs registered")
	}
	var files []synth.File
	for _, dc := range DegenerateCases() {
		symbols, st := seq.Clean(dc.Raw)
		if !seq.Valid(symbols) {
			t.Fatalf("%s: cleanser emitted invalid symbols", dc.Name)
		}
		if st.Kept != len(symbols) {
			t.Fatalf("%s: cleanser kept %d but emitted %d", dc.Name, st.Kept, len(symbols))
		}
		files = append(files, synth.File{Name: dc.Name, Data: symbols})
	}
	contexts := cloud.Grid()[:2]
	g, _, err := experiment.RunGrid(context.Background(), files, contexts, names, experiment.DefaultNoise(), experiment.RunConfig{Jobs: jobs})
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	if len(g.Rows) != len(files)*len(contexts) {
		t.Fatalf("jobs=%d: %d rows, want %d", jobs, len(g.Rows), len(files)*len(contexts))
	}
	for _, row := range g.Rows {
		if len(row.Measurements) != len(names) {
			t.Fatalf("jobs=%d: row %s has %d measurements, want %d", jobs, row.FileName, len(row.Measurements), len(names))
		}
		for i, m := range row.Measurements {
			if m.Codec != names[i] {
				t.Fatalf("jobs=%d: row %s codec order %q != %q", jobs, row.FileName, m.Codec, names[i])
			}
		}
	}

	// The harness verified reconstruction internally; additionally round-trip
	// each codec directly on the gnarliest non-empty case to pin the helper
	// path too.
	gnarly, _ := seq.Clean(DegenerateCases()[2].Raw) // NRuns
	for _, name := range names {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		RoundTrip(t, c, gnarly)
	}
}
