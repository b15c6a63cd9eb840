package compresstest_test

import (
	"errors"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// TestOutOfAlphabetInRepeatRejected plants a byte above 3 inside a 200-base
// repeat, once in the repeat's anchor and once in its extension. Repeat
// anchors pack bases through their low two bits, so a codec that checks
// symbols only where it codes a literal copies such a byte as its source
// base and restores different bytes. Every codec must refuse the input with
// ErrCorrupt instead.
func TestOutOfAlphabetInRepeatRejected(t *testing.T) {
	base := synth.Profile{Length: 4000, GC: 0.45}.Generate(41)
	copy(base[3000:3200], base[1000:1200])
	for _, tc := range []struct {
		name string
		pos  int
	}{
		{"anchor", 3006},
		{"extension", 3100},
	} {
		src := append([]byte(nil), base...)
		src[tc.pos] += 4
		for _, name := range compress.Names() {
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Compress(src); !errors.Is(err, compress.ErrCorrupt) {
				t.Errorf("%s: byte %d in the repeat's %s: Compress error %v, want ErrCorrupt",
					name, src[tc.pos], tc.name, err)
			}
		}
	}
}
