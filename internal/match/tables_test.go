package match

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/synth"
)

// TestKeysAtMatchesPacking checks the rolling keys against packing afresh:
// for every k, over a query walk that repeats positions, steps by one and
// jumps both ways, keysAt(i) must equal packAt(i) and packRCAt(i).
func TestKeysAtMatchesPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(rng.Intn(4))
	}
	for k := 4; k <= 16; k++ {
		m := NewHashMatcher(data, WithK(k))
		i := 0
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				i++
			case r < 7: // the same position again
			default:
				i = rng.Intn(len(data))
			}
			if i > len(data)-k {
				i = 0
			}
			fwd, rc := m.keysAt(i)
			if want := m.packAt(i); fwd != want {
				t.Fatalf("k=%d step %d: forward key at %d is %#x, packAt %#x", k, step, i, fwd, want)
			}
			if want := m.packRCAt(i); rc != want {
				t.Fatalf("k=%d step %d: RC key at %d is %#x, packRCAt %#x", k, step, i, rc, want)
			}
		}
		m.Release()
	}
}

// parseResult is everything a one-pass parse learned from an index.
type parseResult struct {
	Matches []Match
	Anchors []int
	Stats   Stats
}

// parseHash drives m the way the codecs do: Advance, FindBest and the
// anchor walk at each position, jumping over long repeats.
func parseHash(m *HashMatcher, n int) parseResult {
	var r parseResult
	for i := 0; i < n; {
		m.Advance(i)
		m.ForEachForwardAnchor(i, func(j int) bool {
			r.Anchors = append(r.Anchors, j)
			return true
		})
		if mt, ok := m.FindBest(i); ok && mt.Len >= 20 {
			r.Matches = append(r.Matches, mt)
			i += mt.Len
			continue
		}
		i++
	}
	r.Stats = m.Stats()
	return r
}

func parseSpaced(x *SpacedIndex, n int) parseResult {
	var r parseResult
	for i := 0; i < n; i++ {
		x.Advance(i)
		x.ForEachAnchor(i, func(j int) bool {
			r.Anchors = append(r.Anchors, j)
			return true
		})
	}
	r.Stats = x.Stats()
	return r
}

// TestReleaseLeavesNoTrace runs an index over input B, then one over a
// longer input A that shares B's k-mers, releases it, and runs over B again
// on A's recycled tables: B's matches, anchors and Stats must be unchanged.
// A head entry left behind by A, or a prev link read before it is written,
// would show up as an extra or a wrong candidate.
func TestReleaseLeavesNoTrace(t *testing.T) {
	b := synth.Profile{Length: 6000, GC: 0.4, RepeatProb: 0.01, RepeatMin: 20, RepeatMax: 300, RCFraction: 0.3, MutationRate: 0.02}.Generate(3)
	a := append(append([]byte(nil), b[1000:]...), b...)
	seed, err := ParseSeed(PatternHunterSeed)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("HashMatcher", func(t *testing.T) {
		newM := func(data []byte) *HashMatcher { return NewHashMatcher(data, WithStride(2)) }
		mb := newM(b)
		want := parseHash(mb, len(b))
		mb.Release()
		mb.Release() // a second Release is a no-op
		reused := false
		for try := 0; try < 20 && !reused; try++ {
			ma := newM(a)
			parseHash(ma, len(a))
			tab := ma.chainTables
			ma.Release()
			mb := newM(b)
			reused = mb.chainTables == tab
			got := parseHash(mb, len(b))
			mb.Release()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("try %d: results over B changed after a Release over A", try)
			}
		}
		if !reused {
			t.Fatal("the pool never handed a released table back")
		}
	})

	t.Run("SpacedIndex", func(t *testing.T) {
		xb := NewSpacedIndex(b, seed, 16)
		want := parseSpaced(xb, len(b))
		xb.Release()
		reused := false
		for try := 0; try < 20 && !reused; try++ {
			xa := NewSpacedIndex(a, seed, 16)
			parseSpaced(xa, len(a))
			tab := xa.chainTables
			xa.Release()
			xb := NewSpacedIndex(b, seed, 16)
			reused = xb.chainTables == tab
			got := parseSpaced(xb, len(b))
			xb.Release()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("try %d: results over B changed after a Release over A", try)
			}
		}
		if !reused {
			t.Fatal("the pool never handed a released table back")
		}
	})
}

// TestReleaseClearsHeadAndCapsPrev pins what release hands back: an all-zero
// head of the fixed size, and prev only up to maxPooledPrev entries.
func TestReleaseClearsHeadAndCapsPrev(t *testing.T) {
	for _, n := range []int{1000, maxPooledPrev, maxPooledPrev + 1} {
		tab := newChainTables(n)
		if len(tab.prev) != n || len(tab.head) != 1<<tableBits {
			t.Fatalf("n=%d: tables sized %d/%d", n, len(tab.head), len(tab.prev))
		}
		for pos := 0; pos < n; pos += 7 {
			tab.insert(uint32(pos)%(1<<tableBits), pos)
		}
		tab.release()
		for h, v := range tab.head {
			if v != 0 {
				t.Fatalf("n=%d: head[%d] = %d after release", n, h, v)
			}
		}
		if pooled := tab.prev != nil; pooled != (n <= maxPooledPrev) {
			t.Fatalf("n=%d: prev pooled = %v, want %v", n, pooled, n <= maxPooledPrev)
		}
	}
}
