package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// outcomeClass folds a fleet read's error into what a caller branches on.
func outcomeClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotFound):
		return "notfound"
	case IsDegraded(err):
		return "degraded"
	default:
		return "other: " + err.Error()
	}
}

// clip is data[off:off+n], clipped to data's end.
func clip(data []byte, off, n int) []byte {
	lo := min(off, len(data))
	return data[lo : lo+min(n, len(data)-lo)]
}

// TestFleetGetRangeMatchesGet checks GetRange against Get on random fleets:
// 3 to 7 shards, replication 1 to 3, some shards failing every op
// transiently, one shard dead, and blobs written, overwritten and missing.
// A shard faults on every op or on none, so both reads meet the same
// failures whatever number of store ops each makes. Both must end in the
// same outcome class, and where both succeed GetRange's bytes must be
// Get's, clipped to the range.
func TestFleetGetRangeMatchesGet(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 3 + rng.Intn(5)
		specs := make([]ShardSpec, n)
		for i := range specs {
			specs[i] = ShardSpec{Name: fmt.Sprintf("s%d", i), FaultSeed: uint64(trial)}
			if rng.Intn(4) == 0 {
				specs[i].FaultRate = 1
			}
		}
		f, err := NewFleet(FleetConfig{Shards: specs, Replication: 1 + rng.Intn(3), Seed: uint64(trial),
			Clock: obs.NewFake(time.Unix(1700000000, 0).UTC()), Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		f.CreateContainer("c")
		for b := 0; b < 6; b++ {
			for v := 0; v <= rng.Intn(3); v++ {
				data := make([]byte, rng.Intn(3000))
				rng.Read(data)
				f.Put("c", fmt.Sprintf("b%d", b), data) // may fail: the blob may be missing
			}
		}
		f.Kill(specs[rng.Intn(n)].Name)
		for q := 0; q < 30; q++ {
			blob := fmt.Sprintf("b%d", rng.Intn(8)) // b6 and b7 were never written
			off, size := rng.Intn(3200), rng.Intn(1200)
			if q%5 == 0 {
				off = 0
			}
			whole, gerr := f.Get("c", blob)
			part, rerr := f.GetRange("c", blob, off, size)
			if outcomeClass(gerr) != outcomeClass(rerr) {
				t.Fatalf("trial %d: %s [%d, +%d): Get %v, GetRange %v", trial, blob, off, size, gerr, rerr)
			}
			if gerr == nil && !bytes.Equal(part, clip(whole, off, size)) {
				t.Fatalf("trial %d: %s [%d, +%d): GetRange returned %d bytes, not Get's", trial, blob, off, size, len(part))
			}
		}
	}
}

// TestFleetGetRangePinned: a ranged read returns the version it read; one
// pinned to it reads only that version, and fails with ErrVersionMoved,
// naming the newer version, once an overwrite replaced it. A stale replica
// first in preference order does not win against the read quorum.
func TestFleetGetRangePinned(t *testing.T) {
	f, _, _ := testFleet(t, 3, 3)
	f.CreateContainer("c")
	if err := f.Put("c", "b", []byte("version one")); err != nil {
		t.Fatal(err)
	}
	head, v1, err := f.GetRangeCtx(context.Background(), "c", "b", 0, 7, 0)
	if err != nil || string(head) != "version" || v1 == 0 {
		t.Fatalf("unpinned read: %q v%d %v", head, v1, err)
	}
	stale := f.Replicas("c", "b")[0]
	f.Kill(stale)
	if err := f.Put("c", "b", []byte("version two")); err != nil {
		t.Fatal(err)
	}
	f.Revive(stale)
	if _, v, err := f.GetRangeCtx(context.Background(), "c", "b", 8, 3, v1); !errors.Is(err, ErrVersionMoved) || v <= v1 {
		t.Fatalf("read pinned to an overwritten version: v%d %v, want ErrVersionMoved and a newer version", v, err)
	}
	_, v2, _ := f.GetRangeCtx(context.Background(), "c", "b", 0, 0, 0)
	if tail, v, err := f.GetRangeCtx(context.Background(), "c", "b", 8, 3, v2); err != nil || string(tail) != "two" || v != v2 {
		t.Fatalf("read pinned to the newest version: %q v%d %v", tail, v, err)
	}
}

// overwritingStore overwrites its blob between a ranged read's span and
// its second header read: the read is torn.
type overwritingStore struct {
	*BlobStore
	reads     int
	overwrite func()
}

func (s *overwritingStore) GetRange(container, blob string, off, n int) ([]byte, error) {
	b, err := s.BlobStore.GetRange(container, blob, off, n)
	if s.reads++; s.reads == 2 {
		s.overwrite()
	}
	return b, err
}

// TestFleetGetRangeTornReadMoves: a ranged read during which its only
// replica is overwritten cannot tell which version its span belongs to,
// so it fails with ErrVersionMoved, pinned or not, instead of returning
// the span.
func TestFleetGetRangeTornReadMoves(t *testing.T) {
	store := &overwritingStore{BlobStore: NewBlobStore()}
	f, err := NewFleet(FleetConfig{Shards: []ShardSpec{{Name: "s0", Store: store}}, Replication: 1,
		Clock: obs.NewFake(time.Unix(1700000000, 0).UTC()), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	f.CreateContainer("c")
	if err := f.Put("c", "b", []byte("version one")); err != nil {
		t.Fatal(err)
	}
	store.overwrite = func() {
		if err := f.Put("c", "b", []byte("version two")); err != nil {
			t.Error(err)
		}
	}
	if span, v, err := f.GetRangeCtx(context.Background(), "c", "b", 8, 3, 0); !errors.Is(err, ErrVersionMoved) {
		t.Fatalf("torn read: %q v%d %v, want ErrVersionMoved", span, v, err)
	}
}
