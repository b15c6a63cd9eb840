package cloud

import (
	"bytes"
	"context"
	"encoding/binary"
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

// TestFleetPinnedReadsMatchQuorumRead checks pinned ranged reads, which
// take the span from one replica and only version headers from the rest
// of the quorum, against unpinned ones on random fleets: 3 to 7 shards,
// replication 1 to 3, some shards failing every op transiently and one
// shard dead. An overwrite runs with one of the blob's replicas killed,
// revived after it, so a stale replica can lead the preference order.
// Each read is pinned to the version an unpinned read just returned,
// sometimes with an overwrite in between. A pinned read that succeeds
// returns that version's window, as a full unpinned read recorded it, and
// an unpinned read after it agrees; one that fails with ErrVersionMoved
// does so only when an unpinned read now sees a newer version; any other
// outcome class is the unpinned read's.
func TestFleetPinnedReadsMatchQuorumRead(t *testing.T) {
	ctx := context.Background()
	var served, moved, staleLed int
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
		dead := specs[rng.Intn(n)].Name
		f.Kill(dead)
		// versions[blob][v] is version v of blob as a full unpinned read
		// returned it.
		versions := map[string]map[uint64][]byte{}
		record := func(blob string) {
			whole, v, err := f.GetRangeCtx(ctx, "c", blob, 0, 4000, 0)
			if err != nil {
				return
			}
			if versions[blob] == nil {
				versions[blob] = map[uint64][]byte{}
			}
			if old, ok := versions[blob][v]; ok && !bytes.Equal(old, whole) {
				t.Fatalf("trial %d: %s v%d read as two contents", trial, blob, v)
			}
			versions[blob][v] = whole
		}
		// overwrite writes blob anew with one of its live replicas killed
		// for the write, and reports whether that replica leads the blob's
		// preference order.
		overwrite := func(blob string) bool {
			reps := f.Replicas("c", blob)
			stale := reps[rng.Intn(len(reps))]
			if stale != dead {
				f.Kill(stale)
				defer f.Revive(stale)
			}
			data := make([]byte, rng.Intn(3000))
			rng.Read(data)
			f.Put("c", blob, data) // may fail: the blob keeps its old version
			return stale != dead && stale == reps[0]
		}
		for b := 0; b < 6; b++ {
			blob := fmt.Sprintf("b%d", b)
			for v := 0; v <= rng.Intn(3); v++ {
				overwrite(blob)
			}
			record(blob)
		}
		for q := 0; q < 30; q++ {
			blob := fmt.Sprintf("b%d", rng.Intn(7)) // b6 was never written
			off, size := rng.Intn(3200), rng.Intn(1200)
			if q%5 == 0 {
				off = 0
			}
			_, pin, err := f.GetRangeCtx(ctx, "c", blob, off, size, 0)
			if err != nil {
				continue
			}
			led := false
			if rng.Intn(3) == 0 {
				led = overwrite(blob)
				record(blob)
			}
			part, v, perr := f.GetRangeCtx(ctx, "c", blob, off, size, pin)
			now, nowV, nerr := f.GetRangeCtx(ctx, "c", blob, off, size, 0)
			switch {
			case errors.Is(perr, ErrVersionMoved):
				moved++
				if nerr != nil || nowV <= pin {
					t.Fatalf("trial %d: %s pinned to v%d moved, but an unpinned read now gives v%d %v", trial, blob, pin, nowV, nerr)
				}
			case perr == nil:
				served++
				if led {
					staleLed++
				}
				want, ok := versions[blob][pin]
				if v != pin || !ok || !bytes.Equal(part, clip(want, off, size)) {
					t.Fatalf("trial %d: %s [%d, +%d) pinned to v%d: read v%d, %d bytes, not the version's window", trial, blob, off, size, pin, v, len(part))
				}
				if nerr != nil || nowV != pin || !bytes.Equal(now, part) {
					t.Fatalf("trial %d: %s pinned to v%d served, but an unpinned read now gives v%d %v", trial, blob, pin, nowV, nerr)
				}
			case outcomeClass(perr) != outcomeClass(nerr):
				t.Fatalf("trial %d: %s [%d, +%d) pinned to v%d: %v, unpinned %v", trial, blob, off, size, pin, perr, nerr)
			}
		}
	}
	if served == 0 || moved == 0 || staleLed == 0 {
		t.Errorf("pinned reads served %d (%d after a stale replica took the lead), moved %d: want each above 0", served, staleLed, moved)
	}
}

// readWhole reads one replica's whole version envelope.
func readWhole(blob string) func(Store) (replicaRead, error, error) {
	return func(st Store) (replicaRead, error, error) {
		env, err := st.Get("c", blob)
		if err != nil {
			return replicaRead{}, nil, err
		}
		ver, payload, perr := openVersion(env)
		return replicaRead{ver: ver, data: payload, moved: len(env)}, perr, nil
	}
}

// referenceRead is a quorum read that reads every replica it tries in
// full: the loop every fleet read ran before reads took their bytes from
// one replica. It tries the same replicas through the same shard ops, in
// preference order, until a read quorum answers, and the newest version
// wins, an untorn read of it over a torn one.
func referenceRead(f *Fleet, blob string, pin uint64, read func(Store) (replicaRead, error, error)) (replicaRead, error) {
	var best replicaRead
	var successes, misses, failures int
	for _, sh := range f.replicaShards("c", blob) {
		var (
			rr     replicaRead
			envErr error
		)
		err := f.shardOp(sh, "reference", 0, func(st Store) error {
			var serr error
			rr, envErr, serr = read(st)
			return serr
		})
		switch {
		case err == nil && envErr != nil:
			failures++
		case err == nil:
			if successes++; successes == 1 || rr.ver > best.ver || rr.ver == best.ver && best.torn {
				best = rr
			}
		case errors.Is(err, ErrNotFound):
			misses++
		default:
			failures++
		}
		if successes >= f.cfg.ReadQuorum {
			break
		}
	}
	switch {
	case successes > 0 && (best.torn || pin != 0 && best.ver != pin):
		return replicaRead{ver: best.ver}, ErrVersionMoved
	case successes > 0:
		return best, nil
	case misses >= f.cfg.ReadQuorum, failures == 0:
		return replicaRead{}, ErrNotFound
	default:
		return replicaRead{}, &DegradedError{Op: "reference", Blob: blob}
	}
}

// readClass is outcomeClass with a moved version told apart.
func readClass(err error) string {
	if errors.Is(err, ErrVersionMoved) {
		return "moved"
	}
	return outcomeClass(err)
}

// countingStore is a shard store that totals the bytes its reads return.
type countingStore struct {
	*BlobStore
	moved *int
}

func (s countingStore) Get(container, blob string) ([]byte, error) {
	b, err := s.BlobStore.Get(container, blob)
	*s.moved += len(b)
	return b, err
}

func (s countingStore) GetRange(container, blob string, off, n int) ([]byte, error) {
	b, err := s.BlobStore.GetRange(container, blob, off, n)
	*s.moved += len(b)
	return b, err
}

// TestFleetReadsMatchReference checks every quorum read, which takes its
// bytes from one replica and only version headers from the rest, against
// referenceRead on random fleets built as
// TestFleetPinnedReadsMatchQuorumRead builds them: 3 to 7 shards,
// replication 1 to 3, some shards failing every op and one shard dead,
// and one replica killed during each overwrite and revived after it, so a
// stale replica can lead. A whole Get, an unpinned GetRange and a GetRange
// pinned to the version the unpinned one returned (sometimes with an
// overwrite in between) must each return the reference's bytes, version
// and outcome class. A shard fails every op or none, so both reads meet
// the same failures whatever number of store ops each makes. With no
// stale replica, a whole Get of an N-byte blob makes the stores return N
// bytes, its envelope header, and at most a version header from each
// other replica of the quorum.
func TestFleetReadsMatchReference(t *testing.T) {
	ctx := context.Background()
	var promoted, bounded int
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 3 + rng.Intn(5)
		moved := 0
		specs := make([]ShardSpec, n)
		for i := range specs {
			specs[i] = ShardSpec{Name: fmt.Sprintf("s%d", i), FaultSeed: uint64(trial), Store: countingStore{NewBlobStore(), &moved}}
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
		dead := specs[rng.Intn(n)].Name
		f.Kill(dead)
		overwrite := func(blob string) {
			reps := f.Replicas("c", blob)
			if stale := reps[rng.Intn(len(reps))]; stale != dead {
				f.Kill(stale)
				defer f.Revive(stale)
			}
			data := make([]byte, rng.Intn(3000))
			rng.Read(data)
			f.Put("c", blob, data) // may fail: the blob keeps its old version
		}
		// stale reports whether the replicas of blob a read can reach hold
		// different versions, a missing blob as version 0.
		stale := func(blob string) bool {
			vers := map[uint64]bool{}
			for _, sh := range f.replicaShards("c", blob) {
				if sh.down.Load() || sh.spec.FaultRate > 0 {
					continue
				}
				rr, _, _ := readWhole(blob)(sh.spec.Store)
				vers[rr.ver] = true
			}
			return len(vers) > 1
		}
		check := func(what, blob string, got []byte, gotV uint64, gerr error, want replicaRead, werr error) {
			t.Helper()
			if readClass(gerr) != readClass(werr) || gotV != want.ver || !bytes.Equal(got, want.data) {
				t.Fatalf("trial %d: %s of %s: v%d, %d bytes, %v; the reference read v%d, %d bytes, %v",
					trial, what, blob, gotV, len(got), gerr, want.ver, len(want.data), werr)
			}
		}
		for b := 0; b < 6; b++ {
			blob := fmt.Sprintf("b%d", b)
			for v := 0; v <= rng.Intn(3); v++ {
				overwrite(blob)
			}
		}
		for q := 0; q < 30; q++ {
			blob := fmt.Sprintf("b%d", rng.Intn(7)) // b6 starts unwritten
			if rng.Intn(3) == 0 {
				overwrite(blob)
			}
			off, size := rng.Intn(3200), rng.Intn(1200)
			if q%5 == 0 {
				off = 0
			}

			staleNow := stale(blob)
			moved = 0
			whole, werr := f.Get("c", blob)
			wholeMoved := moved
			rr, rerr := f.quorumRead(ctx, "get", "c", blob, 0, readWhole(blob))
			if readClass(werr) != readClass(rerr) || !bytes.Equal(whole, rr.data) {
				t.Fatalf("trial %d: Get of %s: %d bytes, %v; its quorum read %d bytes, %v", trial, blob, len(whole), werr, len(rr.data), rerr)
			}
			want, wantErr := referenceRead(f, blob, 0, readWhole(blob))
			check("Get", blob, rr.data, rr.ver, rerr, want, wantErr)
			if limit := len(whole) + uvarintLen(rr.ver) + (f.cfg.ReadQuorum-1)*binary.MaxVarintLen64; werr == nil && wholeMoved > limit {
				if !staleNow {
					t.Fatalf("trial %d: Get of %d-byte %s with no stale replica: stores returned %d bytes, over %d", trial, len(whole), blob, wholeMoved, limit)
				}
				promoted++
			} else if werr == nil && !staleNow {
				bounded++
			}

			rangeRead := func(st Store) (replicaRead, error, error) { return readEnvelopeRange(st, "c", blob, off, size) }
			part, pin, perr := f.GetRangeCtx(ctx, "c", blob, off, size, 0)
			want, wantErr = referenceRead(f, blob, 0, rangeRead)
			check("GetRange", blob, part, pin, perr, want, wantErr)
			if perr != nil {
				continue
			}
			if rng.Intn(3) == 0 {
				overwrite(blob)
			}
			part, v, perr := f.GetRangeCtx(ctx, "c", blob, off, size, pin)
			want, wantErr = referenceRead(f, blob, pin, rangeRead)
			check(fmt.Sprintf("GetRange pinned to v%d", pin), blob, part, v, perr, want, wantErr)
		}
	}
	if promoted == 0 || bounded == 0 {
		t.Errorf("whole Gets: %d within the one-replica bound, %d led by a stale replica: want each above 0", bounded, promoted)
	}
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}
