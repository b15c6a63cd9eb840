package cloud

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// keepFleet builds a 3-shard, 3-replica fleet on a fake clock whose shard
// i is the store shard(i) returns, with container "c" created.
func keepFleet(t testing.TB, shard func(i int) Store) *Fleet {
	t.Helper()
	specs := make([]ShardSpec, 3)
	for i := range specs {
		specs[i] = ShardSpec{Name: fmt.Sprintf("s%d", i), Store: shard(i)}
	}
	f, err := NewFleet(FleetConfig{Shards: specs, Replication: 3, Seed: 1,
		Clock: obs.NewFake(time.Unix(1700000000, 0).UTC()), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	return f
}

// putRecorder is a shard store of the test's own around a BlobStore. The
// fleet cannot hand it a buffer to keep, so it must receive every write
// through Put.
type putRecorder struct {
	Store
	puts atomic.Int64
}

func (s *putRecorder) Put(container, blob string, data []byte) error {
	s.puts.Add(1)
	return s.Store.Put(container, blob, data)
}

// shardKinds are the kinds of shard store a fleet writes to: a plain
// in-memory store and a FaultyStore around one at rate 0, which both keep
// the envelope the fleet sealed, and a store of the test's own, which
// gets Put.
var shardKinds = []struct {
	name  string
	store func() Store
}{
	{"BlobStore", func() Store { return NewBlobStore() }},
	{"FaultyStore", func() Store { return NewFaultyStore(NewBlobStore(), FaultConfig{}) }},
	{"own Store", func() Store { return &putRecorder{Store: NewBlobStore()} }},
}

// TestFleetPutKeepsOneEnvelope: a fleet write allocates the one version
// envelope it seals, and every replica keeps that envelope, on plain
// in-memory shards and on FaultyStores around them alike. A 1 MiB blob at
// replication 3 allocates under 1 MiB + 64 KiB; a copy per replica would
// make it about 4 MiB.
func TestFleetPutKeepsOneEnvelope(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is measured without the race detector")
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	for _, kind := range shardKinds[:2] {
		f := keepFleet(t, func(int) Store { return kind.store() })
		// The smaller of two runs: the first also adds the blob to each
		// store's map and registers the fleet's metric series.
		var least uint64
		for run := 0; run < 2; run++ {
			before := heapAllocs()
			if err := f.Put("c", "b", data); err != nil {
				t.Fatal(err)
			}
			if got := heapAllocs() - before; run == 0 || got < least {
				least = got
			}
		}
		if limit := uint64(len(data) + 64<<10); least > limit {
			t.Errorf("%s shards: a %d-byte Put at replication 3 allocated %d bytes, over %d: one envelope is its share",
				kind.name, len(data), least, limit)
		}
	}
}

// TestFleetPutLeavesCallerBuffer: once Put returns, the caller's buffer is
// the caller's again. Overwriting it leaves every replica's bytes as they
// were written, on each kind of shard store; a store of the test's own
// receives the write through Put, and the fleet reads it back.
func TestFleetPutLeavesCallerBuffer(t *testing.T) {
	for _, kind := range shardKinds {
		stores := make([]Store, 3)
		f := keepFleet(t, func(i int) Store {
			stores[i] = kind.store()
			return stores[i]
		})
		data := []byte("ACGTACGTTTGACCAGT")
		want := bytes.Clone(data)
		if err := f.Put("c", "b", data); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 'N'
		}
		for i, st := range stores {
			env, err := st.Get("c", "b")
			if err != nil {
				t.Fatalf("%s shard %d: %v", kind.name, i, err)
			}
			if _, payload, err := openVersion(env); err != nil || !bytes.Equal(payload, want) {
				t.Fatalf("%s shard %d holds %q (%v) once the caller's buffer is overwritten, want %q", kind.name, i, payload, err, want)
			}
			if rec, ok := st.(*putRecorder); ok && rec.puts.Load() != 1 {
				t.Errorf("%s shard %d received %d Puts, want 1", kind.name, i, rec.puts.Load())
			}
		}
		if got, err := f.Get("c", "b"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s shards: Get = %q, %v, want %q", kind.name, got, err, want)
		}
	}
}

// TestFleetKeptEnvelopesConcurrent races writes, deletes and reads of a
// few blobs on a 3-replica fleet of FaultyStore shards, whose replicas
// keep the envelope each write sealed while reads copy out of it. One
// goroutine per blob (the fleet wants one writer per blob) puts one of
// the blob's payloads from a buffer it then reuses for the next, and now
// and then deletes the blob. Readers Get the blob, and read a window of
// it unpinned and then pinned to the version the unpinned read returned.
// Every successful read must be one of the blob's payloads, or that
// payload's window, and a pinned read the unpinned read's window. Any
// error is allowed: writes race reads and shards fault. `make race` runs
// it ten times over.
func TestFleetKeptEnvelopesConcurrent(t *testing.T) {
	const blobs, payloads, writes, readers, reads = 3, 6, 150, 4, 100
	f, err := NewFleet(FleetConfig{Shards: DefaultShardSpecs(4, 0.1, 5), Replication: 3, Seed: 5,
		Clock: obs.NewFake(time.Unix(1700000000, 0).UTC()), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([][][]byte, blobs)
	for b := range payload {
		payload[b] = make([][]byte, payloads)
		for k := range payload[b] {
			payload[b][k] = make([]byte, 1+rng.Intn(4000))
			rng.Read(payload[b][k])
		}
	}
	// isWindow reports whether got is bytes [off, off+n) of one of blob
	// b's payloads.
	isWindow := func(b int, got []byte, off, n int) bool {
		for _, p := range payload[b] {
			if bytes.Equal(got, clip(p, off, n)) {
				return true
			}
		}
		return false
	}

	// Every blob holds a payload before the goroutines start, so reads can
	// succeed from the first.
	for b := 0; b < blobs; b++ {
		if err := f.Put("c", fmt.Sprintf("b%d", b), payload[b][0]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for b := 0; b < blobs; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(b)))
			name := fmt.Sprintf("b%d", b)
			var buf []byte
			for i := 0; i < writes; i++ {
				if rng.Intn(8) == 0 {
					f.Delete("c", name) // may fail: reads accept any outcome but wrong bytes
					continue
				}
				buf = append(buf[:0], payload[b][rng.Intn(payloads)]...)
				f.Put("c", name, buf) // may fail likewise
			}
		}(b)
	}
	var served atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < reads; i++ {
				b := rng.Intn(blobs)
				name := fmt.Sprintf("b%d", b)
				if whole, err := f.Get("c", name); err == nil {
					served.Add(1)
					if !isWindow(b, whole, 0, math.MaxInt) {
						t.Errorf("Get of %s returned %d bytes that are none of its payloads", name, len(whole))
						return
					}
				}
				off, n := rng.Intn(4000), rng.Intn(1500)
				part, v, err := f.GetRangeCtx(ctx, "c", name, off, n, 0)
				if err != nil {
					continue
				}
				served.Add(1)
				if !isWindow(b, part, off, n) {
					t.Errorf("GetRange of %s [%d, +%d) at v%d returned %d bytes that are no payload's window", name, off, n, v, len(part))
					return
				}
				again, v2, err := f.GetRangeCtx(ctx, "c", name, off, n, v)
				switch {
				case err != nil: // ErrVersionMoved once an overwrite lands, or a fault
				case v2 != v || !bytes.Equal(again, part):
					t.Errorf("GetRange of %s [%d, +%d) pinned to v%d read v%d, %d bytes, not the unpinned read's window", name, off, n, v, v2, len(again))
					return
				default:
					served.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Error("no read succeeded")
	}
}

// BenchmarkFleetPut writes one 1 MiB blob to a 3-replica in-memory fleet.
// B/op is what one write allocates: the version envelope that every
// replica keeps, and the fan-out's own bookkeeping.
func BenchmarkFleetPut(b *testing.B) {
	f := keepFleet(b, func(int) Store { return NewBlobStore() })
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Put("c", "b", data); err != nil {
			b.Fatal(err)
		}
	}
}
