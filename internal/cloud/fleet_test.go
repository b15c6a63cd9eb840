package cloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// testFleet builds an n-shard fleet of plain in-memory stores on a fake
// clock and a fresh registry, with the given replication.
func testFleet(t *testing.T, n, replication int) (*Fleet, *obs.Fake, *obs.Registry) {
	t.Helper()
	clock := obs.NewFake(time.Unix(1700000000, 0).UTC())
	reg := obs.NewRegistry()
	specs := make([]ShardSpec, n)
	for i := range specs {
		specs[i] = ShardSpec{Name: fmt.Sprintf("s%d", i), LatencyMS: 10, BandwidthMbps: 100}
	}
	f, err := NewFleet(FleetConfig{Shards: specs, Replication: replication, Seed: 42, Clock: clock, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return f, clock, reg
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := NewFleet(FleetConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewFleet(FleetConfig{Shards: []ShardSpec{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
	if _, err := NewFleet(FleetConfig{Shards: []ShardSpec{{}}}); err == nil {
		t.Fatal("unnamed shard accepted")
	}
	if _, err := NewFleet(FleetConfig{Shards: []ShardSpec{{Name: "a"}, {Name: "b"}}, Replication: 2, WriteQuorum: 3}); err == nil {
		t.Fatal("write quorum beyond replication accepted")
	}
	if _, err := NewFleet(FleetConfig{Shards: []ShardSpec{{Name: "a"}, {Name: "b"}}, Replication: 2, ReadQuorum: 3}); err == nil {
		t.Fatal("read quorum beyond replication accepted")
	}
	// Defaults: replication min(3, n), majority quorums.
	f, err := NewFleet(FleetConfig{Shards: DefaultShardSpecs(5, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Report()
	if rep.Replication != 3 || rep.WriteQuorum != 2 || rep.ReadQuorum != 2 {
		t.Fatalf("defaults = R%d/W%d/Rq%d, want 3/2/2", rep.Replication, rep.WriteQuorum, rep.ReadQuorum)
	}
	// Replication clamps to the shard count.
	f2, err := NewFleet(FleetConfig{Shards: DefaultShardSpecs(2, 0, 1), Replication: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Report().Replication; got != 2 {
		t.Fatalf("replication clamped to %d, want 2", got)
	}
}

// TestFleetRingDeterministicAndSpread: replica placement is a pure function
// of (seed, key) — two fleets with identical config agree on every key —
// replica sets are distinct shards in all cases, and a spread of keys lands
// on every shard.
func TestFleetRingDeterministicAndSpread(t *testing.T) {
	f1, _, _ := testFleet(t, 8, 3)
	f2, _, _ := testFleet(t, 8, 3)
	hit := map[string]int{}
	for i := 0; i < 200; i++ {
		blob := fmt.Sprintf("blob-%d", i)
		r1 := f1.Replicas("c", blob)
		r2 := f2.Replicas("c", blob)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("key %q placed at %v vs %v", blob, r1, r2)
		}
		if len(r1) != 3 {
			t.Fatalf("key %q has %d replicas, want 3", blob, len(r1))
		}
		seen := map[string]bool{}
		for _, name := range r1 {
			if seen[name] {
				t.Fatalf("key %q replica set %v repeats shard %s", blob, r1, name)
			}
			seen[name] = true
			hit[name]++
		}
	}
	for _, name := range f1.ShardNames() {
		if hit[name] == 0 {
			t.Fatalf("shard %s got no replicas across 200 keys: %v", name, hit)
		}
	}
}

func TestFleetPutGetDeleteRoundTrip(t *testing.T) {
	f, _, reg := testFleet(t, 5, 3)
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	data := []byte("ACGTACGT")
	if err := f.Put("c", "b", data); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get("c", "b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
	// Every replica shard holds the blob (inside its version envelope).
	for _, name := range f.Replicas("c", "b") {
		env, err := f.byName[name].store.Get("c", "b")
		if err != nil {
			t.Fatalf("replica %s missing blob: %v", name, err)
		}
		ver, payload, err := openVersion(env)
		if err != nil || ver != 1 || string(payload) != string(data) {
			t.Fatalf("replica %s envelope = v%d %q (%v)", name, ver, payload, err)
		}
	}
	if err := f.Delete("c", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get("c", "b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted blob Get = %v, want ErrNotFound", err)
	}
	// Idempotent: a second delete acks via misses.
	if err := f.Delete("c", "b"); err != nil {
		t.Fatalf("second delete = %v", err)
	}
	if v := reg.Counter("dna_fleet_ops_total", "", "op", "put", "outcome", "ok").Value(); v != 1 {
		t.Fatalf("put ok counter = %d, want 1", v)
	}
	if v := reg.Counter("dna_fleet_ops_total", "", "op", "get", "outcome", "notfound").Value(); v != 1 {
		t.Fatalf("get notfound counter = %d, want 1", v)
	}
}

func TestFleetCreateContainerSemantics(t *testing.T) {
	f, _, _ := testFleet(t, 3, 3)
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateContainer("c"); !errors.Is(err, ErrContainerExists) {
		t.Fatalf("second create = %v, want ErrContainerExists", err)
	}
	// A shard that missed the create heals itself on first write.
	f.Kill("s0")
	if err := f.CreateContainer("late"); err != nil {
		t.Fatalf("create with one shard down: %v", err)
	}
	f.Revive("s0")
	if err := f.Put("late", "b", []byte("x")); err != nil {
		t.Fatalf("put after revive: %v", err)
	}
	if env, err := f.byName["s0"].store.Get("late", "b"); err != nil || len(env) == 0 {
		t.Fatalf("revived shard did not self-heal container on put: %v", err)
	}
}

// TestFleetBreakerStateMachine drives one shard's breaker around the full
// closed → open → half-open → closed loop on the fake clock.
func TestFleetBreakerStateMachine(t *testing.T) {
	f, clock, reg := testFleet(t, 5, 3)
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	victim := f.Replicas("c", "b")[0]
	f.Kill(victim)

	// HardTrip (3) consecutive hard failures open the breaker; the fleet
	// keeps answering from the surviving replicas throughout.
	for i := 0; i < 3; i++ {
		if err := f.Put("c", "b", []byte("x")); err != nil {
			t.Fatalf("put %d with one dead replica: %v", i, err)
		}
	}
	if st := f.BreakerStates()[victim]; st != BreakerOpen {
		t.Fatalf("after %d hard failures breaker is %v, want open", 3, st)
	}
	if v := reg.Counter("dna_fleet_breaker_transitions_total", "", "shard", victim, "to", "open").Value(); v != 1 {
		t.Fatalf("open transitions = %d, want 1", v)
	}

	// While open, ops fast-fail without touching the shard.
	if err := f.Put("c", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("dna_fleet_breaker_fastfail_total", "", "shard", victim).Value(); v == 0 {
		t.Fatal("open breaker recorded no fast-fails")
	}

	// Revive the shard. Before CoolDown the breaker still fast-fails ...
	f.Revive(victim)
	if err := f.Put("c", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := f.BreakerStates()[victim]; st != BreakerOpen {
		t.Fatalf("breaker left open state before cooldown: %v", st)
	}
	// ... and after CoolDown on the injected clock a probe goes through,
	// succeeds, and closes the breaker.
	clock.Advance(31 * time.Second)
	if err := f.Put("c", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := f.BreakerStates()[victim]; st != BreakerClosed {
		t.Fatalf("breaker after successful probe is %v, want closed", st)
	}
	if v := reg.Counter("dna_fleet_breaker_transitions_total", "", "shard", victim, "to", "closed").Value(); v != 1 {
		t.Fatalf("closed transitions = %d, want 1", v)
	}
	// The healed replica serves reads again.
	if _, err := f.Get("c", "b"); err != nil {
		t.Fatal(err)
	}
}

// TestFleetBreakerReopensOnFailedProbe: a half-open probe that hard-fails
// sends the breaker straight back to open for another cooldown.
func TestFleetBreakerReopensOnFailedProbe(t *testing.T) {
	f, clock, _ := testFleet(t, 5, 3)
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	victim := f.Replicas("c", "b")[0]
	f.Kill(victim)
	for i := 0; i < 3; i++ {
		if err := f.Put("c", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Shard still dead after cooldown: the probe fails, breaker re-opens.
	clock.Advance(31 * time.Second)
	if err := f.Put("c", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := f.BreakerStates()[victim]; st != BreakerOpen {
		t.Fatalf("breaker after failed probe is %v, want open", st)
	}
}

// TestFleetQuorumReadPrefersNewest: an overwrite that lands on a write
// quorum while one replica is dead must win quorum reads after that
// replica comes back with its stale copy.
func TestFleetQuorumReadPrefersNewest(t *testing.T) {
	f, _, _ := testFleet(t, 3, 3)
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("c", "b", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	stale := f.Replicas("c", "b")[0]
	f.Kill(stale)
	if err := f.Put("c", "b", []byte("v2")); err != nil {
		t.Fatalf("overwrite with 2/3 replicas: %v", err)
	}
	f.Revive(stale)
	// The stale replica is first in preference order, but the read quorum
	// (2) sees v2 on the second replica and the higher version wins.
	got, err := f.Get("c", "b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("quorum read returned %q, want the newer \"v2\"", got)
	}
}

// TestFleetDegradedReadBelowQuorum: one surviving replica is enough to
// serve the blob (frames are self-verifying), booked as a degraded read.
func TestFleetDegradedReadBelowQuorum(t *testing.T) {
	f, _, reg := testFleet(t, 3, 3)
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("c", "b", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	reps := f.Replicas("c", "b")
	f.Kill(reps[0])
	f.Kill(reps[1])
	got, err := f.Get("c", "b")
	if err != nil {
		t.Fatalf("single-survivor read failed: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("degraded read returned %q", got)
	}
	if v := reg.Counter("dna_fleet_degraded_reads_total", "").Value(); v != 1 {
		t.Fatalf("degraded reads counter = %d, want 1", v)
	}
}

// TestFleetDegradedErrorAttribution: losing the quorum yields a typed
// *DegradedError naming every failed shard, unwrapping to the per-shard
// errors, and NOT masquerading as a miss.
func TestFleetDegradedErrorAttribution(t *testing.T) {
	f, _, _ := testFleet(t, 3, 3)
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("c", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	reps := f.Replicas("c", "b")
	f.Kill(reps[0])
	f.Kill(reps[1])

	// Write quorum is 2; only one replica can ack.
	err := f.Put("c", "b", []byte("y"))
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("quorum-loss put = %v, want *DegradedError", err)
	}
	if deg.Op != "put" || deg.Acks != 1 || deg.Need != 2 || deg.Replicas != 3 {
		t.Fatalf("degraded put attribution %+v", deg)
	}
	named := map[string]bool{}
	for _, sf := range deg.Failures {
		named[sf.Shard] = true
	}
	if !named[reps[0]] || !named[reps[1]] {
		t.Fatalf("failures name %v, want both %s and %s", named, reps[0], reps[1])
	}
	var down *ShardDownError
	if !errors.As(err, &down) {
		t.Fatalf("degraded error does not unwrap to *ShardDownError: %v", err)
	}
	if !IsDegraded(err) {
		t.Fatal("IsDegraded missed a *DegradedError")
	}

	// Kill the last replica: reads now fail degraded (NOT a miss — the
	// blob exists, the fleet just cannot reach it).
	f.Kill(reps[2])
	_, gerr := f.Get("c", "b")
	if !errors.As(gerr, &deg) {
		t.Fatalf("all-replicas-down get = %v, want *DegradedError", gerr)
	}
	if errors.Is(gerr, ErrNotFound) {
		t.Fatal("unreachable blob misreported as ErrNotFound")
	}
	for _, name := range reps {
		if !strings.Contains(gerr.Error(), name) {
			t.Fatalf("degraded get %q does not attribute shard %s", gerr, name)
		}
	}
}

// TestFleetTransientFaultsRetryableThroughDegraded: a degraded op whose
// replica failures are injected transients stays transient for the
// exchange retry policy (multi-error unwrap through *DegradedError).
func TestFleetTransientFaultsRetryableThroughDegraded(t *testing.T) {
	specs := []ShardSpec{
		{Name: "flaky0", FaultRate: 1, FaultSeed: 1},
		{Name: "flaky1", FaultRate: 1, FaultSeed: 2},
	}
	f, err := NewFleet(FleetConfig{Shards: specs, Replication: 2, Seed: 7, Registry: obs.NewRegistry(), Clock: obs.NewFake(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	perr := f.Put("c", "b", []byte("x"))
	if perr == nil {
		t.Fatal("rate-1 fleet accepted a put")
	}
	if !IsTransient(perr) {
		t.Fatalf("degraded-by-transients put %v not classified transient", perr)
	}
}

// TestFleetReportAggregates: the health report derives from aggregate
// counters, flags the kill switch, and prices modeled transfer cost.
func TestFleetReportAggregates(t *testing.T) {
	f, _, _ := testFleet(t, 3, 3)
	if err := f.CreateContainer("c"); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("c", "b", make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	f.Kill("s1")
	rep := f.Report()
	if len(rep.Shards) != 3 {
		t.Fatalf("report covers %d shards, want 3", len(rep.Shards))
	}
	for _, sr := range rep.Shards {
		if sr.Ops == 0 {
			t.Fatalf("shard %s booked no ops: %+v", sr.Name, sr)
		}
		if sr.ModeledMS <= 0 {
			t.Fatalf("shard %s modeled cost %v", sr.Name, sr.ModeledMS)
		}
		if sr.Name == "s1" && !sr.Down {
			t.Fatalf("killed shard not flagged down: %+v", sr)
		}
	}
}

// FuzzOpenVersion holds the replica version envelope — bytes that come
// back from shards — to its contract: openVersion never panics, undoes
// sealVersion exactly, and on any other input either fails or returns a
// payload that is a suffix of the input, shorter by one varint header.
func FuzzOpenVersion(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), []byte("ACGTACGT"))
	f.Add(uint64(math.MaxUint64), []byte{0x80, 0x80})
	f.Add(uint64(300), bytes.Repeat([]byte{0xFF}, binary.MaxVarintLen64+1)) // overflowing varint
	f.Fuzz(func(t *testing.T, version uint64, data []byte) {
		gotVer, gotPayload, err := openVersion(sealVersion(version, data))
		if err != nil || gotVer != version || !bytes.Equal(gotPayload, data) {
			t.Fatalf("openVersion(sealVersion(%d, %d bytes)) = v%d, %d bytes, %v", version, len(data), gotVer, len(gotPayload), err)
		}
		_, payload, err := openVersion(data)
		if err != nil {
			return
		}
		header := len(data) - len(payload)
		if header < 1 || header > binary.MaxVarintLen64 || !bytes.Equal(data[header:], payload) {
			t.Fatalf("openVersion(%x) returned a %d-byte payload that is not the input less a varint header", data, len(payload))
		}
	})
}
