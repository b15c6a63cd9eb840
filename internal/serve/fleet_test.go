package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

// testFleet builds a small plain-store fleet on a fake clock for the
// daemon to back its named-container store with.
func testFleet(t *testing.T, shards, replication int) (*cloud.Fleet, *obs.Fake) {
	t.Helper()
	clock := obs.NewFake(time.Unix(1700000000, 0).UTC())
	f, err := cloud.NewFleet(cloud.FleetConfig{
		Shards:      cloud.DefaultShardSpecs(shards, 0, 5),
		Replication: replication,
		Seed:        42,
		Clock:       clock,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, clock
}

// TestNewServerRefusesNonFleetStore: the daemon's named-container store
// is the in-process map or a *cloud.Fleet; any other FleetStore is a
// config error at construction, before the store is touched.
func TestNewServerRefusesNonFleetStore(t *testing.T) {
	store := cloud.NewBlobStore()
	s, err := NewServer(Config{Engine: testEngine(t), FleetStore: store})
	if err == nil {
		s.Close()
		t.Fatal("NewServer accepted a *cloud.BlobStore as FleetStore")
	}
	if !strings.Contains(err.Error(), "*cloud.Fleet") {
		t.Errorf("error %q does not name the store it wants", err)
	}
	if err := store.CreateContainer("serve"); err != nil {
		t.Errorf("refused store was touched: %v", err)
	}
}

// TestRetryAfterOnEveryBackpressure is the satellite-bugfix regression:
// every backpressure response — not just the admission queue's 429 —
// must carry Retry-After. The 507 store-overflow and draining-503
// assertions fail on the pre-fleet code, which set the header only on
// queue_full.
func TestRetryAfterOnEveryBackpressure(t *testing.T) {
	t.Run("store_overflow_507", func(t *testing.T) {
		_, ts := newTestServer(t, Config{MaxStored: 1, RetryAfterSeconds: 2})
		input := synthASCII(400, 6)
		if resp, body := post(t, ts.URL+"/compress?codec=twobit&name=a", input); resp.StatusCode != http.StatusOK {
			t.Fatalf("first store: HTTP %d (%s)", resp.StatusCode, body)
		}
		resp, _ := post(t, ts.URL+"/compress?codec=twobit&name=b", input)
		if resp.StatusCode != http.StatusInsufficientStorage {
			t.Fatalf("overflow: HTTP %d, want 507", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Fatalf("507 Retry-After = %q, want 2 — store overflow is retryable backpressure", ra)
		}
	})

	t.Run("draining_503", func(t *testing.T) {
		s, ts := newTestServer(t, Config{RetryAfterSeconds: 2})
		s.BeginDrain()
		resp, _ := post(t, ts.URL+"/compress", synthASCII(400, 1))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining: HTTP %d, want 503", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Fatalf("draining 503 Retry-After = %q, want 2 — a drained peer will serve again", ra)
		}
	})

	t.Run("codec_saturated_429", func(t *testing.T) {
		registerGateCodec()
		reg := obs.NewRegistry()
		// Two workers: one is pinned by the held gatetest job, the other
		// proves an unrelated codec still gets served.
		s, err := NewServer(Config{Engine: testEngine(t), Workers: 2, QueueDepth: 8, PerCodecBacklog: 1, Registry: reg, RetryAfterSeconds: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		gate := make(chan struct{})
		started := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // holds the codec's one backlog slot
			defer wg.Done()
			s.submitPlain("compress", "gatetest", func() *response {
				close(started)
				<-gate
				return okResponse()
			})
		}()
		<-started
		resp := s.submitPlain("compress", "gatetest", okResponse)
		if resp.status != http.StatusTooManyRequests {
			t.Fatalf("saturated codec got %d, want 429", resp.status)
		}
		if ra := resp.header["Retry-After"]; ra != "2" {
			t.Fatalf("codec-saturation 429 Retry-After = %q, want 2", ra)
		}
		if n := reg.Counter("dna_serve_rejected_total", "", "reason", "codec_saturated").Value(); n != 1 {
			t.Fatalf("codec_saturated rejections = %d, want 1", n)
		}
		// A different codec is unaffected by the saturated one's backlog.
		if resp := s.submitPlain("compress", "twobit", okResponse); resp.status != http.StatusOK {
			t.Fatalf("unrelated codec got %d during gatetest saturation", resp.status)
		}
		close(gate)
		wg.Wait()
	})
}

// TestFleetBackedStoreSurvivesShardLoss: with the named-container store on
// a replicated fleet, stored containers keep serving through GET
// /decompress while fewer than replication shards are dead; only losing
// every replica turns the name into 503 + Retry-After, and it heals on
// revive. An unknown name stays a plain 404 throughout.
func TestFleetBackedStoreSurvivesShardLoss(t *testing.T) {
	fleet, clock := testFleet(t, 5, 3)
	_, ts := newTestServer(t, Config{FleetStore: fleet, RetryAfterSeconds: 2})
	input := synthASCII(600, 9)

	if resp, body := post(t, ts.URL+"/compress?codec=twobit&name=seq", input); resp.StatusCode != http.StatusOK {
		t.Fatalf("store: HTTP %d (%s)", resp.StatusCode, body)
	}
	resp, whole := get(t, ts.URL+"/decompress?name=seq")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy read: HTTP %d", resp.StatusCode)
	}

	// Unknown names are 404 on a healthy fleet.
	if resp, _ := get(t, ts.URL+"/decompress?name=ghost"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown name: HTTP %d, want 404", resp.StatusCode)
	}

	// Kill shards up to replication-1: the name must keep serving the
	// identical bytes.
	reps := fleet.Replicas("serve", "seq")
	for i := 0; i < len(reps)-1; i++ {
		fleet.Kill(reps[i])
		resp, body := get(t, ts.URL+"/decompress?name=seq")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read with %d dead replicas: HTTP %d (%s)", i+1, resp.StatusCode, body)
		}
		if string(body) != string(whole) {
			t.Fatalf("degraded read differs from healthy read with %d dead replicas", i+1)
		}
		if i == 0 {
			// With one dead shard every key keeps >= 2 live replicas, so a
			// read-quorum of misses still proves "not found": shard loss
			// must not turn unknown names into 503s.
			if resp, _ := get(t, ts.URL+"/decompress?name=ghost"); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("unknown name with one dead shard: HTTP %d, want 404", resp.StatusCode)
			}
		}
	}

	// Losing the last replica is a true outage: 503 + Retry-After.
	fleet.Kill(reps[len(reps)-1])
	resp, _ = get(t, ts.URL+"/decompress?name=seq")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all replicas dead: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("fleet-outage 503 Retry-After = %q, want 2", ra)
	}

	// Revive one replica and let its tripped breaker cool down on the
	// injected clock: the name serves again, bytes intact.
	fleet.Revive(reps[0])
	clock.Advance(45 * time.Second)
	resp, body := get(t, ts.URL+"/decompress?name=seq")
	if resp.StatusCode != http.StatusOK || string(body) != string(whole) {
		t.Fatalf("read after revive: HTTP %d, bytes match=%v", resp.StatusCode, string(body) == string(whole))
	}
}

// TestFleetStorePutQuorumLost: a write that cannot reach the fleet's
// quorum answers 503 + Retry-After and rolls back its name reservation,
// so the failed name does not burn a store slot.
func TestFleetStorePutQuorumLost(t *testing.T) {
	fleet, _ := testFleet(t, 3, 3) // write quorum 2
	_, ts := newTestServer(t, Config{FleetStore: fleet, MaxStored: 1, RetryAfterSeconds: 2})
	input := synthASCII(500, 10)

	fleet.Kill("shard-00")
	fleet.Kill("shard-01")
	resp, _ := post(t, ts.URL+"/compress?codec=twobit&name=doomed", input)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quorum-lost store: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("quorum-lost 503 Retry-After = %q, want 2", ra)
	}

	// The failed name released its reservation: with MaxStored=1, a fresh
	// name still fits once the fleet heals.
	fleet.Revive("shard-00")
	fleet.Revive("shard-01")
	if resp, body := post(t, ts.URL+"/compress?codec=twobit&name=ok", input); resp.StatusCode != http.StatusOK {
		t.Fatalf("store after heal: HTTP %d (%s) — failed put leaked a store slot?", resp.StatusCode, body)
	}
}

// TestDrainNoGoroutineLeakFleet is the drain leak check: a fleet-backed
// server takes concurrent requests while a shard flaps, then goes through
// the full shutdown sequence (BeginDrain → HTTP drain → Close). Every
// goroutine — workers, handlers, fleet fan-outs — must be gone afterward.
// Runs under -race via the fleet gate.
func TestDrainNoGoroutineLeakFleet(t *testing.T) {
	testEngine(t) // train outside the goroutine window
	baseline := runtime.NumGoroutine()

	fleet, clock := testFleet(t, 5, 3)
	reg := obs.NewRegistry()
	s, err := NewServer(Config{Engine: testEngine(t), Workers: 4, Registry: reg, FleetStore: fleet})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		names := fleet.ShardNames()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := names[i%len(names)]
			fleet.Kill(name)
			clock.Advance(time.Second)
			fleet.Revive(name)
		}
	}()

	input := synthASCII(800, 11)
	var reqs sync.WaitGroup
	for i := 0; i < 12; i++ {
		reqs.Add(1)
		go func(i int) {
			defer reqs.Done()
			url := fmt.Sprintf("%s/compress?codec=twobit&name=n%d", ts.URL, i)
			resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(input))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}

	// Shut down mid-traffic: drain mode, then the HTTP layer (joins
	// in-flight handlers), then the worker pool.
	s.BeginDrain()
	reqs.Wait()
	ts.Close()
	s.Close()
	close(stop)
	flapper.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
