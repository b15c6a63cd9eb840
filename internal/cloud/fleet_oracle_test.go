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

// The breaker contract the oracle holds the fleet to, at the default
// BreakerConfig: three hard failures in a row open a breaker, and it
// half-opens after 30 s on the fleet's clock.
const (
	oracleHardTrip = 3
	oracleCoolDown = 30 * time.Second
)

// oracleBlob is the plain model of one blob: the bytes of every version
// written, acknowledged or not, and what the newest acknowledged op left.
type oracleBlob struct {
	written map[uint64][]byte // by version: the fleet numbers a blob's Puts 1, 2, 3, ...
	acked   uint64            // version of the newest acknowledged Put; 0 when the newest acknowledged op is a Delete, or there is none
	since   map[uint64]bool   // versions of the Puts that failed since the newest acknowledged op
	gone    bool              // a Delete failed since the newest acknowledged op
}

// quorumMay reports whether a read that reached its quorum may return
// version v: the newest acknowledged write's, or a write that failed
// after it and may have landed.
func (b *oracleBlob) quorumMay(v uint64) bool {
	return v != 0 && v == b.acked || b.since[v]
}

// mayMiss reports whether the blob may be missing: the newest
// acknowledged op deleted it, or a delete since may have landed.
func (b *oracleBlob) mayMiss() bool { return b.acked == 0 || b.gone }

// oracleShard models one shard: its kill switch, whether it faults on
// every op, its breaker, and the version of each blob it stores.
type oracleShard struct {
	dead, faulting bool
	state          BreakerState
	streak         int // hard failures in a row
	openedAt       time.Time
	ops            uint64 // the ops the fleet's report has booked on the shard
	holds          map[string]uint64
}

// admits reports whether the shard's breaker lets an op through at now.
func (s *oracleShard) admits(now time.Time) bool {
	return s.state != BreakerOpen || now.Sub(s.openedAt) >= oracleCoolDown
}

// answers reports whether an op on the shard at now reaches its store:
// the breaker admits it, the shard lives and it does not fault.
func (s *oracleShard) answers(now time.Time) bool {
	return s.admits(now) && !s.dead && !s.faulting
}

// book moves the breaker for one op that reached the shard at now. A dead
// shard's op is a hard failure, a faulting shard's a transient one, which
// leaves the breaker where it is; anything else closes it. An open
// breaker that admits an op has half-opened: that op is its probe.
func (s *oracleShard) book(now time.Time) {
	if s.state == BreakerOpen {
		s.state = BreakerHalfOpen
	}
	switch {
	case s.dead:
		if s.streak++; s.state == BreakerHalfOpen || s.streak >= oracleHardTrip {
			s.state, s.openedAt = BreakerOpen, now
		}
	case s.faulting:
		s.streak = 0
	default:
		s.streak, s.state = 0, BreakerClosed
	}
}

// fleetOracle runs one random fleet beside its model.
type fleetOracle struct {
	t      *testing.T
	f      *Fleet
	clock  *obs.Fake
	shards map[string]*oracleShard
	blobs  map[string]*oracleBlob
	where  string // the trial and step, for failure messages
	seen   map[string]int
}

// reached reads the fleet's report and returns the shards whose booked
// ops grew since the last call: the shards the op just run reached. A
// fleet op reaches each shard at most once.
func (o *fleetOracle) reached() map[string]bool {
	out := map[string]bool{}
	for _, sr := range o.f.Report().Shards {
		s := o.shards[sr.Name]
		switch d := sr.Ops - s.ops; {
		case d == 1:
			out[sr.Name] = true
		case d > 1:
			o.t.Fatalf("%s: one op reached shard %s %d times", o.where, sr.Name, d)
		}
		s.ops = sr.Ops
	}
	return out
}

// settle books an op on blob's replicas reps: it reached only replicas
// whose breakers admit it, and every one of them when all is set (a put,
// a delete, a read that tried every replica). Then each breaker moves as
// the model says, and the fleet's must be in the same state.
func (o *fleetOracle) settle(reps []string, now time.Time, all bool) {
	reached := o.reached()
	for _, name := range reps {
		s := o.shards[name]
		switch {
		case reached[name] && !s.admits(now):
			o.t.Fatalf("%s: an op reached %s through a breaker opened %v ago", o.where, name, now.Sub(s.openedAt))
		case !reached[name] && s.admits(now) && all:
			o.t.Fatalf("%s: an op passed over %s, whose breaker (%v) admits it", o.where, name, s.state)
		case reached[name]:
			if s.state == BreakerOpen {
				o.seen["probe"]++
			}
			before := s.state
			s.book(now)
			if s.state == BreakerOpen && before != BreakerOpen {
				o.seen["open"]++
			}
		}
		delete(reached, name)
	}
	for name := range reached {
		o.t.Fatalf("%s: an op on a blob of replicas %v reached %s", o.where, reps, name)
	}
	for name, st := range o.f.BreakerStates() {
		if want := o.shards[name].state; st != want {
			o.t.Fatalf("%s: shard %s breaker is %v, the model says %v (%d hard failures in a row)", o.where, name, st, want, o.shards[name].streak)
		}
	}
}

// checkDegraded holds err to a *DegradedError for op that names exactly
// the replicas of reps that do not answer, in preference order, each with
// its cause: an open breaker, a dead shard, or an injected fault.
func (o *fleetOracle) checkDegraded(op string, err error, reps []string, now time.Time, acks, misses int) {
	var deg *DegradedError
	if !errors.As(err, &deg) {
		o.t.Fatalf("%s: %s = %v, want a *DegradedError", o.where, op, err)
	}
	var named, want []string
	for _, sf := range deg.Failures {
		named = append(named, sf.Shard)
		s := o.shards[sf.Shard]
		var boe *BreakerOpenError
		var down *ShardDownError
		var tr *TransientError
		ok := false
		switch {
		case s == nil:
		case !s.admits(now):
			ok = errors.As(sf.Err, &boe)
		case s.dead:
			ok = errors.As(sf.Err, &down)
		case s.faulting:
			ok = errors.As(sf.Err, &tr)
		}
		if !ok {
			o.t.Fatalf("%s: %s failure on %s is %v, which its shard does not explain", o.where, op, sf.Shard, sf.Err)
		}
	}
	for _, name := range reps {
		if !o.shards[name].answers(now) {
			want = append(want, name)
		}
	}
	if fmt.Sprint(named) != fmt.Sprint(want) || deg.Op != op || deg.Acks != acks || deg.Misses != misses || deg.Replicas != len(reps) {
		o.t.Fatalf("%s: %v names %v, %d acks, %d misses; want %s naming %v, %d acks, %d misses", o.where, err, named, deg.Acks, deg.Misses, op, want, acks, misses)
	}
	o.seen["degraded "+op]++
}

// write runs a Put (data non-nil) or a Delete of blob. It is acknowledged
// exactly when a write quorum of the blob's replicas answers; otherwise it
// fails with a *DegradedError. Either way it lands on every replica that
// answers.
func (o *fleetOracle) write(blob string, data []byte) {
	b := o.blobs[blob]
	reps := o.f.Replicas("c", blob)
	now := o.clock.Now()
	answering := 0
	for _, name := range reps {
		if o.shards[name].answers(now) {
			answering++
		}
	}
	op, err := "put", error(nil)
	if data != nil {
		err = o.f.Put("c", blob, data)
	} else {
		op, err = "delete", o.f.Delete("c", blob)
	}
	if acked := answering >= o.f.cfg.WriteQuorum; acked && err != nil {
		o.t.Fatalf("%s: %s of %s with %d of %d replicas answering: %v", o.where, op, blob, answering, len(reps), err)
	} else if !acked {
		o.checkDegraded(op, err, reps, now, answering, 0)
	}
	v := uint64(len(b.written) + 1)
	for _, name := range reps {
		switch s := o.shards[name]; {
		case !s.answers(now):
		case data != nil:
			s.holds[blob] = v
		default:
			delete(s.holds, blob)
		}
	}
	o.settle(reps, now, true)
	switch {
	case data != nil:
		b.written[v] = data
		if err == nil {
			b.acked, b.since, b.gone = v, map[uint64]bool{}, false
		} else {
			b.since[v] = true
		}
	case err == nil:
		b.acked, b.since, b.gone = 0, map[uint64]bool{}, false
	default:
		b.gone = true
	}
}

// read runs a whole Get (whole), or a ranged read of [off, off+n) pinned
// to pin (0 for none), and checks it against the model:
//   - With a read quorum of replicas answering and holding the blob, the
//     read reaches its quorum. It returns the newest acknowledged write,
//     or a write that failed since and may have landed.
//   - With fewer such replicas, but at least one, the read is degraded. It
//     tries every replica and returns the newest version they hold.
//   - With none, a read quorum of misses, or misses alone, is ErrNotFound,
//     which the blob's model must allow; anything else is a
//     *DegradedError naming the replicas that do not answer.
//   - A pinned read returns the pinned version's window, or
//     ErrVersionMoved naming the version it found instead.
func (o *fleetOracle) read(blob string, whole bool, off, n int, pin uint64) {
	b := o.blobs[blob]
	reps := o.f.Replicas("c", blob)
	now := o.clock.Now()
	var held []uint64 // the versions the answering replicas hold, in preference order
	answering := 0
	for _, name := range reps {
		if s := o.shards[name]; s.answers(now) {
			answering++
			if v := s.holds[blob]; v > 0 {
				held = append(held, v)
			}
		}
	}
	quorum := len(held) >= o.f.cfg.ReadQuorum
	// may reports whether the read may have found version c.
	may := func(c uint64) bool {
		newest, holds := uint64(0), false
		for _, h := range held {
			newest, holds = max(newest, h), holds || h == c
		}
		if quorum {
			return holds && b.quorumMay(c)
		}
		return c == newest
	}
	var (
		got []byte
		v   uint64
		err error
	)
	op := "getrange"
	if whole {
		op = "get"
		got, err = o.f.Get("c", blob)
	} else {
		got, v, err = o.f.GetRangeCtx(context.Background(), "c", blob, off, n, pin)
	}
	switch {
	case len(held) > 0 && whole:
		found := false
		for c, data := range b.written {
			found = found || may(c) && bytes.Equal(got, data)
		}
		if err != nil || !found {
			o.t.Fatalf("%s: Get of %s (replicas hold %v, quorum %v) returned %d bytes, %v: no version it may have found", o.where, blob, held, quorum, len(got), err)
		}
	case len(held) > 0 && pin != 0 && errors.Is(err, ErrVersionMoved):
		if v == pin || !may(v) {
			o.t.Fatalf("%s: read of %s pinned to v%d moved to v%d; replicas hold %v, quorum %v", o.where, blob, pin, v, held, quorum)
		}
		o.seen["moved"]++
	case len(held) > 0:
		if err != nil || !may(v) || pin != 0 && v != pin || !bytes.Equal(got, clip(b.written[v], off, n)) {
			o.t.Fatalf("%s: read of %s [%d, +%d) pinned to v%d (replicas hold %v, quorum %v): v%d, %d bytes, %v",
				o.where, blob, off, n, pin, held, quorum, v, len(got), err)
		}
	case answering >= o.f.cfg.ReadQuorum || answering == len(reps):
		if !errors.Is(err, ErrNotFound) || !b.mayMiss() {
			o.t.Fatalf("%s: read of %s that %d replicas miss: %v; the blob may be missing: %v", o.where, blob, answering, err, b.mayMiss())
		}
		o.seen["notfound"]++
	default:
		o.checkDegraded(op, err, reps, now, 0, answering)
	}
	if len(held) > 0 {
		if quorum {
			o.seen["quorum read"]++
		} else {
			o.seen["degraded read"]++
		}
	}
	o.settle(reps, now, !quorum)
}

// TestFleetMatchesOracle runs seeded random sequences of fleet ops — put,
// whole get, unpinned and pinned ranged get, delete, kill, revive and
// fake-clock advance — on 40 random fleets built as
// TestFleetPinnedReadsMatchQuorumRead builds them, and checks every answer
// against a plain model: for each blob, every version's bytes and what the
// newest acknowledged op left; for each shard, its kill switch, its
// breaker, and the version of each blob it stores. A shard faults on every
// op or on none, so the model knows which replicas answer, and it learns
// which shards an op reached from the growth of the fleet's Report op
// counts. Each op must keep these invariants:
//   - A write is acknowledged exactly when a write quorum answers.
//   - A read that reaches its quorum returns the newest acknowledged
//     bytes, or, after a failed write, the old or the new bytes until the
//     next acknowledged write.
//   - Below quorum, a read returns the newest version an answering replica
//     holds.
//   - Every ErrNotFound is a provable miss.
//   - Every *DegradedError names exactly the replicas that are dead, fault
//     on every op or sit behind an open breaker.
//   - A pinned read returns the pinned version's bytes or ErrVersionMoved.
//   - A breaker opens only after three hard failures in a row, admits no op
//     until its cooldown has passed on the fake clock, and then half-opens:
//     its probe closes it, opens it again or, on a transient fault, leaves
//     it half-open.
func TestFleetMatchesOracle(t *testing.T) {
	seen := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 3 + rng.Intn(5)
		specs := make([]ShardSpec, n)
		o := &fleetOracle{t: t, shards: map[string]*oracleShard{}, blobs: map[string]*oracleBlob{}, seen: seen,
			clock: obs.NewFake(time.Unix(1700000000, 0).UTC())}
		for i := range specs {
			specs[i] = ShardSpec{Name: fmt.Sprintf("s%d", i), FaultSeed: uint64(trial)}
			if rng.Intn(4) == 0 {
				specs[i].FaultRate = 1
			}
			o.shards[specs[i].Name] = &oracleShard{faulting: specs[i].FaultRate > 0, holds: map[string]uint64{}}
		}
		var err error
		o.f, err = NewFleet(FleetConfig{Shards: specs, Replication: 1 + rng.Intn(3), Seed: uint64(trial),
			Clock: o.clock, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.f.CreateContainer("c"); err != nil {
			t.Fatal(err)
		}
		o.reached() // the create reached every live shard: the op counts' baseline
		for b := 0; b < 4; b++ {
			o.blobs[fmt.Sprintf("b%d", b)] = &oracleBlob{written: map[uint64][]byte{}, since: map[uint64]bool{}}
		}
		dead := specs[rng.Intn(n)].Name
		o.f.Kill(dead)
		o.shards[dead].dead = true

		for step := 0; step < 150; step++ {
			o.where = fmt.Sprintf("trial %d step %d", trial, step)
			blob := fmt.Sprintf("b%d", rng.Intn(len(o.blobs)))
			off, size := rng.Intn(2200), rng.Intn(1200)
			if rng.Intn(4) == 0 {
				off = 0
			}
			switch k := rng.Intn(20); {
			case k < 6:
				data := make([]byte, 1+rng.Intn(2000))
				rng.Read(data)
				o.write(blob, data)
			case k < 8:
				o.read(blob, true, 0, 0, 0)
			case k < 11:
				o.read(blob, false, off, size, 0)
			case k < 14:
				// Pinned to one of the blob's three newest versions, or to
				// version 1 of a blob never written.
				pin := uint64(1)
				if w := len(o.blobs[blob].written); w > 0 {
					pin = uint64(w - rng.Intn(min(w, 3)))
				}
				o.read(blob, false, off, size, pin)
			case k < 15:
				o.write(blob, nil)
			case k < 17:
				name := specs[rng.Intn(n)].Name
				o.f.Kill(name)
				o.shards[name].dead = true
			case k < 19:
				name := specs[rng.Intn(n)].Name
				o.f.Revive(name)
				o.shards[name].dead = false
			default:
				o.clock.Advance(time.Duration(5+rng.Intn(30)) * time.Second)
			}
		}
	}
	for _, what := range []string{"quorum read", "degraded read", "notfound", "moved", "degraded put", "degraded delete", "degraded get", "degraded getrange", "open", "probe"} {
		if seen[what] == 0 {
			t.Errorf("no %s in any trial: %v", what, seen)
		}
	}
}
