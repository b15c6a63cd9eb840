package cloud

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/par"
)

// This file implements cloud.Fleet: a consistent-hash-sharded set of
// heterogeneous Store backends with N-way replication, quorum writes,
// quorum-preferred reads, per-shard health tracking (EWMA error rate) and
// a deterministic circuit breaker driven by an injected obs.Clock.
//
// Fleet itself satisfies Store, so Exchange and ExchangeBlocks route
// through it unchanged: the exchange pipeline sees one logical store that
// keeps answering while up to Replication-1 shards are dead, and surfaces
// partial-fleet outages as typed *DegradedError values with per-shard
// attribution instead of opaque failures.
//
// Determinism contract: all routing is a pure function of (ring, key) and
// the per-shard fault schedules are keyed per (op, container, blob,
// attempt), so for a fixed fleet seed the outcome of every exchange is
// byte-identical for any transfer-job count. A dead shard fails every op
// regardless of its attempt counters, which makes the breaker's fast-fail
// (skip) indistinguishable — at the level of returned data and quorum
// counts — from trying the shard and failing; breaker state may therefore
// depend on op interleaving without ever perturbing an ExchangeReport.

// BreakerState is a shard breaker's position in the closed → open →
// half-open state machine.
type BreakerState int

const (
	// BreakerClosed admits every op: the shard is believed healthy.
	BreakerClosed BreakerState = iota
	// BreakerOpen fast-fails every op until CoolDown elapses on the
	// injected clock.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe ops; their outcomes
	// decide between closing and re-opening.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig parameterizes the per-shard circuit breaker. The breaker
// trips on hard failures only (a down shard, an unexpected store error):
// injected *TransientError faults are the retry layer's business and mean
// the shard answered, so they feed the health EWMA but never open the
// breaker — that keeps breaker decisions independent of how concurrent
// blobs interleave their transient faults.
type BreakerConfig struct {
	// HardTrip is the consecutive-hard-failure count that opens the
	// breaker; <= 0 means 3.
	HardTrip int
	// CoolDown is how long the breaker stays open before allowing
	// half-open probes, measured on the injected clock; <= 0 means 30s.
	CoolDown time.Duration
	// HalfOpenProbes is how many probe ops half-open admits and how many
	// successes close the breaker; <= 0 means 1.
	HalfOpenProbes int
	// EWMAAlpha is the smoothing factor of the per-shard error-rate EWMA
	// (health tracking, exported as dna_fleet_shard_error_ewma); <= 0
	// means 0.25.
	EWMAAlpha float64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.HardTrip <= 0 {
		c.HardTrip = 3
	}
	if c.CoolDown <= 0 {
		c.CoolDown = 30 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.EWMAAlpha <= 0 {
		c.EWMAAlpha = 0.25
	}
	return c
}

// ShardSpec describes one heterogeneous backend of a Fleet: its identity,
// the store behind it, its seeded transient-fault schedule, and its
// modeled REST latency and bandwidth (the paper's point that backends
// differ in more than capacity).
type ShardSpec struct {
	// Name identifies the shard in errors, metrics and reports. Required,
	// unique within the fleet.
	Name string
	// Store is the backend; nil means a fresh in-memory BlobStore.
	Store Store
	// FaultRate, when > 0, wraps Store in a FaultyStore injecting seeded
	// transient failures at this rate.
	FaultRate float64
	// FaultSeed selects the shard's fault schedule (only used when
	// FaultRate > 0).
	FaultSeed uint64
	// LatencyMS is the modeled per-op round-trip overhead of this shard.
	LatencyMS float64
	// BandwidthMbps is the modeled transfer bandwidth; <= 0 means latency
	// only.
	BandwidthMbps float64
}

// DefaultShardSpecs builds n heterogeneous shards cycling through a small
// table of modeled backend classes (fast datacenter, standard, cross-region,
// cold), each with the given per-shard fault rate and a seed derived from
// the fleet seed — the fleet-scale analogue of the paper's VM grid.
func DefaultShardSpecs(n int, faultRate float64, seed uint64) []ShardSpec {
	classes := []struct {
		latencyMS float64
		bwMbps    float64
	}{
		{8, 200},
		{20, 100},
		{45, 40},
		{90, 10},
	}
	specs := make([]ShardSpec, n)
	for i := range specs {
		c := classes[i%len(classes)]
		specs[i] = ShardSpec{
			Name:          fmt.Sprintf("shard-%02d", i),
			FaultRate:     faultRate,
			FaultSeed:     hash64(seed, "shard", fmt.Sprintf("%d", i)),
			LatencyMS:     c.latencyMS,
			BandwidthMbps: c.bwMbps,
		}
	}
	return specs
}

// FleetConfig wires a Fleet.
type FleetConfig struct {
	// Shards are the backends. At least one is required.
	Shards []ShardSpec
	// Replication is how many distinct shards hold each blob; <= 0 means
	// min(3, len(Shards)), larger values are clamped to the shard count.
	Replication int
	// WriteQuorum is how many replica acks a Put/Delete needs; <= 0 means
	// a majority of Replication (R/2+1).
	WriteQuorum int
	// ReadQuorum is how many validated replica reads a Get prefers before
	// returning; <= 0 means a majority of Replication. With both quorums
	// at majority, W+R > N guarantees a quorum read observes the newest
	// version. A read that cannot reach quorum but reaches at least one
	// replica still succeeds (blobs are self-verifying armored frames) and
	// is counted as a degraded read.
	ReadQuorum int
	// VNodes is the virtual-node count per shard on the hash ring; <= 0
	// means 64.
	VNodes int
	// Seed keys the ring's hash placement.
	Seed uint64
	// Breaker parameterizes the per-shard circuit breaker.
	Breaker BreakerConfig
	// Clock drives the breaker's open→half-open timing. nil means
	// obs.System(); tests inject obs.NewFake and advance it by hand, so
	// breaker transitions never read wall time.
	Clock obs.Clock
	// Registry receives the dna_fleet_* series; nil means obs.Default().
	Registry *obs.Registry
}

// Typed fleet errors ------------------------------------------------------

// ShardDownError reports an op that reached a killed shard: a hard
// failure the breaker counts toward opening.
type ShardDownError struct {
	Shard string
	Op    string
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("cloud: shard %s is down (%s)", e.Shard, e.Op)
}

// BreakerOpenError reports an op the shard's open breaker fast-failed
// without touching the backend.
type BreakerOpenError struct {
	Shard string
	Op    string
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("cloud: shard %s breaker is open (%s)", e.Shard, e.Op)
}

// ShardError attributes one replica's failure to its shard.
type ShardError struct {
	Shard string
	Err   error
}

// DegradedError reports a fleet op that could not reach its quorum: which
// op on which blob, how many acks it got versus needed, and every
// replica's failure attributed to its shard. It unwraps to the per-shard
// errors, so errors.As finds a *TransientError inside (making a
// transiently-degraded op retryable) and IsTransient composes.
type DegradedError struct {
	Op        string
	Container string
	Blob      string
	// Acks is how many replicas acknowledged; Need is the quorum; Replicas
	// is the replica set size.
	Acks, Need, Replicas int
	// Misses counts replicas that answered "not found" (reads only).
	Misses int
	// Failures attributes each failed replica to its shard, in ring
	// preference order.
	Failures []ShardError
}

func (e *DegradedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cloud: degraded %s %s/%s: %d/%d acks across %d replicas", e.Op, e.Container, e.Blob, e.Acks, e.Need, e.Replicas)
	if e.Misses > 0 {
		fmt.Fprintf(&b, ", %d misses", e.Misses)
	}
	if len(e.Failures) > 0 {
		b.WriteString(" [")
		for i, f := range e.Failures {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s: %v", f.Shard, f.Err)
		}
		b.WriteString("]")
	}
	return b.String()
}

// Unwrap exposes the per-shard failures to errors.Is / errors.As.
func (e *DegradedError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}

// IsDegraded reports whether err carries a *DegradedError anywhere in its
// chain — the "partial-fleet outage" predicate callers branch on (the
// daemon turns it into 503 + Retry-After).
func IsDegraded(err error) bool {
	var d *DegradedError
	return errors.As(err, &d)
}

// Fleet -------------------------------------------------------------------

// fleetShard is one backend plus its runtime state: the kill switch, the
// breaker/health state machine, and modeled-cost aggregates. The modeled
// totals are kept as order-independent sums (op counts, byte counts) so a
// report derived from them is identical for any op interleaving.
type fleetShard struct {
	spec  ShardSpec
	store Store
	down  atomic.Bool

	mu           sync.Mutex
	state        BreakerState
	hardStreak   int
	probesIssued int
	probesOK     int
	openedAt     time.Time
	ewma         float64
	samples      uint64
	failures     uint64
	ops          uint64
	bytesMoved   uint64

	stateGauge *obs.Gauge
	ewmaGauge  *obs.Gauge
}

// outcomeKind classifies one shard op for the health/breaker machinery.
type outcomeKind int

const (
	outcomeOK   outcomeKind = iota // op succeeded, or shard answered "not found"
	outcomeSoft                    // injected transient failure: shard alive
	outcomeHard                    // shard down or unexpected store error
)

// Fleet is a consistent-hash-sharded, replicated Store. Safe for
// concurrent use. Construct with NewFleet.
type Fleet struct {
	cfg    FleetConfig
	shards []*fleetShard
	byName map[string]*fleetShard
	ring   []ringPoint
	clock  obs.Clock
	reg    *obs.Registry

	verMu    sync.Mutex
	versions map[string]uint64
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// NewFleet validates cfg and returns a ready fleet.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cloud: fleet needs at least one shard")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Replication > len(cfg.Shards) {
		cfg.Replication = len(cfg.Shards)
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = cfg.Replication/2 + 1
	}
	if cfg.WriteQuorum > cfg.Replication {
		return nil, fmt.Errorf("cloud: write quorum %d exceeds replication %d", cfg.WriteQuorum, cfg.Replication)
	}
	if cfg.ReadQuorum <= 0 {
		cfg.ReadQuorum = cfg.Replication/2 + 1
	}
	if cfg.ReadQuorum > cfg.Replication {
		return nil, fmt.Errorf("cloud: read quorum %d exceeds replication %d", cfg.ReadQuorum, cfg.Replication)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	cfg.Breaker = cfg.Breaker.withDefaults()
	if cfg.Clock == nil {
		cfg.Clock = obs.System()
	}
	reg := obs.OrDefault(cfg.Registry)

	f := &Fleet{
		cfg:      cfg,
		byName:   make(map[string]*fleetShard, len(cfg.Shards)),
		clock:    cfg.Clock,
		reg:      reg,
		versions: make(map[string]uint64),
	}
	for i, spec := range cfg.Shards {
		if spec.Name == "" {
			return nil, fmt.Errorf("cloud: shard %d has no name", i)
		}
		if _, dup := f.byName[spec.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate shard name %q", spec.Name)
		}
		store := spec.Store
		if store == nil {
			store = NewBlobStore()
		}
		if spec.FaultRate > 0 {
			store = NewFaultyStore(store, FaultConfig{Rate: spec.FaultRate, Seed: spec.FaultSeed})
		}
		sh := &fleetShard{
			spec:       spec,
			store:      store,
			stateGauge: reg.Gauge("dna_fleet_shard_state", "Breaker state per shard (0 closed, 1 open, 2 half-open).", "shard", spec.Name),
			ewmaGauge:  reg.Gauge("dna_fleet_shard_error_ewma", "EWMA error rate per shard from exchange outcomes.", "shard", spec.Name),
		}
		f.shards = append(f.shards, sh)
		f.byName[spec.Name] = sh
	}
	f.ring = buildRing(cfg.Shards, cfg.VNodes, cfg.Seed)
	return f, nil
}

// buildRing hashes VNodes virtual nodes per shard onto the ring, sorted by
// hash with shard index as the deterministic tiebreak.
func buildRing(shards []ShardSpec, vnodes int, seed uint64) []ringPoint {
	points := make([]ringPoint, 0, len(shards)*vnodes)
	for i, s := range shards {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{
				hash:  hash64(seed, "ring", s.Name, fmt.Sprintf("%d", v)),
				shard: i,
			})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		return points[a].shard < points[b].shard
	})
	return points
}

// replicaShards walks the ring clockwise from the key's point, collecting
// the first Replication distinct shards — the blob's replica set in
// failover preference order.
func (f *Fleet) replicaShards(container, blob string) []*fleetShard {
	key := hash64(f.cfg.Seed, "key", container, blob)
	start := sort.Search(len(f.ring), func(i int) bool { return f.ring[i].hash >= key })
	out := make([]*fleetShard, 0, f.cfg.Replication)
	seen := make(map[int]bool, f.cfg.Replication)
	for i := 0; i < len(f.ring) && len(out) < f.cfg.Replication; i++ {
		p := f.ring[(start+i)%len(f.ring)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, f.shards[p.shard])
		}
	}
	return out
}

// Replicas reports the shard names holding a blob's replicas, in failover
// preference order — the attribution tests and chaos harness key off it.
func (f *Fleet) Replicas(container, blob string) []string {
	reps := f.replicaShards(container, blob)
	names := make([]string, len(reps))
	for i, sh := range reps {
		names[i] = sh.spec.Name
	}
	return names
}

// ShardNames lists every shard in declaration order.
func (f *Fleet) ShardNames() []string {
	names := make([]string, len(f.shards))
	for i, sh := range f.shards {
		names[i] = sh.spec.Name
	}
	return names
}

// Kill marks the named shard dead: every op against it hard-fails until
// Revive. Reports whether the shard exists.
func (f *Fleet) Kill(name string) bool {
	sh, ok := f.byName[name]
	if ok {
		sh.down.Store(true)
	}
	return ok
}

// Revive brings a killed shard back. Its breaker still applies: an opened
// breaker waits out CoolDown on the injected clock, then half-open probes
// re-admit the shard.
func (f *Fleet) Revive(name string) bool {
	sh, ok := f.byName[name]
	if ok {
		sh.down.Store(false)
	}
	return ok
}

// BreakerStates snapshots every shard's breaker state by name.
func (f *Fleet) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(f.shards))
	for _, sh := range f.shards {
		sh.mu.Lock()
		out[sh.spec.Name] = sh.state
		sh.mu.Unlock()
	}
	return out
}

// --- breaker / health state machine -------------------------------------

// allow asks the shard's breaker whether an op may proceed. It owns the
// open→half-open transition (driven purely by the injected clock) and the
// half-open probe budget.
func (f *Fleet) allow(sh *fleetShard) bool {
	now := f.clock.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch sh.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(sh.openedAt) < f.cfg.Breaker.CoolDown {
			return false
		}
		f.transitionLocked(sh, BreakerHalfOpen)
		fallthrough
	case BreakerHalfOpen:
		if sh.probesIssued < f.cfg.Breaker.HalfOpenProbes {
			sh.probesIssued++
			return true
		}
		return false
	}
	return true
}

// record books one op outcome into the shard's health EWMA and breaker.
func (f *Fleet) record(sh *fleetShard, kind outcomeKind, nbytes int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	x := 0.0
	if kind != outcomeOK {
		x = 1.0
		sh.failures++
	}
	a := f.cfg.Breaker.EWMAAlpha
	sh.ewma = float64((1-a)*sh.ewma) + float64(a*x)
	sh.samples++
	sh.ops++
	sh.bytesMoved += uint64(nbytes)
	sh.ewmaGauge.Set(sh.ewma)

	switch kind {
	case outcomeOK:
		sh.hardStreak = 0
		if sh.state == BreakerHalfOpen {
			sh.probesOK++
			if sh.probesOK >= f.cfg.Breaker.HalfOpenProbes {
				f.transitionLocked(sh, BreakerClosed)
			}
		}
	case outcomeSoft:
		// The shard answered; transient faults are the retry layer's
		// business. In half-open the probe is inconclusive: return its
		// budget so a later op probes again.
		sh.hardStreak = 0
		if sh.state == BreakerHalfOpen && sh.probesIssued > 0 {
			sh.probesIssued--
		}
	case outcomeHard:
		sh.hardStreak++
		switch sh.state {
		case BreakerHalfOpen:
			f.transitionLocked(sh, BreakerOpen)
		case BreakerClosed:
			if sh.hardStreak >= f.cfg.Breaker.HardTrip {
				f.transitionLocked(sh, BreakerOpen)
			}
		}
	}
}

// transitionLocked moves the breaker to a new state; callers hold sh.mu.
func (f *Fleet) transitionLocked(sh *fleetShard, to BreakerState) {
	if sh.state == to {
		return
	}
	sh.state = to
	switch to {
	case BreakerOpen:
		sh.openedAt = f.clock.Now()
	case BreakerHalfOpen, BreakerClosed:
		sh.probesIssued = 0
		sh.probesOK = 0
	}
	sh.stateGauge.Set(float64(to))
	f.reg.Counter("dna_fleet_breaker_transitions_total", "Breaker state transitions per shard.",
		"shard", sh.spec.Name, "to", to.String()).Inc()
}

// shardOp runs one store op against one shard through the breaker, the
// kill switch and the health recorder. The returned error is the shard's
// own (possibly a typed *ShardDownError / *BreakerOpenError).
func (f *Fleet) shardOp(sh *fleetShard, op string, nbytes int, fn func(Store) error) error {
	if !f.allow(sh) {
		f.reg.Counter("dna_fleet_breaker_fastfail_total", "Ops fast-failed by an open breaker.", "shard", sh.spec.Name).Inc()
		return &BreakerOpenError{Shard: sh.spec.Name, Op: op}
	}
	if sh.down.Load() {
		f.record(sh, outcomeHard, 0)
		return &ShardDownError{Shard: sh.spec.Name, Op: op}
	}
	err := fn(sh.store)
	switch {
	case err == nil:
		f.record(sh, outcomeOK, nbytes)
	case IsTransient(err):
		f.record(sh, outcomeSoft, 0)
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrContainerExists):
		// The shard answered authoritatively: healthy, whatever the caller
		// makes of the answer.
		f.record(sh, outcomeOK, 0)
	default:
		f.record(sh, outcomeHard, 0)
	}
	return err
}

// modeledMS is the shard's modeled cost of moving nbytes in one op.
func (sh *fleetShard) modeledMS(nbytes int) float64 {
	ms := sh.spec.LatencyMS
	if sh.spec.BandwidthMbps > 0 {
		ms += float64(float64(nbytes) * 8 / (sh.spec.BandwidthMbps * 1e6) * 1e3)
	}
	return ms
}

// --- versioned envelope --------------------------------------------------

// Replicas store each blob inside a tiny version envelope (uvarint
// version + payload) so quorum reads can prefer the newest write when an
// overwrite only reached a quorum of replicas. The fleet is the single
// writer, so a fleet-local per-key counter is a sufficient version
// authority. The envelope is a write's one copy: in-memory replicas keep
// it as it is (keep), and nothing writes to it once it is sealed.
func sealVersion(version uint64, data []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], version)
	out := make([]byte, 0, n+len(data))
	out = append(out, hdr[:n]...)
	return append(out, data...)
}

func openVersion(env []byte) (uint64, []byte, error) {
	version, n := binary.Uvarint(env)
	if n <= 0 {
		return 0, nil, fmt.Errorf("cloud: replica envelope has no version header")
	}
	return version, env[n:], nil
}

func (f *Fleet) nextVersion(container, blob string) uint64 {
	key := container + "\x00" + blob
	f.verMu.Lock()
	defer f.verMu.Unlock()
	f.versions[key]++
	return f.versions[key]
}

// --- Store interface -----------------------------------------------------

// CreateContainer creates the container on every shard (fan-out, joined).
// Quorum semantics mirror writes: at least WriteQuorum shards must answer.
// If every answering shard already had the container the error is
// ErrContainerExists, matching single-store semantics the exchange
// pipeline already tolerates.
func (f *Fleet) CreateContainer(name string) error {
	results := f.fanOut(context.Background(), f.shards, "create", 0, func(st Store) error {
		return st.CreateContainer(name)
	})
	if _, err := f.writeQuorum("create", name, "", f.shards, results, ErrContainerExists); err != nil {
		return err
	}
	for _, err := range results {
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("%w: container %q on every reachable shard", ErrContainerExists, name)
}

// Put replicates the blob to its replica set concurrently (bounded by the
// replica count, joined before return) and succeeds once WriteQuorum
// replicas acknowledge. A replica whose shard never saw the container
// creates it on demand, so a shard that was dead during CreateContainer
// heals itself on its first write. The blob is sealed once into a version
// envelope that every in-memory replica keeps, so data stays the
// caller's. Concurrent Puts to *different* blobs are safe; callers
// serialize Puts to the same blob (the exchange pipeline's retry loop
// already does).
func (f *Fleet) Put(container, blob string, data []byte) error {
	return f.PutCtx(context.Background(), container, blob, data)
}

// PutCtx is Put with request-scoped tracing: under an active tracer in ctx
// it records a "fleet.put" span whose children are one "fleet.replica.put"
// span per replica attempt, each tagged with its shard name and outcome,
// so a request trace shows exactly which replicas carried the write.
// Tracing never changes behavior — without a tracer this is Put.
func (f *Fleet) PutCtx(ctx context.Context, container, blob string, data []byte) error {
	reps := f.replicaShards(container, blob)
	ctx, span := obs.Start(ctx, "fleet.put")
	defer span.End()
	span.SetAttr("container", container)
	span.SetAttr("blob", blob)
	span.SetAttr("replicas", len(reps))
	env := sealVersion(f.nextVersion(container, blob), data)
	results := f.fanOut(ctx, reps, "put", len(env), func(st Store) error {
		err := keep(st, container, blob, env)
		if err != nil && errors.Is(err, ErrNotFound) {
			// Container missing on this shard only: create and retry
			// once. Both steps sit inside the same shardOp outcome.
			if cerr := st.CreateContainer(container); cerr != nil && !errors.Is(cerr, ErrContainerExists) {
				return cerr
			}
			err = keep(st, container, blob, env)
		}
		return err
	})
	acks, err := f.writeQuorum("put", container, blob, reps, results, nil)
	span.SetAttr("acks", acks)
	if err != nil {
		return err
	}
	maxMS := 0.0
	for i, err := range results {
		if err == nil {
			maxMS = max(maxMS, reps[i].modeledMS(len(env)))
		}
	}
	f.reg.Histogram("dna_fleet_quorum_ms", "Modeled quorum latency per fleet op (slowest acked replica).", obs.DefMSBuckets(), "op", "put").Observe(maxMS)
	return nil
}

// Get reads the blob with quorum-preferred failover: replicas are tried in
// ring preference order until ReadQuorum validated responses arrive, and
// the newest version wins, read in full from one replica (quorumRead).
// If quorum is unreachable but at least one
// replica answered, the read still succeeds (replica payloads are
// self-verifying armored frames) and is counted as a degraded read. The
// blob is unavailable only when every replica's shard failed: all-miss is
// ErrNotFound, anything else a *DegradedError with per-shard attribution.
func (f *Fleet) Get(container, blob string) ([]byte, error) {
	return f.GetCtx(context.Background(), container, blob)
}

// GetCtx is Get with request-scoped tracing: a "fleet.get" span with one
// "fleet.replica.get" child per replica attempted (the quorum loop stops
// early, so the trace shows which replicas were actually consulted).
func (f *Fleet) GetCtx(ctx context.Context, container, blob string) ([]byte, error) {
	rr, err := f.quorumRead(ctx, "get", container, blob, 0, func(st Store) (replicaRead, error, error) {
		env, err := st.Get(container, blob)
		if err != nil {
			return replicaRead{}, nil, err
		}
		ver, payload, perr := openVersion(env)
		return replicaRead{ver: ver, data: payload, moved: len(env)}, perr, nil
	})
	return rr.data, err
}

// ErrVersionMoved reports a ranged read pinned to a version its read quorum
// no longer holds as the newest: the blob was overwritten after the read
// that returned the pin. The caller starts again from an unpinned read.
var ErrVersionMoved = errors.New("cloud: blob version moved")

// GetRange reads bytes [off, off+n) of the blob's payload, clipped to its
// end, with Get's quorum, not-found proof and *DegradedError semantics.
func (f *Fleet) GetRange(container, blob string, off, n int) ([]byte, error) {
	data, _, err := f.GetRangeCtx(context.Background(), container, blob, off, n, 0)
	return data, err
}

// GetRangeCtx is GetRange that also returns the version it read and,
// when pin is not 0, reads only that version: if the newest version its
// quorum holds is another, it fails with ErrVersionMoved (and returns the
// version it found). Two ranged reads of one blob, the second pinned to
// the version the first returned, therefore see one write, never parts of
// two. Like every quorum read, it takes the span from one replica
// (quorumRead). Traced as "fleet.getrange" with "fleet.replica.getrange"
// children.
func (f *Fleet) GetRangeCtx(ctx context.Context, container, blob string, off, n int, pin uint64) ([]byte, uint64, error) {
	if off < 0 || n < 0 || off > math.MaxInt-binary.MaxVarintLen64 || n > math.MaxInt-binary.MaxVarintLen64 {
		return nil, 0, fmt.Errorf("cloud: range [%d, +%d) of blob %q is out of bounds", off, n, blob)
	}
	rr, err := f.quorumRead(ctx, "getrange", container, blob, pin, func(st Store) (replicaRead, error, error) {
		return readEnvelopeRange(st, container, blob, off, n)
	})
	return rr.data, rr.ver, err
}

// replicaRead is one replica's answer to a read: its envelope's version,
// the payload bytes asked for, and the bytes the store returned.
type replicaRead struct {
	ver   uint64
	data  []byte
	moved int
	// torn marks a ranged read during which the envelope's version
	// changed: its bytes may belong to either version.
	torn bool
}

// readEnvelopeRange reads payload bytes [off, off+n) of one replica's
// version envelope. A read from the start is one store op, whose span
// covers the version header too. Any other read is three: the header, the
// span, and the header again. A replica writes each version once, so two
// equal headers prove the span between them is that version's; unequal
// ones mark the read torn. The returned envelope error is the replica's
// fault, the store error the shard's.
func readEnvelopeRange(st Store, container, blob string, off, n int) (replicaRead, error, error) {
	if off == 0 {
		env, err := st.GetRange(container, blob, 0, binary.MaxVarintLen64+n)
		if err != nil {
			return replicaRead{}, nil, err
		}
		ver, payload, perr := openVersion(env)
		return replicaRead{ver: ver, data: payload[:min(n, len(payload))], moved: len(env)}, perr, nil
	}
	hdr, err := st.GetRange(container, blob, 0, binary.MaxVarintLen64)
	if err != nil {
		return replicaRead{}, nil, err
	}
	ver, h := binary.Uvarint(hdr)
	if h <= 0 {
		return replicaRead{}, fmt.Errorf("cloud: replica envelope has no version header"), nil
	}
	data, err := st.GetRange(container, blob, h+off, n)
	if err != nil {
		return replicaRead{}, nil, err
	}
	again, err := st.GetRange(container, blob, 0, binary.MaxVarintLen64)
	if err != nil {
		return replicaRead{}, nil, err
	}
	ver2, h2 := binary.Uvarint(again)
	return replicaRead{ver: ver2, data: data, moved: len(hdr) + len(data) + len(again), torn: h2 <= 0 || ver2 != ver}, nil, nil
}

// readEnvelopeVersion reads only one replica's version header, in one
// store op of binary.MaxVarintLen64 bytes: the answer of a replica whose
// bytes a quorum read already holds from another.
func readEnvelopeVersion(st Store, container, blob string) (replicaRead, error, error) {
	hdr, err := st.GetRange(container, blob, 0, binary.MaxVarintLen64)
	if err != nil {
		return replicaRead{}, nil, err
	}
	ver, _, perr := openVersion(hdr)
	return replicaRead{ver: ver, moved: len(hdr)}, perr, nil
}

// quorumRead is the read loop of Get and GetRange: it tries replicas in
// ring preference order until ReadQuorum of them answer, and the newest
// version wins, an untorn read of it over a torn one. Its bytes come from
// one replica, the first read untorn (at the pin, if pin != 0); each
// further replica sends only its version header, and one whose header is
// newer is read in full and takes over. A read pinned to a version that
// is not the winner, or a torn winner, fails with ErrVersionMoved. Below
// quorum, one answer still serves the read as a degraded read; with none,
// a read quorum of misses is ErrNotFound and anything else a
// *DegradedError. Spans and metrics are labeled op.
func (f *Fleet) quorumRead(ctx context.Context, op, container, blob string, pin uint64, read func(Store) (replicaRead, error, error)) (replicaRead, error) {
	reps := f.replicaShards(container, blob)
	ctx, span := obs.Start(ctx, "fleet."+op)
	defer span.End()
	span.SetAttr("container", container)
	span.SetAttr("blob", blob)
	span.SetAttr("replicas", len(reps))
	var (
		best      replicaRead
		successes int
		misses    int
		failures  []ShardError
		modelMS   float64
	)
	for _, sh := range reps {
		var (
			rr     replicaRead
			envErr error
		)
		sourced := successes > 0 && !best.torn && (pin == 0 || best.ver == pin)
		err := func() error {
			_, rspan := obs.Start(ctx, "fleet.replica."+op)
			defer rspan.End()
			rspan.SetAttr("shard", sh.spec.Name)
			gerr := f.shardOp(sh, op, 0, func(st Store) error {
				var serr error
				if sourced {
					rr, envErr, serr = readEnvelopeVersion(st, container, blob)
					if serr != nil || envErr != nil || rr.ver <= best.ver {
						return serr
					}
				}
				hdr := rr.moved
				rr, envErr, serr = read(st)
				rr.moved += hdr
				return serr
			})
			rspan.SetAttr("outcome", replicaOutcome(gerr))
			return gerr
		}()
		switch {
		case err == nil:
			if envErr != nil {
				failures = append(failures, ShardError{Shard: sh.spec.Name, Err: envErr})
				continue
			}
			modelMS += sh.modeledMS(rr.moved)
			successes++
			if successes == 1 || rr.ver > best.ver || rr.ver == best.ver && best.torn {
				best = rr
			}
		case errors.Is(err, ErrNotFound):
			misses++
		default:
			failures = append(failures, ShardError{Shard: sh.spec.Name, Err: err})
		}
		if successes >= f.cfg.ReadQuorum {
			break
		}
	}
	span.SetAttr("acks", successes)
	switch {
	case successes > 0 && (best.torn || pin != 0 && best.ver != pin):
		f.opOutcome(op, "moved")
		return replicaRead{ver: best.ver}, fmt.Errorf("%w: %s/%s read at version %d, pinned to %d", ErrVersionMoved, container, blob, best.ver, pin)
	case successes >= f.cfg.ReadQuorum:
		f.opOutcome(op, "ok")
		f.reg.Histogram("dna_fleet_quorum_ms", "Modeled quorum latency per fleet op (slowest acked replica).", obs.DefMSBuckets(), "op", op).Observe(modelMS)
		return best, nil
	case successes > 0:
		f.opOutcome(op, "degraded_read")
		f.reg.Counter("dna_fleet_failovers_total", "Ops that succeeded despite replica failures.", "op", op).Inc()
		f.reg.Counter("dna_fleet_degraded_reads_total", "Reads served below read quorum (possibly stale).").Inc()
		return best, nil
	case misses >= f.cfg.ReadQuorum, len(failures) == 0:
		// A read-quorum of authoritative misses proves the blob was never
		// written (every write reaches a write quorum and quorums
		// intersect), so even a partially-dead fleet can answer "not
		// found" instead of "unavailable".
		f.opOutcome(op, "notfound")
		return replicaRead{}, fmt.Errorf("%w: blob %q in %q on %d of %d replicas", ErrNotFound, blob, container, misses, len(reps))
	default:
		f.opOutcome(op, "degraded")
		return replicaRead{}, &DegradedError{Op: op, Container: container, Blob: blob, Acks: successes, Need: 1, Replicas: len(reps), Misses: misses, Failures: failures}
	}
}

// Delete removes the blob from every replica (fan-out, joined). A replica
// that already lacks the blob counts as acknowledged — deletes are
// idempotent — and WriteQuorum acks make the delete durable.
func (f *Fleet) Delete(container, blob string) error {
	reps := f.replicaShards(container, blob)
	results := f.fanOut(context.Background(), reps, "delete", 0, func(st Store) error {
		return st.Delete(container, blob)
	})
	_, err := f.writeQuorum("delete", container, blob, reps, results, ErrNotFound)
	return err
}

// fanOut runs one write op on every shard in shards at once, one
// goroutine each (par.For), through shardOp under a "fleet.replica.<op>"
// span tagged with the shard and the outcome. Every shard runs, even on a
// done ctx: writeQuorum counts a nil result as an ack. It returns each
// shard's error in shards' order.
func (f *Fleet) fanOut(ctx context.Context, shards []*fleetShard, op string, nbytes int, fn func(Store) error) []error {
	name := "fleet.replica." + op
	results := make([]error, len(shards))
	par.For(len(shards), len(shards), func(i int) {
		_, span := obs.Start(ctx, name)
		defer span.End()
		span.SetAttr("shard", shards[i].spec.Name)
		results[i] = f.shardOp(shards[i], op, nbytes, fn)
		span.SetAttr("outcome", replicaOutcome(results[i]))
	})
	return results
}

// writeQuorum tallies a write fan-out's results. A shard acknowledges with
// no error or with one that is acked (ErrContainerExists for a create,
// ErrNotFound for a delete); any other error is its failure. Fewer than
// WriteQuorum acks make the op degraded, a *DegradedError; otherwise it is
// booked ok. A blob write that succeeded without every replica also books
// a failover; a container op spans every shard and books none.
func (f *Fleet) writeQuorum(op, container, blob string, shards []*fleetShard, results []error, acked error) (int, error) {
	acks := 0
	var failures []ShardError
	for i, err := range results {
		if err == nil || errors.Is(err, acked) {
			acks++
			continue
		}
		failures = append(failures, ShardError{Shard: shards[i].spec.Name, Err: err})
	}
	if blob != "" && acks > 0 && acks < len(shards) {
		f.reg.Counter("dna_fleet_failovers_total", "Ops that succeeded despite replica failures.", "op", op).Inc()
	}
	if acks < f.cfg.WriteQuorum {
		f.opOutcome(op, "degraded")
		return acks, &DegradedError{Op: op, Container: container, Blob: blob, Acks: acks, Need: f.cfg.WriteQuorum, Replicas: len(shards), Failures: failures}
	}
	f.opOutcome(op, "ok")
	return acks, nil
}

func (f *Fleet) opOutcome(op, outcome string) {
	f.reg.Counter("dna_fleet_ops_total", "Fleet-level store operations by final outcome.", "op", op, "outcome", outcome).Inc()
}

// replicaOutcome classifies one replica attempt for span attribution.
func replicaOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotFound):
		return "miss"
	default:
		var boe *BreakerOpenError
		if errors.As(err, &boe) {
			return "breaker_open"
		}
		return "error"
	}
}

// --- reporting -----------------------------------------------------------

// ShardReport is one shard's health snapshot.
type ShardReport struct {
	Name string
	// State is the breaker state ("closed", "open", "half-open").
	State string
	// Down reports the kill switch.
	Down bool
	// ErrorEWMA is the smoothed error rate from exchange outcomes.
	ErrorEWMA float64
	// Ops and Failures count recorded outcomes (breaker fast-fails are not
	// ops — the backend was never asked).
	Ops, Failures uint64
	// ModeledMS is the shard's total modeled transfer cost, derived from
	// order-independent aggregates (op count x latency + bytes / bandwidth).
	ModeledMS float64
}

// FleetReport snapshots every shard, in declaration order.
type FleetReport struct {
	Replication, WriteQuorum, ReadQuorum int
	Shards                               []ShardReport
}

// Report snapshots the fleet's per-shard health. Derived from aggregate
// counters only, so for a fixed fault schedule the modeled figures are
// identical no matter how concurrent ops interleaved.
func (f *Fleet) Report() FleetReport {
	rep := FleetReport{
		Replication: f.cfg.Replication,
		WriteQuorum: f.cfg.WriteQuorum,
		ReadQuorum:  f.cfg.ReadQuorum,
	}
	for _, sh := range f.shards {
		sh.mu.Lock()
		sr := ShardReport{
			Name:      sh.spec.Name,
			State:     sh.state.String(),
			Down:      sh.down.Load(),
			ErrorEWMA: sh.ewma,
			Ops:       sh.ops,
			Failures:  sh.failures,
			ModeledMS: float64(float64(sh.ops)*sh.spec.LatencyMS) + func() float64 {
				if sh.spec.BandwidthMbps <= 0 {
					return 0
				}
				return float64(sh.bytesMoved) * 8 / (sh.spec.BandwidthMbps * 1e6) * 1e3
			}(),
		}
		sh.mu.Unlock()
		rep.Shards = append(rep.Shards, sr)
	}
	return rep
}
