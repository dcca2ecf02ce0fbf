// Package mesh is the always-on replication engine: the background
// daemon that keeps a node converged with its peers without the
// application ever calling SyncWith. The paper's system model (and every
// deployment of it) assumes replicas that gossip continuously; this
// package supplies that loop as a supervisor per configured peer.
//
// Each peer gets one supervisor goroutine running jittered anti-entropy
// rounds: every Interval (plus up to Interval/4) the supervisor syncs every
// shared object with the peer through the same negotiate-and-ship-missing
// code path a manual SyncWith uses. Between rounds, local commits are
// pushed immediately: the replica layer calls NotifyCommit on every local
// operation and every remote-merge head move, the engine enqueues the
// object in a bounded per-peer outbox (bursts coalesce — the outbox is a
// set, and the supervisor waits PushDelay before draining it), and the
// supervisor runs a push round covering only the dirty objects. An outbox
// that overflows OutboxSize degrades to a full round, never drops a
// commit.
//
// Failure handling is per peer and classified: a transient failure (a
// failed dial, a reset — the peer is presumed down) doubles the retry
// delay (Interval/8, at least 10ms, up to 4·Interval) and halves the
// peer's health score; a success resets the backoff instantly and
// recovers the score halfway to 1 — fast recovery, so one blip does not
// linger. A protocol violation (Config.Classify reports FailViolation:
// corrupt frames, bad hellos, hash mismatches) additionally counts
// toward quarantine: after QuarantineAfter violations in a row the peer
// moves to the quarantine schedule (QuarantineMin doubling to
// QuarantineMax) with the triggering reason recorded in its PeerStats,
// and stays there until one clean exchange proves it recovered. While a peer is backing off or
// quarantined, pushes to it are suppressed (the outbox keeps
// accumulating) and the retry timer owns the schedule. Close cancels the
// engine context — aborting any in-flight dial or exchange — and drains
// every supervisor before returning, so a peer that is down can never
// wedge node shutdown.
//
// The engine knows nothing of the sync protocol: it drives a Syncer (the
// replica node) and consumes the per-round Report, including which
// objects the peer turned out not to host — those are skipped by later
// pushes until a full anti-entropy round observes the peer hosting them
// (the subscription model: interest is learned from the wire, not
// configured).
package mesh

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Report is what one sync exchange with a peer cost and found out.
// The replica layer fills it from its per-call byte and commit counters.
type Report struct {
	BytesSent   int64
	BytesRecv   int64
	CommitsSent int64
	CommitsRecv int64
	// Missed lists the requested objects the peer answered "not hosted"
	// (or "different datatype") for; the engine uses it to learn peer
	// interest so pushes skip objects the peer does not subscribe to.
	Missed []string
}

// Syncer runs one sync exchange with the peer at addr. objects narrows
// the exchange to the named objects (a push round); nil means every
// object the node hosts (an anti-entropy round). The context aborts an
// in-flight dial or exchange — engine shutdown cancels it. The Report
// must be valid (best-effort counters) even when err is non-nil.
type Syncer interface {
	MeshSync(ctx context.Context, addr string, objects []string) (Report, error)
}

// FailureClass is how the supervisor schedules retries after a failed
// exchange: the engine knows nothing of the sync protocol, so the
// Config.Classify hook (supplied by the replica layer) maps errors to
// classes.
type FailureClass int

const (
	// FailTransient is ordinary network trouble — refused or timed-out
	// dials, resets, stalls. The peer is presumed honest and merely
	// unreachable: the exponential backoff schedule applies.
	FailTransient FailureClass = iota
	// FailViolation is a protocol violation — corrupt frames, malformed
	// payloads, hash mismatches. The bytes arrived and were wrong:
	// enough violations in a row move the peer into quarantine, a far
	// slower retry schedule with the triggering reason recorded in
	// PeerStats.
	FailViolation
)

// Config tunes the engine. The zero value of any field selects its
// default.
type Config struct {
	// Interval is the anti-entropy round period per peer (default 2s).
	// The rest of the per-peer schedule derives from it: each round's
	// delay gets up to Interval/4 of random jitter, de-synchronizing
	// supervisors so a fleet does not dial in lockstep, and a failing
	// peer is retried after Interval/8 (never sooner than 10ms), doubling
	// per consecutive failure up to 4·Interval.
	Interval time.Duration
	// PushDelay is how long a supervisor waits after a commit
	// notification before draining the outbox, so a burst of commits
	// coalesces into one push round (default 5ms).
	PushDelay time.Duration
	// OutboxSize bounds the per-peer outbox (distinct dirty objects); an
	// overflowing outbox degrades to a full anti-entropy round (default
	// 64).
	OutboxSize int
	// Classify maps a failed exchange's error to its FailureClass. Nil
	// classifies everything transient (no quarantine).
	Classify func(error) FailureClass
	// QuarantineMin is the quarantined retry delay, doubling per further
	// violation up to QuarantineMax (defaults 1m and 15m). Both sit far
	// above the ordinary backoff window: a hostile peer is probed
	// occasionally for recovery, not retried eagerly.
	QuarantineMin time.Duration
	QuarantineMax time.Duration
	// Obs, when non-nil, receives the engine's metrics (round outcomes,
	// overflows, quarantine transitions — see obs.go). Nil disables
	// instrumentation.
	Obs *obs.Registry
	// Recorder, when non-nil, receives lifecycle events: backoff
	// changes, quarantine enter/lift with the triggering reason.
	Recorder *obs.Recorder
}

// QuarantineAfter is how many violations in a row — without an
// intervening success; transient failures in between do not reset the
// streak — move a peer into quarantine.
const QuarantineAfter = 3

// withDefaults resolves zero fields to the defaults.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.PushDelay <= 0 {
		c.PushDelay = 5 * time.Millisecond
	}
	if c.OutboxSize <= 0 {
		c.OutboxSize = 64
	}
	if c.QuarantineMin <= 0 {
		c.QuarantineMin = time.Minute
	}
	if c.QuarantineMax < c.QuarantineMin {
		c.QuarantineMax = max(15*time.Minute, c.QuarantineMin)
	}
	return c
}

// maxJitter is the largest random addition to a round's delay.
func (c Config) maxJitter() time.Duration { return c.Interval / 4 }

// minBackoff floors the first retry delay of fast cadences: redialing
// a peer that just failed sooner than this only adds load to the link.
const minBackoff = 10 * time.Millisecond

// backoff is the retry delay for the n-th consecutive failure:
// Interval/8 (at least minBackoff) doubling per failure, capped at
// 4·Interval.
func (c Config) backoff(n int) time.Duration {
	return doubled(max(c.Interval/8, minBackoff), 4*c.Interval, n)
}

// quarantineBackoff is the retry delay for the n-th violation past the
// quarantine threshold: QuarantineMin doubling up to QuarantineMax.
func (c Config) quarantineBackoff(n int) time.Duration {
	return doubled(c.QuarantineMin, c.QuarantineMax, n)
}

// doubled is lo doubled n-1 times, capped at hi.
func doubled(lo, hi time.Duration, n int) time.Duration {
	d := lo
	for i := 1; i < n && d < hi; i++ {
		d *= 2
	}
	return min(d, hi)
}

// PeerStats is a snapshot of one peer's supervisor state.
type PeerStats struct {
	// Addr is the peer's dial address.
	Addr string
	// Rounds counts completed anti-entropy rounds; Pushes counts
	// completed push-on-commit rounds.
	Rounds int64
	Pushes int64
	// Failures counts failed exchanges; ConsecutiveFailures is the
	// current failing streak (zero for a healthy peer).
	Failures            int64
	ConsecutiveFailures int
	// Backoff is the current retry delay (zero when healthy) and Score
	// the peer's health in (0, 1]: halved per failure, recovered halfway
	// to 1 per success.
	Backoff time.Duration
	Score   float64
	// Wire cost accumulated across this peer's exchanges, both
	// directions, client side.
	BytesSent   int64
	BytesRecv   int64
	CommitsSent int64
	CommitsRecv int64
	// LastConverged is when the last exchange completed successfully
	// (zero before the first); LastError is the most recent failure
	// message, cleared on success.
	LastConverged time.Time
	LastError     string
	// Violations counts exchanges that failed with a protocol violation
	// (as classified by Config.Classify) rather than plain network
	// trouble; ConsecutiveViolations is the streak since the last
	// success (transient failures in between do not reset it).
	Violations            int64
	ConsecutiveViolations int
	// Quarantined reports the peer is on the quarantine retry schedule;
	// Quarantines counts how many times it entered that state. The first
	// clean exchange lifts the quarantine. QuarantineReason is the error
	// that triggered the most recent quarantine; it is retained after
	// recovery as a record of what happened.
	Quarantined      bool
	Quarantines      int64
	QuarantineReason string
}

// Engine runs one supervisor per peer. Create with New, wire commits in
// with NotifyCommit, and Close to drain. Safe for concurrent use.
type Engine struct {
	syncer Syncer
	cfg    Config

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	wg     sync.WaitGroup

	mu     sync.RWMutex
	peers  map[string]*peer
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// metrics and rec are the optional instrumentation (obs.go); nil
	// without Config.Obs / Config.Recorder.
	metrics *meshMetrics
	rec     *obs.Recorder
}

// New creates an engine driving s. No goroutines start until AddPeer.
func New(s Syncer, cfg Config) *Engine {
	ctx, cancel := context.WithCancel(context.Background())
	return &Engine{
		syncer:  s,
		cfg:     cfg.withDefaults(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		peers:   make(map[string]*peer),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		metrics: newMeshMetrics(cfg.Obs),
		rec:     cfg.Recorder,
	}
}

// peer is one supervised peer: its outbox, failure state and counters,
// all guarded by mu except the channels.
type peer struct {
	addr    string
	kick    chan struct{} // cap 1: commit notifications, naturally coalescing
	removed chan struct{} // closed by RemovePeer

	mu sync.Mutex
	// outbox is the set of dirty objects awaiting a push; full records an
	// overflow (the next push degrades to a full round).
	outbox map[string]struct{}
	full   bool
	// uninterested is the learned non-subscription set: objects the peer
	// answered HelloMiss for on its most recent probe.
	uninterested map[string]struct{}
	stats        PeerStats
	removeOnce   sync.Once
}

// AddPeer registers addr and starts its supervisor. Re-adding a present
// peer (or adding after Close) is a no-op.
func (e *Engine) AddPeer(addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if _, ok := e.peers[addr]; ok {
		return
	}
	p := &peer{
		addr:    addr,
		kick:    make(chan struct{}, 1),
		removed: make(chan struct{}),
		stats:   PeerStats{Addr: addr, Score: 1},
	}
	e.peers[addr] = p
	e.wg.Add(1)
	go e.supervise(p)
}

// RemovePeer stops addr's supervisor (cancelling nothing in flight —
// the current exchange, if any, finishes or fails on its own) and
// forgets the peer. Removing an unknown peer is a no-op.
func (e *Engine) RemovePeer(addr string) {
	e.mu.Lock()
	p, ok := e.peers[addr]
	if ok {
		delete(e.peers, addr)
	}
	e.mu.Unlock()
	if ok {
		p.removeOnce.Do(func() {
			close(p.removed)
			e.forget(p)
		})
	}
}

// Peers returns the supervised peer addresses, sorted.
func (e *Engine) Peers() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.peers))
	for addr := range e.peers {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots every peer's supervisor state, keyed by address.
func (e *Engine) Stats() map[string]PeerStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]PeerStats, len(e.peers))
	for addr, p := range e.peers {
		p.mu.Lock()
		out[addr] = p.stats
		p.mu.Unlock()
	}
	return out
}

// PeerStats snapshots one peer's state; ok is false for unknown peers.
func (e *Engine) PeerStats(addr string) (PeerStats, bool) {
	e.mu.RLock()
	p, ok := e.peers[addr]
	e.mu.RUnlock()
	if !ok {
		return PeerStats{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats, true
}

// NotifyCommit records that object changed locally (a commit or a
// remote-merge head move) and kicks every peer's supervisor for an
// immediate push. Peers known not to host the object are skipped; peers
// in backoff accumulate the object for their next retry instead of being
// dialled while failing.
func (e *Engine) NotifyCommit(object string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return
	}
	for _, p := range e.peers {
		if p.enqueue(object, e.cfg.OutboxSize) {
			e.metrics.overflowed()
			e.event("outbox-overflow", p.addr, "next push degrades to a full round")
		}
	}
}

// enqueue adds object to the outbox (degrading to a full round on
// overflow) and kicks the supervisor. It reports whether this call
// overflowed the outbox (the transition, not the steady state).
func (p *peer) enqueue(object string, limit int) (overflowed bool) {
	p.mu.Lock()
	if _, skip := p.uninterested[object]; skip {
		p.mu.Unlock()
		return false
	}
	if !p.full {
		if p.outbox == nil {
			p.outbox = make(map[string]struct{})
		}
		if len(p.outbox) >= limit {
			p.outbox, p.full = nil, true
			overflowed = true
		} else {
			p.outbox[object] = struct{}{}
		}
	}
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
	return overflowed
}

// takeOutbox drains the outbox: the dirty object names (nil with
// full=true after an overflow — sync everything) and resets it.
func (p *peer) takeOutbox() (objects []string, full bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	full = p.full
	for o := range p.outbox {
		objects = append(objects, o)
	}
	p.outbox, p.full = nil, false
	return objects, full
}

// inBackoff reports whether the peer is on a failing streak.
func (p *peer) inBackoff() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats.ConsecutiveFailures > 0
}

// Close stops every supervisor, cancels any in-flight exchange, and
// waits for the drain. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.cancel()
	close(e.done)
	e.wg.Wait()
}

// jitter returns a uniform duration in [0, max).
func (e *Engine) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return time.Duration(e.rng.Int63n(int64(max)))
}

// supervise is one peer's daemon loop: an initial probe round almost
// immediately (jitter only), then anti-entropy every Interval+jitter,
// push rounds on kicks, and backoff-timed retries while failing.
func (e *Engine) supervise(p *peer) {
	defer e.wg.Done()
	timer := time.NewTimer(e.jitter(e.cfg.maxJitter()) + e.cfg.Interval/16)
	defer timer.Stop()
	for {
		push := false
		select {
		case <-e.done:
			return
		case <-p.removed:
			return
		case <-timer.C:
		case <-p.kick:
			// Coalesce the burst: commits arriving within PushDelay join
			// this push instead of paying one round each.
			coalesce := time.NewTimer(e.cfg.PushDelay)
			select {
			case <-e.done:
				coalesce.Stop()
				return
			case <-p.removed:
				coalesce.Stop()
				return
			case <-coalesce.C:
			}
			if p.inBackoff() {
				// A failing peer is the backoff timer's job; the outbox
				// keeps accumulating until the retry succeeds.
				continue
			}
			push = true
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		var objects []string
		if push {
			var full bool
			objects, full = p.takeOutbox()
			if full || len(objects) == 0 {
				objects = nil // overflow (or spurious kick): full round
			}
		}
		err := e.round(p, objects, push)
		timer.Reset(e.nextDelay(p, err))
	}
}

// round runs one exchange and folds its outcome into the peer's state.
func (e *Engine) round(p *peer, objects []string, push bool) error {
	kind := "full"
	if push {
		kind = "push"
	}
	rep, err := e.syncer.MeshSync(e.ctx, p.addr, objects)
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &p.stats
	prevBackoff, prevQuar := st.Backoff, st.Quarantined
	st.BytesSent += rep.BytesSent
	st.BytesRecv += rep.BytesRecv
	st.CommitsSent += rep.CommitsSent
	st.CommitsRecv += rep.CommitsRecv
	if err != nil {
		st.Failures++
		st.ConsecutiveFailures++
		st.Score /= 2
		st.LastError = err.Error()
		outcome := "transient"
		if e.cfg.Classify != nil && e.cfg.Classify(err) == FailViolation {
			outcome = "violation"
			st.Violations++
			st.ConsecutiveViolations++
			if !st.Quarantined && st.ConsecutiveViolations >= QuarantineAfter {
				st.Quarantined = true
				st.Quarantines++
				st.QuarantineReason = err.Error()
			}
		}
		// A quarantined peer retries on the quarantine schedule whatever
		// its failures look like now — recovery is declared by a clean
		// exchange, not by the violations merely pausing.
		if st.Quarantined {
			st.Backoff = e.cfg.quarantineBackoff(st.ConsecutiveViolations - QuarantineAfter + 1)
		} else {
			st.Backoff = e.cfg.backoff(st.ConsecutiveFailures)
		}
		e.metrics.round(kind, outcome)
		e.transitions(p, prevBackoff, prevQuar, st, err)
		return err
	}
	if push {
		st.Pushes++
		e.metrics.pushed(len(objects))
	} else {
		st.Rounds++
	}
	st.ConsecutiveFailures = 0
	st.ConsecutiveViolations = 0
	st.Quarantined = false
	st.Backoff = 0
	st.Score += (1 - st.Score) / 2
	st.LastError = ""
	st.LastConverged = time.Now()
	// Learn interest from the misses: a full round probed everything, so
	// its miss list replaces the set; a push round only refreshes the
	// objects it asked about.
	if objects == nil {
		p.uninterested = nil
		for _, o := range rep.Missed {
			if p.uninterested == nil {
				p.uninterested = make(map[string]struct{})
			}
			p.uninterested[o] = struct{}{}
		}
	} else {
		missed := make(map[string]struct{}, len(rep.Missed))
		for _, o := range rep.Missed {
			missed[o] = struct{}{}
		}
		for _, o := range objects {
			if _, m := missed[o]; m {
				if p.uninterested == nil {
					p.uninterested = make(map[string]struct{})
				}
				p.uninterested[o] = struct{}{}
			} else {
				delete(p.uninterested, o)
			}
		}
	}
	e.metrics.round(kind, "ok")
	e.transitions(p, prevBackoff, prevQuar, st, nil)
	return nil
}

// nextDelay schedules the supervisor's next wake-up: the jittered round
// interval when healthy, the current backoff (plus a fraction of jitter)
// when failing.
func (e *Engine) nextDelay(p *peer, err error) time.Duration {
	if err != nil {
		p.mu.Lock()
		d := p.stats.Backoff
		p.mu.Unlock()
		return d + e.jitter(e.cfg.maxJitter()/4+1)
	}
	return e.cfg.Interval + e.jitter(e.cfg.maxJitter())
}
