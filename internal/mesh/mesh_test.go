package mesh

// Engine unit tests against a scripted Syncer: supervision cadence,
// push-on-commit coalescing, backoff growth and recovery, outbox
// overflow, interest learning, removal and drain. Timing assertions are
// one-sided (at least / at most with generous slack) so loaded CI
// machines do not flake them.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// call records one MeshSync invocation.
type call struct {
	addr    string
	objects []string
}

// script is a programmable Syncer: fn decides each call's outcome, and
// every call is recorded.
type script struct {
	mu    sync.Mutex
	calls []call
	fn    func(ctx context.Context, n int, addr string, objects []string) (Report, error)
}

func (s *script) MeshSync(ctx context.Context, addr string, objects []string) (Report, error) {
	s.mu.Lock()
	n := len(s.calls)
	s.calls = append(s.calls, call{addr: addr, objects: slices.Clone(objects)})
	fn := s.fn
	s.mu.Unlock()
	if fn == nil {
		return Report{}, nil
	}
	return fn(ctx, n, addr, objects)
}

func (s *script) snapshot() []call {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.calls)
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fastConfig is a test cadence: rounds every 10ms, so the derived
// backoff (10ms doubling to 40ms) runs failure paths inside the test
// timeout.
func fastConfig() Config {
	return Config{
		Interval:   10 * time.Millisecond,
		PushDelay:  2 * time.Millisecond,
		OutboxSize: 4,
	}
}

func TestAntiEntropyRounds(t *testing.T) {
	s := &script{}
	e := New(s, fastConfig())
	defer e.Close()
	e.AddPeer("p1")

	waitFor(t, "three anti-entropy rounds", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Rounds >= 3
	})
	for _, c := range s.snapshot() {
		if c.addr != "p1" {
			t.Fatalf("synced unexpected peer %q", c.addr)
		}
		if c.objects != nil {
			t.Fatalf("anti-entropy round narrowed to %v, want all objects", c.objects)
		}
	}
	st, ok := e.PeerStats("p1")
	if !ok {
		t.Fatal("peer stats missing")
	}
	if st.Failures != 0 || st.Backoff != 0 || st.Score != 1 {
		t.Fatalf("healthy peer has failure state: %+v", st)
	}
	if st.LastConverged.IsZero() {
		t.Fatal("LastConverged not set after successful rounds")
	}
}

func TestPushOnCommitCoalesces(t *testing.T) {
	cfg := fastConfig()
	cfg.Interval = 2 * time.Second // isolate the push path: next round ≥2s after the probe
	cfg.PushDelay = 20 * time.Millisecond
	s := &script{}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")

	// The initial probe round runs at Interval/16; let it pass so the
	// next call observed is the push.
	waitFor(t, "initial probe", func() bool { return len(s.snapshot()) >= 1 })

	e.NotifyCommit("a")
	e.NotifyCommit("b") // lands within PushDelay: same push
	waitFor(t, "push round", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Pushes >= 1
	})
	var push *call
	for _, c := range s.snapshot() {
		if c.objects != nil {
			push = &c
			break
		}
	}
	if push == nil {
		t.Fatal("no narrowed push round recorded")
	}
	slices.Sort(push.objects)
	if !slices.Equal(push.objects, []string{"a", "b"}) {
		t.Fatalf("push round covered %v, want [a b]", push.objects)
	}
	st, _ := e.PeerStats("p1")
	if st.Pushes != 1 {
		t.Fatalf("burst of two commits cost %d pushes, want 1", st.Pushes)
	}
}

func TestBackoffGrowsAndRecovers(t *testing.T) {
	cfg := fastConfig()
	var failing sync.Map
	failing.Store("on", true)
	s := &script{}
	s.fn = func(_ context.Context, n int, addr string, objects []string) (Report, error) {
		if on, _ := failing.Load("on"); on.(bool) {
			return Report{}, errors.New("dial refused")
		}
		return Report{}, nil
	}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")

	waitFor(t, "three consecutive failures", func() bool {
		st, _ := e.PeerStats("p1")
		return st.ConsecutiveFailures >= 3
	})
	st, _ := e.PeerStats("p1")
	if want := 4 * cfg.Interval; st.Backoff < want {
		t.Fatalf("backoff %v after %d failures, want cap %v", st.Backoff, st.ConsecutiveFailures, want)
	}
	if st.Score >= 0.5 {
		t.Fatalf("score %v after repeated failures, want < 0.5", st.Score)
	}
	if st.LastError == "" {
		t.Fatal("LastError empty while failing")
	}

	failing.Store("on", false)
	waitFor(t, "recovery", func() bool {
		st, _ := e.PeerStats("p1")
		return st.ConsecutiveFailures == 0 && st.Rounds >= 1
	})
	st, _ = e.PeerStats("p1")
	if st.Backoff != 0 {
		t.Fatalf("backoff %v after success, want 0", st.Backoff)
	}
	if st.Score <= 0.5 {
		t.Fatalf("score %v after recovery, want > 0.5 (halfway to 1)", st.Score)
	}
	if st.LastError != "" {
		t.Fatalf("LastError %q after success, want cleared", st.LastError)
	}
	if st.Failures < 3 {
		t.Fatalf("cumulative Failures %d, want >= 3", st.Failures)
	}
}

// TestBackoffSchedule pins the schedule every mesh interval derives:
// jitter up to a quarter of the interval, backoff from an eighth of it
// (floored at 10ms) doubling to four intervals, and the fixed push,
// outbox and quarantine defaults.
func TestBackoffSchedule(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	for _, tc := range []struct {
		interval time.Duration // zero: the default
		jitter   time.Duration
		backoff  []time.Duration // failures 1, 2, ...
	}{
		{0, ms(500), []time.Duration{
			ms(250), ms(500), time.Second, 2 * time.Second, 4 * time.Second,
			8 * time.Second, 8 * time.Second}},
		{ms(50), ms(12.5), []time.Duration{
			ms(10), ms(20), ms(40), ms(80), ms(160), ms(200), ms(200)}},
		{ms(10), ms(2.5), []time.Duration{ms(10), ms(20), ms(40), ms(40)}},
	} {
		c := Config{Interval: tc.interval}.withDefaults()
		if got := c.maxJitter(); got != tc.jitter {
			t.Errorf("interval %v: jitter %v, want %v", c.Interval, got, tc.jitter)
		}
		for i, w := range tc.backoff {
			if got := c.backoff(i + 1); got != w {
				t.Errorf("interval %v: backoff(%d) = %v, want %v", c.Interval, i+1, got, w)
			}
		}
		if c.PushDelay != 5*time.Millisecond || c.OutboxSize != 64 {
			t.Errorf("push delay %v, outbox %d, want 5ms and 64", c.PushDelay, c.OutboxSize)
		}
		if c.QuarantineMin != time.Minute || c.QuarantineMax != 15*time.Minute || QuarantineAfter != 3 {
			t.Errorf("quarantine after %d, %v..%v, want 3, 1m..15m",
				QuarantineAfter, c.QuarantineMin, c.QuarantineMax)
		}
	}
	if got := (Config{}).withDefaults().Interval; got != 2*time.Second {
		t.Errorf("default interval %v, want 2s", got)
	}
}

func TestOutboxOverflowDegradesToFullRound(t *testing.T) {
	cfg := fastConfig()
	cfg.Interval = 2 * time.Second
	cfg.OutboxSize = 2
	cfg.PushDelay = 20 * time.Millisecond
	s := &script{}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")
	waitFor(t, "initial probe", func() bool { return len(s.snapshot()) >= 1 })

	before := len(s.snapshot())
	for _, o := range []string{"a", "b", "c"} { // third enqueue overflows
		e.NotifyCommit(o)
	}
	waitFor(t, "overflow push", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Pushes >= 1
	})
	calls := s.snapshot()
	if got := calls[before].objects; got != nil {
		t.Fatalf("overflowed outbox pushed %v, want nil (full round)", got)
	}
}

func TestUninterestedObjectsSkipPushes(t *testing.T) {
	cfg := fastConfig()
	cfg.Interval = 2 * time.Second
	s := &script{}
	s.fn = func(_ context.Context, n int, addr string, objects []string) (Report, error) {
		if objects == nil {
			return Report{Missed: []string{"x"}}, nil // full rounds probe: peer lacks x
		}
		return Report{}, nil
	}
	e := New(s, cfg)
	defer e.Close()
	e.AddPeer("p1")
	waitFor(t, "initial probe learning interest", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Rounds >= 1
	})

	e.NotifyCommit("x") // peer known uninterested: no push
	e.NotifyCommit("y")
	waitFor(t, "push for y", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Pushes >= 1
	})
	for _, c := range s.snapshot() {
		if slices.Contains(c.objects, "x") {
			t.Fatalf("pushed uninterested object x: %v", c.objects)
		}
	}
}

func TestRemovePeerStopsSupervision(t *testing.T) {
	s := &script{}
	e := New(s, fastConfig())
	defer e.Close()
	e.AddPeer("p1")
	e.AddPeer("p2")
	if got := e.Peers(); !slices.Equal(got, []string{"p1", "p2"}) {
		t.Fatalf("Peers() = %v", got)
	}
	waitFor(t, "p1 round", func() bool {
		st, _ := e.PeerStats("p1")
		return st.Rounds >= 1
	})
	e.RemovePeer("p1")
	e.RemovePeer("p1") // idempotent
	if got := e.Peers(); !slices.Equal(got, []string{"p2"}) {
		t.Fatalf("Peers() after remove = %v", got)
	}
	if _, ok := e.PeerStats("p1"); ok {
		t.Fatal("removed peer still reports stats")
	}
	// The supervisor exits: over a few intervals, the call count for p1
	// stops moving.
	var p1Calls = func() int {
		n := 0
		for _, c := range s.snapshot() {
			if c.addr == "p1" {
				n++
			}
		}
		return n
	}
	settled := p1Calls()
	time.Sleep(100 * time.Millisecond)         // ≥ 5 intervals: an alive supervisor would round
	if again := p1Calls(); again > settled+1 { // +1: a round already in flight may land
		t.Fatalf("removed peer kept syncing: %d -> %d calls", settled, again)
	}
}

// TestCloseDrainsBlockedSync: a sync that blocks until its context is
// cancelled does not wedge Close — Close cancels the engine context
// (unblocking the exchange) and waits for the supervisor to exit.
func TestCloseDrainsBlockedSync(t *testing.T) {
	started := make(chan struct{}, 1)
	s := &script{}
	s.fn = func(ctx context.Context, n int, addr string, objects []string) (Report, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // the real syncer's dial/exchange aborts the same way
		return Report{}, ctx.Err()
	}
	e := New(s, fastConfig())
	e.AddPeer("p1")
	<-started

	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a blocked sync")
	}
	e.Close() // idempotent
	e.AddPeer("p2")
	if got := e.Peers(); !slices.Equal(got, []string{"p1"}) {
		t.Fatalf("AddPeer after Close changed the peer set: %v", got)
	}
}
