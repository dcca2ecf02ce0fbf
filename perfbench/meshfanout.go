package main

// mesh-fanout: three in-memory nodes in a full mesh with default daemon
// settings, every node hosting the PN counters hits-0..hits-2. One
// open-loop generator goroutine increments hits-i on node i on a fixed
// schedule, taking the origins in turn, by a seeded amount; on every
// other node a Watch+State observer records when each write becomes
// visible. Writes and visibility are timed from the write's
// due time, so a stalled generator shows as latency, not as less load.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counter"
	"repro/peepul"
)

type meshSize struct {
	nodes  int
	period time.Duration // generator period: 10ms is ~100 writes/s
	setups int
	drain  time.Duration // how long writes may take to show everywhere
}

var (
	meshFull = meshSize{nodes: 3, period: 10 * time.Millisecond, setups: 3, drain: 20 * time.Second}
	meshToy  = meshSize{nodes: 3, period: 10 * time.Millisecond, setups: 2, drain: 10 * time.Second}
)

// spinWindow is how long before a write's due time the generator stops
// sleeping.
const spinWindow = 1500 * time.Microsecond

type counterHandle = peepul.Handle[counter.PNState, counter.Op, counter.Val]

// fleet is one running mesh. h[j][i] is node j's handle on hits-i.
type fleet struct {
	nodes []*peepul.Node
	h     [][]*counterHandle
	tr    *tracer
}

func meshSetup(sz meshSize, tr *tracer) (*fleet, error) {
	f := &fleet{tr: tr}
	for j := 0; j < sz.nodes; j++ {
		name := fmt.Sprintf("m%d", j)
		var opts []peepul.NodeOption
		dt := peepul.PNCounter
		if tr != nil {
			opts = append(opts, peepul.WithTransport(timedTransport{inner: peepul.TCPTransport{}, tr: tr, node: name}))
		}
		node, err := peepul.NewNode(name, j+1, opts...)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, node)
		var hs []*counterHandle
		for i := 0; i < sz.nodes; i++ {
			if tr != nil {
				dt = traced(peepul.PNCounter, tr, name, "counter")
			}
			h, err := peepul.Open(node, dt, fmt.Sprintf("hits-%d", i))
			if err != nil {
				f.close()
				return nil, err
			}
			hs = append(hs, h)
		}
		f.h = append(f.h, hs)
		if err := node.Listen("127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
	}
	for j, n := range f.nodes {
		for k, p := range f.nodes {
			if j != k {
				n.AddPeer(p.Addr())
			}
		}
	}
	// Warm-up: every supervisor has completed one anti-entropy round.
	deadline := time.Now().Add(30 * time.Second)
	for !f.warm() {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("mesh did not complete a first round with every peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f, nil
}

func (f *fleet) warm() bool {
	for _, n := range f.nodes {
		ms := n.MeshStats()
		if len(ms) != len(f.nodes)-1 {
			return false
		}
		for _, s := range ms {
			if s.Rounds < 1 {
				return false
			}
		}
	}
	return true
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		n.Close()
	}
}

type meshCounters struct{ rounds, pushes, failures int64 }

func (f *fleet) counters() meshCounters {
	var c meshCounters
	for _, n := range f.nodes {
		for _, s := range n.MeshStats() {
			c.rounds += s.Rounds
			c.pushes += s.Pushes
			c.failures += s.Failures
		}
	}
	return c
}

// mwrite is one scheduled write: when it was due and the origin
// counter's value once it has applied.
type mwrite struct {
	due time.Time
	cum int64
}

// meshTally is one measured phase's record.
type meshTally struct {
	writes, late, lags, reads samples
	errs, unseen              int64
	start, stop               time.Time // the generator's run
	sums                      []int64
	rounds                    meshCounters
	wire                      int64
}

// phase runs the generator for d, then drains until every peer shows
// every write. The observers run from before the first write until the
// drain ends.
func (f *fleet) phase(d time.Duration, seed int64, sz meshSize) meshTally {
	n := len(f.nodes)
	var (
		mu     = make([]sync.Mutex, n)
		writes = make([][]mwrite, n)
		next   = make([][]int, n) // next[j][i]: writes of origin i node j has shown
		lags   = make([]samples, n*n)
		reads  = make([]samples, n*n)
		rerrs  atomic.Int64
	)
	for j := range next {
		next[j] = make([]int, n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			events := f.h[j][i].Watch(ctx)
			wg.Add(1)
			go func(j, i int) {
				defer wg.Done()
				h, k := f.h[j][i], j*n+i
				for range events {
					var id int32
					if f.tr != nil {
						id = f.tr.root("handle.state", f.nodes[j].Name())
					}
					start := time.Now()
					s, err := h.State()
					seen := time.Now()
					if f.tr != nil {
						f.tr.end(id)
					}
					reads[k].addSpan(start, seen)
					if err != nil {
						rerrs.Add(1)
						continue
					}
					v := s.P - s.N
					mu[i].Lock()
					for next[j][i] < len(writes[i]) && writes[i][next[j][i]].cum <= v {
						lags[k].addSpan(writes[i][next[j][i]].due, seen)
						next[j][i]++
					}
					mu[i].Unlock()
				}
			}(j, i)
		}
	}

	var t meshTally
	t.sums = make([]int64, n)
	before := f.counters()
	wire0 := wireBytes(f.nodes...)
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * sz.period)
		if due.Sub(start) >= d {
			break
		}
		i := k % n
		amount := 1 + rng.Int63n(3)
		// Sleeps wake up to a millisecond late, so the last stretch before
		// the due time yields in a loop instead.
		if wait := time.Until(due); wait > spinWindow {
			time.Sleep(wait - spinWindow)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		began := time.Now()
		t.late.addSpan(due, began)
		// The write is registered before Do, so an observer that sees it
		// applied always finds it.
		mu[i].Lock()
		writes[i] = append(writes[i], mwrite{due: due, cum: t.sums[i] + amount})
		mu[i].Unlock()
		var id int32
		if f.tr != nil {
			id = f.tr.root("handle.do", f.nodes[i].Name())
		}
		_, err := f.h[i][i].Do(counter.Op{Kind: counter.Inc, N: amount})
		if f.tr != nil {
			f.tr.end(id)
		}
		t.writes.add(due)
		if err != nil {
			// A failed write leaves the model: nothing later can show it.
			t.errs++
			mu[i].Lock()
			writes[i] = writes[i][:len(writes[i])-1]
			mu[i].Unlock()
			continue
		}
		t.sums[i] += amount
	}
	t.start, t.stop = start, time.Now()

	drainEnd := time.Now().Add(sz.drain)
	for time.Now().Before(drainEnd) {
		if unseen(mu, writes, next) == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	t.unseen = unseen(mu, writes, next)
	t.lags = slices.Concat(lags...)
	t.reads = slices.Concat(reads...)
	t.errs += rerrs.Load()
	after := f.counters()
	t.rounds = meshCounters{after.rounds - before.rounds, after.pushes - before.pushes, after.failures - before.failures}
	t.wire = wireBytes(f.nodes...) - wire0
	return t
}

// unseen counts writes some peer has not shown yet.
func unseen(mu []sync.Mutex, writes [][]mwrite, next [][]int) int64 {
	var u int64
	for i := range writes {
		mu[i].Lock()
		least := len(writes[i])
		for j := range next {
			if j != i {
				least = min(least, next[j][i])
			}
		}
		u += int64(len(writes[i]) - least)
		mu[i].Unlock()
	}
	return u
}

// verify checks the drained fleet: every node's hits-i equals the sum
// written at origin i, and every object's head is the same everywhere.
func (f *fleet) verify(res *result, t meshTally, label string, drain time.Duration) {
	res.ops(int64(len(t.writes)+len(t.reads)), t.errs)
	res.verify(label+": every write is visible on every peer before the drain deadline", t.unseen, "%d writes unseen", t.unseen)
	deadline := time.Now().Add(drain)
	for !f.sameHeads() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var values, heads int64
	for i := range f.nodes {
		if !f.sameHead(i) {
			heads++
		}
		for j := range f.nodes {
			s, err := f.h[j][i].State()
			if err != nil || s.P-s.N != t.sums[i] {
				values++
			}
		}
	}
	res.verify(label+": hits-i equals the writes issued at origin i on every node", values, "%d counters wrong", values)
	res.verify(label+": heads identical after the drain", heads, "%d objects diverge", heads)
}

// sameHead reports whether every node's branch of hits-i has one head.
func (f *fleet) sameHead(i int) bool {
	first, err := f.h[0][i].Store().HeadHash(f.nodes[0].Name())
	if err != nil {
		return false
	}
	for j, n := range f.nodes[1:] {
		if h, err := f.h[j+1][i].Store().HeadHash(n.Name()); err != nil || h != first {
			return false
		}
	}
	return true
}

func (f *fleet) sameHeads() bool {
	for i := range f.nodes {
		if !f.sameHead(i) {
			return false
		}
	}
	return true
}

func runMeshFanout(cfg config, res *result) error {
	sz := meshFull
	if cfg.toy {
		sz = meshToy
	}
	var (
		f     *fleet
		times []time.Duration
	)
	for s := 0; s < sz.setups; s++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = meshSetup(sz, nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start))
	}
	defer func() { f.close() }()
	res.set("setup_s", median(times).Seconds(), "s")

	t := f.phase(cfg.measured(), cfg.seed, sz)
	setLatency(res, "write_us", t.writes)
	setLatency(res, "read_us", t.reads)
	setLatency(res, "lag_ms", t.lags)
	res.set("ops_per_s", rate(t.start, t.stop, t.writes, t.reads), "ops/s")
	res.set("wire_bytes_per_write", ratio(float64(t.wire), float64(len(t.writes))), "B")
	res.set("loadgen.late_ms_p99", ms(t.late.quantile(tail)), "ms")
	res.set("heap_mb", heapMB(), "MB")
	f.verify(res, t, "mesh-fanout", sz.drain)
	if !cfg.trace {
		return nil
	}

	f.close()
	tr := newTracer()
	var err error
	if f, err = meshSetup(sz, tr); err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	var ranges int64
	for _, n := range f.nodes {
		ranges -= n.Stats().RangesSent
	}
	win := window{from: tr.now()}
	tt := f.phase(cfg.measured(), cfg.seed, sz)
	win.to = tr.now()
	f.verify(res, tt, "mesh-fanout traced", sz.drain)
	writes := float64(len(tt.writes))
	a := tr.aggregate(win)
	conns := tr.connsIn(win)
	for _, n := range f.nodes {
		ranges += n.Stats().RangesSent
	}
	res.set("mesh.pushes_per_write", ratio(float64(tt.rounds.pushes), writes), "count")
	res.set("mesh.rounds_per_s", float64(tt.rounds.rounds)/tt.stop.Sub(tt.start).Seconds(), "1/s")
	res.set("mesh.failures_per_write", ratio(float64(tt.rounds.failures), writes), "count")
	res.set("wire.conn_ns", ratio(float64(conns.lifetimeNs), float64(conns.n)), "ns")
	res.set("replica.sessions_per_write", ratio(float64(conns.clients), writes), "count")
	res.set("recon.ranges_per_session", ratio(float64(ranges), float64(conns.clients)), "count")
	res.set("counter.merge_ns", meanSelf(a, "counter.merge"), "ns")
	res.set("wire.encode_ns", meanSelf(a, "wire.encode"), "ns")
	res.set("wire.encode_bytes", meanVal(a, "wire.encode"), "B")
	res.set("wire.decode_ns", meanSelf(a, "wire.decode"), "ns")
	res.set("store.apply_self_ns", meanSelf(a, "handle.do"), "ns")
	res.set("loadgen.late_ms_p99", ms(tt.late.quantile(tail)), "ms")
	res.set("trace.overhead_pct", 100*(float64(tt.lags.steady(0.5))-float64(t.lags.steady(0.5)))/float64(t.lags.steady(0.5)), "%")
	setPack(res, f.h[0][0].Store().PackStats())
	setDelta(res, tr)
	return tr.write(filepath.Join(cfg.out, "spans-mesh-fanout.tsv"))
}
