package main

// Tracing from outside the program: decorators the benchmark wraps around
// the layers' public seams (the MRDT implementation, the codec, the
// store's persister and the node's transport) record spans into an
// in-memory tracer. A span's parent is the innermost span still open on
// the same goroutine, so a layer's self time is its duration minus its
// children's, and work a lock holder does never lands on a waiter. Seams
// record only inside a root span — an operation the benchmark or a
// connection opened — so a workload can trace a sample of its calls.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/delta"
	"repro/internal/store"
	"repro/peepul"
)

type span struct {
	name   string
	node   string
	parent int32 // -1 for a root span
	gid    int64
	start  int64 // ns since the tracer's epoch
	end    int64
	val    int64 // bytes, for wire.encode
	cost   int64 // tracer time spent opening the span, before start
	root   bool
}

// connStat is one connection's wire accounting, kept beside its span.
type connStat struct {
	client            bool
	start, end        int64
	reads, readWaitNs int64
	bytes             int64
}

type tracer struct {
	epoch time.Time
	roots atomic.Int32 // root spans open

	mu    sync.Mutex
	spans []span
	open  map[int64][]int32 // goroutine → open span ids, innermost last
	conns []connStat
	pairs [][2][]byte // (previous, current) encodings sampled by codecs
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[int64][]int32), spans: make([]span, 0, 1<<16)}
}

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// goid parses the running goroutine's id from its stack header
// ("goroutine 42 [running]: ...").
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// root opens a span the benchmark or a connection starts, on the calling
// goroutine, and returns its id.
func (t *tracer) root(name, node string) int32 { return t.rootAt(name, node, t.now()) }

func (t *tracer) rootAt(name, node string, start int64) int32 {
	t.roots.Add(1)
	return t.open1(name, node, goid(), start, true)
}

// child opens a span nested in the innermost span open on the calling
// goroutine; with none open it records nothing and returns -1, so a
// seam called outside a sampled operation costs one atomic load.
func (t *tracer) child(name, node string) int32 {
	if t.roots.Load() == 0 {
		return -1
	}
	called := t.now()
	g := goid()
	t.mu.Lock()
	open := len(t.open[g]) > 0
	t.mu.Unlock()
	if !open {
		return -1
	}
	return t.open1(name, node, g, called, false)
}

// open1 records a span that was asked for at called; the tracer's own
// work until now counts neither to the span nor to its parent's self time.
func (t *tracer) open1(name, node string, g, called int64, root bool) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.now()
	if root {
		start = called
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{name: name, node: node, parent: parent, gid: g, start: start, end: -1, cost: start - called, root: root})
	t.open[g] = append(t.open[g], id)
	return id
}

// end closes span id, from any goroutine; -1 is a span child did not
// record.
func (t *tracer) end(id int32) { t.endVal(id, 0) }

// endVal closes span id and attaches a value to it.
func (t *tracer) endVal(id int32, val int64) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end, s.val = now, val
	if s.root {
		t.roots.Add(-1)
	}
	st := t.open[s.gid]
	if i := slices.Index(st, id); i >= 0 {
		st = slices.Delete(st, i, i+1)
	}
	if len(st) == 0 {
		delete(t.open, s.gid)
	} else {
		t.open[s.gid] = st
	}
}

// window is a time range of a tracer, in its epoch nanoseconds.
type window struct{ from, to int64 }

// agg is the per-name aggregate of the spans that started in a window.
type agg struct {
	n, self int64
	val     int64
	durs    []time.Duration
}

// aggregate sums spans by name over w. Self time is a span's duration
// minus the time its direct children cover.
func (t *tracer) aggregate(w window) map[string]*agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start + s.cost
		}
	}
	out := make(map[string]*agg)
	for i, s := range t.spans {
		if s.end < 0 || s.start < w.from || s.start >= w.to {
			continue
		}
		a := out[s.name]
		if a == nil {
			a = &agg{}
			out[s.name] = a
		}
		d := s.end - s.start
		a.n++
		a.self += d - child[i]
		a.val += s.val
		a.durs = append(a.durs, time.Duration(d))
	}
	return out
}

// meanSelf is the mean self time of name's spans, 0 without spans.
func meanSelf(a map[string]*agg, name string) float64 {
	if s := a[name]; s != nil && s.n > 0 {
		return float64(s.self) / float64(s.n)
	}
	return 0
}

// meanVal is the mean value attached to name's spans.
func meanVal(a map[string]*agg, name string) float64 {
	if s := a[name]; s != nil && s.n > 0 {
		return float64(s.val) / float64(s.n)
	}
	return 0
}

func spanCount(a map[string]*agg, name string) float64 {
	if s := a[name]; s != nil {
		return float64(s.n)
	}
	return 0
}

// connTotals sums the connections opened in w.
type connTotals struct {
	n, clients            int64
	clientReads, clientNs int64
	clientBytes           int64
	lifetimeNs            int64
}

func (t *tracer) connsIn(w window) connTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var c connTotals
	for _, s := range t.conns {
		if s.start < w.from || s.start >= w.to {
			continue
		}
		c.n++
		c.lifetimeNs += s.end - s.start
		if s.client {
			c.clients++
			c.clientReads += s.reads
			c.clientNs += s.readWaitNs
			c.clientBytes += s.bytes
		}
	}
	return c
}

// deltaSample times delta.Make over the sampled encoding pairs; it runs
// after the measured phase, so it adds nothing to the traced timings.
func (t *tracer) deltaSample() (makeNs, patchBytes float64) {
	t.mu.Lock()
	pairs := slices.Clone(t.pairs)
	t.mu.Unlock()
	if len(pairs) == 0 {
		return 0, 0
	}
	var ns, bytes int64
	for _, p := range pairs {
		start := time.Now()
		patch := delta.Make(p[0], p[1])
		ns += int64(time.Since(start))
		bytes += int64(len(patch))
	}
	return float64(ns) / float64(len(pairs)), float64(bytes) / float64(len(pairs))
}

// write stores every span as one tab-separated line:
// id, parent, name, node, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tnode\tstart_ns\tend_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\n", i, s.parent, s.name, s.node, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedImpl records a span around the MRDT's Do and Merge.
type timedImpl[S, Op, Val any] struct {
	inner             peepul.MRDT[S, Op, Val]
	tr                *tracer
	node              string
	doSpan, mergeSpan string
}

func (m timedImpl[S, Op, Val]) Init() S { return m.inner.Init() }

func (m timedImpl[S, Op, Val]) Do(op Op, s S, ts peepul.Timestamp) (S, Val) {
	id := m.tr.child(m.doSpan, m.node)
	next, v := m.inner.Do(op, s, ts)
	m.tr.end(id)
	return next, v
}

func (m timedImpl[S, Op, Val]) Merge(lca, a, b S) S {
	id := m.tr.child(m.mergeSpan, m.node)
	s := m.inner.Merge(lca, a, b)
	m.tr.end(id)
	return s
}

// pairEvery and maxPairs bound the encodings a codec keeps for the
// after-phase delta.Make sample: every 16th encode, at most 64 pairs.
const (
	pairEvery = 16
	maxPairs  = 64
)

// timedCodec records wire.encode and wire.decode spans and samples
// consecutive encodings of one object as (parent, child) pairs.
type timedCodec[S any] struct {
	inner peepul.Codec[S]
	tr    *tracer
	node  string

	mu      sync.Mutex
	prev    []byte
	encodes int
}

func (c *timedCodec[S]) Encode(s S) []byte {
	id := c.tr.child("wire.encode", c.node)
	b := c.inner.Encode(s)
	c.tr.endVal(id, int64(len(b)))
	c.mu.Lock()
	c.encodes++
	if c.encodes%pairEvery == 0 && c.prev != nil {
		c.tr.mu.Lock()
		if len(c.tr.pairs) < maxPairs {
			c.tr.pairs = append(c.tr.pairs, [2][]byte{c.prev, b})
		} else {
			c.tr.pairs[c.encodes/pairEvery%maxPairs] = [2][]byte{c.prev, b}
		}
		c.tr.mu.Unlock()
	}
	c.prev = b
	c.mu.Unlock()
	return b
}

func (c *timedCodec[S]) Decode(b []byte) (S, error) {
	id := c.tr.child("wire.decode", c.node)
	s, err := c.inner.Decode(b)
	c.tr.end(id)
	return s, err
}

// traced returns d with its implementation and codec wrapped; the name is
// unchanged, so a traced node opens objects an untraced one stored.
func traced[S, Op, Val any](d peepul.Datatype[S, Op, Val], tr *tracer, node, layer string) peepul.Datatype[S, Op, Val] {
	return peepul.Datatype[S, Op, Val]{
		Name:  d.Name,
		Impl:  timedImpl[S, Op, Val]{inner: d.Impl, tr: tr, node: node, doSpan: layer + ".do", mergeSpan: layer + ".merge"},
		Codec: &timedCodec[S]{inner: d.Codec, tr: tr, node: node},
	}
}

// timedPersister records disk.append and disk.flush spans around a
// store's persister (flush includes the fsync under FsyncAlways).
type timedPersister struct {
	inner store.Persister
	tr    *tracer
	node  string
}

func (p timedPersister) appendSpan(f func() error) error {
	id := p.tr.child("disk.append", p.node)
	err := f()
	p.tr.end(id)
	return err
}

func (p timedPersister) AppendCommit(h store.Hash, c store.Commit) error {
	return p.appendSpan(func() error { return p.inner.AppendCommit(h, c) })
}

func (p timedPersister) AppendObject(h store.Hash, o store.ObjectRecord) error {
	return p.appendSpan(func() error { return p.inner.AppendObject(h, o) })
}

func (p timedPersister) AppendBranch(name string, b store.BranchRecord) error {
	return p.appendSpan(func() error { return p.inner.AppendBranch(name, b) })
}

func (p timedPersister) AppendBranchDelete(name string) error {
	return p.appendSpan(func() error { return p.inner.AppendBranchDelete(name) })
}

func (p timedPersister) AppendNextID(id int) error {
	return p.appendSpan(func() error { return p.inner.AppendNextID(id) })
}

func (p timedPersister) Compact(rs *store.RecoveredState) error {
	id := p.tr.child("disk.compact", p.node)
	err := p.inner.Compact(rs)
	p.tr.end(id)
	return err
}

func (p timedPersister) Flush() error {
	id := p.tr.child("disk.flush", p.node)
	err := p.inner.Flush()
	p.tr.end(id)
	return err
}

// timedTransport opens a wire.conn span per connection: from the dial
// on the client, from the accept on the server (the span is pushed on
// the handler goroutine at its first read, so merges and decodes the
// handler runs nest under it).
type timedTransport struct {
	inner peepul.Transport
	tr    *tracer
	node  string
}

func (t timedTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	start := t.tr.now()
	c, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	tc := &timedConn{Conn: c, tr: t.tr, node: t.node, client: true, start: start}
	tc.span.Store(t.tr.rootAt("wire.conn", t.node, start))
	return tc, nil
}

func (t timedTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return timedListener{Listener: ln, tr: t.tr, node: t.node}, nil
}

type timedListener struct {
	net.Listener
	tr   *tracer
	node string
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &timedConn{Conn: c, tr: l.tr, node: l.node, start: l.tr.now()}
	tc.span.Store(-1)
	return tc, nil
}

type timedConn struct {
	net.Conn
	tr     *tracer
	node   string
	client bool
	start  int64

	span              atomic.Int32 // -1 until a server conn's first read
	reads, readWaitNs atomic.Int64
	bytes             atomic.Int64
	closeOnce         sync.Once
}

func (c *timedConn) Read(p []byte) (int, error) {
	if !c.client && c.span.Load() < 0 {
		c.span.Store(c.tr.rootAt("wire.conn", c.node, c.start))
	}
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.readWaitNs.Add(int64(time.Since(start)))
	c.reads.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *timedConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(func() {
		if id := c.span.Load(); id >= 0 {
			c.tr.end(id)
		}
		st := connStat{client: c.client, start: c.start, end: c.tr.now(),
			reads: c.reads.Load(), readWaitNs: c.readWaitNs.Load(), bytes: c.bytes.Load()}
		c.tr.mu.Lock()
		c.tr.conns = append(c.tr.conns, st)
		c.tr.mu.Unlock()
	})
	return err
}
