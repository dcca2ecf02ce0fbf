package main

// chat-sync: two durable nodes (FsyncNever) each hosting the same set of
// mergeable-log channels, synced over loopback TCP by one closed-loop
// client. A round appends a seeded burst on both nodes across random
// channels, calls SyncWith once, then reads one channel the peer wrote
// to. The run ends with a fresh durable node cold-joining every channel.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/mlog"
	"repro/peepul"
)

type chatSize struct {
	channels int // mergeable-log objects per node
	preload  int // entries per channel before the measured phase
	burst    int // appends per node per round
	setups   int
}

var (
	chatFull = chatSize{channels: 16, preload: 500, burst: 8, setups: 3}
	chatToy  = chatSize{channels: 3, preload: 20, burst: 2, setups: 2}
)

type chatHandle = peepul.Handle[mlog.State, mlog.Op, mlog.Val]

// chatNode is one node with its channel handles.
type chatNode struct {
	name string
	id   int
	dir  string
	node *peepul.Node
	ch   []*chatHandle
}

// chatOpen opens (or reopens) a durable chat node and its channels;
// with tr non-nil every channel and the transport are traced.
func chatOpen(name string, id int, dir string, channels int, tr *tracer) (*chatNode, error) {
	opts := []peepul.NodeOption{peepul.WithStorage(dir)}
	dt := peepul.MLog
	if tr != nil {
		opts = append(opts, peepul.WithTransport(timedTransport{inner: peepul.TCPTransport{}, tr: tr, node: name}))
	}
	node, err := peepul.NewNode(name, id, opts...)
	if err != nil {
		return nil, err
	}
	cn := &chatNode{name: name, id: id, dir: dir, node: node}
	for c := 0; c < channels; c++ {
		if tr != nil {
			dt = traced(peepul.MLog, tr, name, "mlog")
		}
		h, err := peepul.Open(node, dt, fmt.Sprintf("ch-%02d", c))
		if err != nil {
			node.Close()
			return nil, err
		}
		cn.ch = append(cn.ch, h)
	}
	if err := node.Listen("127.0.0.1:0"); err != nil {
		node.Close()
		return nil, err
	}
	return cn, nil
}

// chat is the running pair plus every message appended per channel.
type chat struct {
	a, b *chatNode
	sent [][]string
	rng  *rand.Rand
	msgs int
}

// message returns a fresh, unique message of seeded length.
func (c *chat) message(origin string) string {
	c.msgs++
	const letters = "abcdefghijklmnopqrstuvwxyz     "
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s#%d:", origin, c.msgs)
	for n := 16 + c.rng.Intn(48); n > 0; n-- {
		sb.WriteByte(letters[c.rng.Intn(len(letters))])
	}
	return sb.String()
}

func chatSetup(dir string, seed int64, sz chatSize) (*chat, error) {
	a, err := chatOpen("chat-a", 1, filepath.Join(dir, "a"), sz.channels, nil)
	if err != nil {
		return nil, err
	}
	b, err := chatOpen("chat-b", 2, filepath.Join(dir, "b"), sz.channels, nil)
	if err != nil {
		a.node.Close()
		return nil, err
	}
	c := &chat{a: a, b: b, sent: make([][]string, sz.channels), rng: rand.New(rand.NewSource(seed))}
	for ch := 0; ch < sz.channels; ch++ {
		for i := 0; i < sz.preload; i++ {
			n := a
			if i%2 == 1 {
				n = b
			}
			msg := c.message(n.name)
			if _, err := n.ch[ch].Do(mlog.Op{Kind: mlog.Append, Msg: msg}); err != nil {
				c.close()
				return nil, err
			}
			c.sent[ch] = append(c.sent[ch], msg)
		}
	}
	if err := a.node.SyncWith(b.node.Addr()); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *chat) close() error { return errors.Join(c.a.node.Close(), c.b.node.Close()) }

// chatTally is one measured phase's client record.
type chatTally struct {
	writes, reads, syncs samples
	errs, bad            int64
}

// rounds runs the closed loop for d. With tr non-nil each client call
// is a span (handle.do, node.sync, handle.state).
func (c *chat) rounds(d time.Duration, sz chatSize, tr *tracer) chatTally {
	var t chatTally
	call := func(s *samples, name, node string, f func() error) error {
		var id int32
		if tr != nil {
			id = tr.root(name, node)
		}
		start := time.Now()
		err := f()
		s.add(start)
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			t.errs++
		}
		return err
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		last := make(map[int]string) // channel → A's last message this round
		for _, n := range []*chatNode{c.b, c.a} {
			for j := 0; j < sz.burst; j++ {
				ch := c.rng.Intn(sz.channels)
				msg := c.message(n.name)
				err := call(&t.writes, "handle.do", n.name, func() error {
					_, err := n.ch[ch].Do(mlog.Op{Kind: mlog.Append, Msg: msg})
					return err
				})
				if err != nil {
					continue
				}
				c.sent[ch] = append(c.sent[ch], msg)
				if n == c.a {
					last[ch] = msg
				}
			}
		}
		if call(&t.syncs, "node.sync", c.a.name, func() error { return c.a.node.SyncWith(c.b.node.Addr()) }) != nil {
			continue
		}
		// B's reader opens every channel A wrote to and looks for A's
		// latest message there.
		for ch, msg := range last {
			var found bool
			err := call(&t.reads, "handle.state", c.b.name, func() error {
				s, err := c.b.ch[ch].State()
				for _, e := range s {
					if e.Msg == msg {
						found = true
						break
					}
				}
				return err
			})
			if err == nil && !found {
				t.bad++
			}
		}
	}
	return t
}

// wireBytes sums both directions of every node's sync traffic.
func wireBytes(nodes ...*peepul.Node) int64 {
	var n int64
	for _, node := range nodes {
		s := node.Stats()
		n += s.BytesSent + s.BytesRecv
	}
	return n
}

func diskBytes(nodes ...*chatNode) int64 {
	var n int64
	for _, cn := range nodes {
		for _, h := range cn.ch {
			if s, ok := h.StorageStats(); ok {
				n += s.Bytes
			}
		}
	}
	return n
}

// verifyChannels checks that every node holds the same head on every
// channel and that each channel holds every message sent to it exactly
// once. Each wrong channel or message counts one failed operation.
func (c *chat) verifyChannels(res *result, label string, nodes ...*chatNode) {
	var heads, msgs int64
	for ch := range c.sent {
		want := make(map[string]int, len(c.sent[ch]))
		for _, m := range c.sent[ch] {
			want[m] = 0
		}
		first, err := nodes[0].ch[ch].Store().HeadHash(nodes[0].name)
		if err != nil {
			heads++
		}
		for _, n := range nodes {
			if h, err := n.ch[ch].Store().HeadHash(n.name); err != nil || h != first {
				heads++
			}
			s, err := n.ch[ch].State()
			if err != nil {
				msgs += int64(len(want))
				continue
			}
			seen := make(map[string]int, len(s))
			for _, e := range s {
				seen[e.Msg]++
			}
			for m := range want {
				if seen[m] != 1 {
					msgs++
				}
			}
			if len(s) != len(want) {
				msgs++
			}
		}
	}
	res.verify(label+": identical heads on every channel", heads, "%d channel heads differ", heads)
	res.verify(label+": every message appears exactly once", msgs, "%d messages missing or duplicated", msgs)
}

// join cold-joins a fresh durable node to a and returns its time.
func (c *chat) join(dir string, channels int, tr *tracer) (*chatNode, time.Duration, error) {
	j, err := chatOpen("chat-join", 3, dir, channels, tr)
	if err != nil {
		return nil, 0, err
	}
	var id int32
	if tr != nil {
		id = tr.root("node.sync", j.name)
	}
	start := time.Now()
	err = j.node.SyncWith(c.a.node.Addr())
	el := time.Since(start)
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		j.node.Close()
		return nil, 0, err
	}
	return j, el, nil
}

func runChatSync(cfg config, res *result) error {
	sz := chatFull
	if cfg.toy {
		sz = chatToy
	}
	var (
		c     *chat
		times []time.Duration
		dir   string
	)
	for i := 0; i < sz.setups; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(cfg.dir, fmt.Sprintf("chat-%d", i))
		start := time.Now()
		var err error
		if c, err = chatSetup(dir, cfg.seed, sz); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start))
	}
	defer func() { c.close() }()
	res.set("setup_s", median(times).Seconds(), "s")

	res.set("heap_mb", heapMB(), "MB")

	wire0, disk0 := wireBytes(c.a.node, c.b.node), diskBytes(c.a, c.b)
	start := time.Now()
	t := c.rounds(cfg.measured(), sz, nil)
	c.tallyRounds(res, t, "chat-sync")
	setLatency(res, "write_us", t.writes)
	setLatency(res, "read_us", t.reads)
	setLatency(res, "sync_ms", t.syncs)
	res.set("ops_per_s", rate(start, time.Now(), t.writes, t.reads, t.syncs), "ops/s")
	writes := float64(len(t.writes))
	res.set("wire_bytes_per_write", ratio(float64(wireBytes(c.a.node, c.b.node)-wire0), writes), "B")
	res.set("disk_bytes_per_op", ratio(float64(diskBytes(c.a, c.b)-disk0), writes), "B")
	c.verifyChannels(res, "chat-sync", c.a, c.b)

	j, el, err := c.join(filepath.Join(dir, "join"), sz.channels, nil)
	res.ops(1, 0)
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}
	res.set("join_ms", ms(el), "ms")
	c.verifyChannels(res, "chat-sync join", c.a, c.b, j)
	if err := j.node.Close(); err != nil {
		return err
	}
	if err := c.close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return chatTraced(cfg, res, sz, t.syncs.steady(0.5))
}

func (c *chat) tallyRounds(res *result, t chatTally, label string) {
	res.ops(int64(len(t.writes)+len(t.reads)+len(t.syncs)), t.errs)
	res.verify(label+": each round's last message is readable on the peer", t.bad, "%d reads missed it", t.bad)
}

// chatTraced is the traced half of a run: a fresh set-up identical to
// the untraced half's, reopened with traced channels and transport, runs
// the rounds and then the cold join.
func chatTraced(cfg config, res *result, sz chatSize, untracedP50 time.Duration) error {
	dir := filepath.Join(cfg.dir, "chat-traced")
	c, err := chatSetup(dir, cfg.seed, sz)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	if err := c.close(); err != nil {
		return err
	}
	tr := newTracer()
	if c.a, err = chatOpen(c.a.name, c.a.id, c.a.dir, sz.channels, tr); err != nil {
		return err
	}
	if c.b, err = chatOpen(c.b.name, c.b.id, c.b.dir, sz.channels, tr); err != nil {
		c.a.node.Close()
		return err
	}
	defer func() { c.close() }()

	before := []peepul.SyncStats{c.a.node.Stats(), c.b.node.Stats()}
	disk0 := diskBytes(c.a, c.b)
	win := window{from: tr.now()}
	t := c.rounds(cfg.measured(), sz, tr)
	win.to = tr.now()
	c.tallyRounds(res, t, "chat-sync traced")
	writes := float64(len(t.writes))
	syncLayers(res, tr, win, float64(len(t.syncs)), "", []*chatNode{c.a, c.b}, before)
	a := tr.aggregate(win)
	res.set("mlog.do_ns", meanSelf(a, "mlog.do"), "ns")
	res.set("wire.encode_ns", meanSelf(a, "wire.encode"), "ns")
	res.set("wire.encode_bytes", meanVal(a, "wire.encode"), "B")
	res.set("store.apply_self_ns", meanSelf(a, "handle.do"), "ns")
	res.set("disk.bytes_per_write", ratio(float64(diskBytes(c.a, c.b)-disk0), writes), "B")
	res.set("trace.overhead_pct", 100*(float64(t.syncs.steady(0.5))-float64(untracedP50))/float64(untracedP50), "%")
	setPack(res, c.a.ch[0].Store().PackStats())
	setDelta(res, tr)
	c.verifyChannels(res, "chat-sync traced", c.a, c.b)

	win = window{from: tr.now()}
	beforeJoin := []peepul.SyncStats{{}, c.a.node.Stats()}
	j, _, err := c.join(filepath.Join(dir, "join"), sz.channels, tr)
	res.ops(1, 0)
	if err != nil {
		return fmt.Errorf("traced join: %w", err)
	}
	defer j.node.Close()
	win.to = tr.now()
	c.verifyChannels(res, "chat-sync traced join", c.a, c.b, j)
	syncLayers(res, tr, win, 1, "_join", []*chatNode{j, c.a}, beforeJoin)
	if err := tr.write(filepath.Join(cfg.out, "spans-chat-sync.tsv")); err != nil {
		return err
	}
	if err := j.node.Close(); err != nil {
		return err
	}
	if err := c.close(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// syncLayers reports the wire, mlog, recon and replica metrics of the
// syncs in w, with the given name suffix. nodes[0] is the syncing client;
// before holds each node's sync counters at the start of w.
func syncLayers(res *result, tr *tracer, w window, syncs float64, suffix string, nodes []*chatNode, before []peepul.SyncStats) {
	a := tr.aggregate(w)
	conns := tr.connsIn(w)
	var ranges, moved, redundant, patchesRecv, commitsRecv int64
	for i, n := range nodes {
		s, b := n.node.Stats(), before[i]
		if i == 0 {
			ranges = s.RangesSent - b.RangesSent
			moved = s.CommitsSent - b.CommitsSent + s.CommitsRecv - b.CommitsRecv
		}
		redundant += s.RedundantCommits - b.RedundantCommits
		patchesRecv += s.PatchesRecv - b.PatchesRecv
		commitsRecv += s.CommitsRecv - b.CommitsRecv
	}
	res.set("wire.read_wait_ns"+suffix, ratio(float64(conns.clientNs), syncs), "ns")
	res.set("wire.bytes_per_sync"+suffix, ratio(float64(conns.clientBytes), syncs), "B")
	res.set("wire.reads_per_sync"+suffix, ratio(float64(conns.clientReads), syncs), "count")
	res.set("wire.decode_ns"+suffix, meanSelf(a, "wire.decode"), "ns")
	res.set("mlog.merge_ns"+suffix, meanSelf(a, "mlog.merge"), "ns")
	res.set("mlog.merges_per_sync"+suffix, ratio(spanCount(a, "mlog.merge"), syncs), "count")
	res.set("recon.ranges_per_sync"+suffix, ratio(float64(ranges), syncs), "count")
	res.set("replica.commits_per_sync"+suffix, ratio(float64(moved), syncs), "count")
	res.set("replica.redundant_commits"+suffix, float64(redundant), "count")
	res.set("replica.patch_share"+suffix, ratio(float64(patchesRecv), float64(commitsRecv)), "ratio")
}
