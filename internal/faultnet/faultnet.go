// Package faultnet is a deterministic, seeded fault-injection transport
// for chaos-testing the replication mesh. It implements the replica
// layer's Transport interface (Dial/Listen) over real loopback TCP, but
// every connection a node dials is wrapped in a fault layer that can
// inject latency and jitter, cap bandwidth, drop dials probabilistically,
// cut connections mid-frame, flip bytes in flight, and stall or reset
// traffic across scheduled (possibly asymmetric) partitions — then heal.
//
// Topology model: every node gets a Transport handle (Net.Transport);
// listeners register their chosen address as owned by their node, and a
// dialed address resolves to its owning node, so faults are configured
// per directed node pair (a Link). Faults are applied entirely on the
// dialing side's connection wrapper: writes are governed by the
// dialer→owner link, reads by the owner→dialer link, which makes
// asymmetric partitions and one-sided corruption expressible with a
// single wrapper. Link configuration and partitions are consulted on
// every operation, so reconfiguring the net mid-run affects in-flight
// connections: a partition severs (reset) or stalls (blackhole) live
// traffic, and a heal lets stalled blackhole traffic resume.
//
// Determinism: every probabilistic decision (drops, cuts, corruption,
// jitter) is drawn from a per-connection PRNG derived from the net's
// seed and a connection sequence number, so a fixed seed yields a
// reproducible fault pattern per connection. (Wall-clock interleaving
// still varies across runs; the seed pins the decisions, not the
// schedule.)
//
// A tap observes every chunk of data actually delivered, post-fault, in
// both directions — the hook the wire fuzz corpus generator uses to
// record realistic hostile byte streams.
package faultnet

import (
	"context"
	"math/rand"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// Any is the wildcard endpoint for SetLink: a link configured with Any
// on one side applies to every pair with that side unspecified (exact
// pairs take precedence, then wildcard-destination, then
// wildcard-source, then the default link).
const Any = "*"

// Link is the fault configuration of one directed node pair. The zero
// value is a perfect link.
type Link struct {
	// Latency is added to every transfer operation in this direction;
	// Jitter adds a uniform random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBPS caps throughput by pacing each transfer to
	// size/BandwidthBPS seconds; zero means unlimited.
	BandwidthBPS int
	// DropRate is the probability a dial attempt in this direction fails.
	DropRate float64
	// CutRate is the per-operation probability the connection is severed
	// mid-transfer: a prefix of the data is delivered, then the
	// connection dies — the mid-frame cut a crash or NAT timeout causes.
	CutRate float64
	// CorruptRate is the per-operation probability one random bit of the
	// transferred data is flipped in flight.
	CorruptRate float64
	// Blackhole selects how blocked traffic fails: false resets promptly
	// (connection refused / reset by peer), true silently discards — the
	// operation stalls until the partition heals, a deadline expires, or
	// the connection closes.
	Blackhole bool
}

// TapFunc observes one chunk of delivered data, post-fault, flowing
// from node from to node to. Called concurrently from connection
// goroutines; implementations synchronize themselves.
type TapFunc func(from, to string, data []byte)

// Option configures a Net.
type Option func(*Net)

// WithTap installs a delivery tap on the net.
func WithTap(tap TapFunc) Option { return func(n *Net) { n.tap = tap } }

// WithDialTimeout bounds how long a blackholed or partitioned dial may
// stall before timing out (default 2s); contexts still abort earlier.
func WithDialTimeout(d time.Duration) Option {
	return func(n *Net) {
		if d > 0 {
			n.dialTimeout = d
		}
	}
}

// Net is one fault-injected network: a set of node transports, the
// per-pair link table, and the current partition. Safe for concurrent
// use; reconfiguration applies to live connections.
type Net struct {
	seed        int64
	dialTimeout time.Duration
	tap         TapFunc

	mu          sync.Mutex
	rngSeq      int64
	defaultLink Link
	links       map[[2]string]Link
	owners      map[string]string // listen addr -> owning node
	blocked     map[[2]string]bool
}

// New creates a fault net whose probabilistic decisions derive from
// seed.
func New(seed int64, opts ...Option) *Net {
	n := &Net{
		seed:        seed,
		dialTimeout: 2 * time.Second,
		links:       make(map[[2]string]Link),
		owners:      make(map[string]string),
		blocked:     make(map[[2]string]bool),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// SetDefaultLink sets the link used for pairs with no specific
// configuration.
func (n *Net) SetDefaultLink(l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultLink = l
}

// SetLink configures the directed pair from→to; either side may be Any.
func (n *Net) SetLink(from, to string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{from, to}] = l
}

// link resolves the effective configuration of the directed pair.
func (n *Net) link(from, to string) Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, key := range [][2]string{{from, to}, {from, Any}, {Any, to}} {
		if l, ok := n.links[key]; ok {
			return l
		}
	}
	return n.defaultLink
}

// Block severs the directed pair from→to until Unblock or Heal. How
// blocked traffic fails (reset vs. stall) follows the pair's Blackhole
// setting.
func (n *Net) Block(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]string{from, to}] = true
}

// Unblock lifts one directed block.
func (n *Net) Unblock(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]string{from, to})
}

// Partition replaces the current block set with a full partition: every
// pair of nodes in different groups is blocked in both directions;
// traffic within a group (and to nodes in no group) flows normally.
func (n *Net) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]string]bool)
	for i, gi := range groups {
		for j, gj := range groups {
			if i == j {
				continue
			}
			for _, a := range gi {
				for _, b := range gj {
					n.blocked[[2]string{a, b}] = true
				}
			}
		}
	}
}

// Heal lifts every block.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]string]bool)
}

// isBlocked reports whether the directed pair is currently severed.
func (n *Net) isBlocked(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.blocked[[2]string{from, to}]
}

// Step is one entry of a partition schedule: the partition (nil Groups
// means healed) held for Hold.
type Step struct {
	Hold   time.Duration
	Groups [][]string
}

// RunSchedule drives the net through steps (looping when loop is true)
// until ctx is cancelled, then heals and closes the returned channel.
// Rolling-partition chaos scenarios are a looped two-step schedule with
// rotating group membership.
func (n *Net) RunSchedule(ctx context.Context, steps []Step, loop bool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer n.Heal()
		for {
			for _, s := range steps {
				if s.Groups == nil {
					n.Heal()
				} else {
					n.Partition(s.Groups...)
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(s.Hold):
				}
			}
			if !loop {
				return
			}
		}
	}()
	return done
}

// registerOwner records that addr is served by node.
func (n *Net) registerOwner(addr, node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.owners[addr] = node
}

// ownerOf resolves a dial address to its owning node ("" when unknown —
// an unregistered address gets the default link and is never
// partitioned).
func (n *Net) ownerOf(addr string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.owners[addr]
}

// connRNG derives a fresh per-connection PRNG from the seed and the
// connection sequence number.
func (n *Net) connRNG() *rand.Rand {
	n.mu.Lock()
	n.rngSeq++
	seq := n.rngSeq
	n.mu.Unlock()
	return rand.New(rand.NewSource(n.seed ^ (seq * 0x5851F42D4C957F2D)))
}

// Transport returns node's handle into the net: a replica-compatible
// Dial/Listen pair whose connections are fault-wrapped.
func (n *Net) Transport(node string) *Transport {
	return &Transport{net: n, node: node}
}

// Transport is one node's view of the fault net. It satisfies the
// replica layer's Transport interface.
type Transport struct {
	net  *Net
	node string
}

// Listen binds a real loopback TCP listener and registers its address
// as owned by this transport's node, so dials to it resolve their link
// configuration. Accepted connections are returned raw: all fault
// injection happens on the dialing side, in both directions.
func (t *Transport) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t.net.registerOwner(ln.Addr().String(), t.node)
	return ln, nil
}

// Dial opens a fault-wrapped connection to addr. Partitioned or dropped
// dials fail reset-style immediately, or — on blackhole links — stall
// until heal, the dial timeout, or ctx cancellation.
func (t *Transport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	fn := t.net
	owner := fn.ownerOf(addr)
	l := fn.link(t.node, owner)
	rng := fn.connRNG()
	deadline := time.Now().Add(fn.dialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if rng.Float64() < l.DropRate {
		if !l.Blackhole {
			return nil, &net.OpError{Op: "dial", Net: "faultnet", Err: syscall.ECONNREFUSED}
		}
		// A blackholed drop is a dial that never answers: burn the
		// timeout, honouring ctx.
		select {
		case <-ctx.Done():
			return nil, &net.OpError{Op: "dial", Net: "faultnet", Err: ctx.Err()}
		case <-time.After(time.Until(deadline)):
			return nil, &net.OpError{Op: "dial", Net: "faultnet", Err: os.ErrDeadlineExceeded}
		}
	}
	// A partitioned dial: reset links refuse promptly, blackhole links
	// wait for a heal within the timeout and then proceed.
	for fn.isBlocked(t.node, owner) {
		if !l.Blackhole {
			return nil, &net.OpError{Op: "dial", Net: "faultnet", Err: syscall.ECONNREFUSED}
		}
		if time.Now().After(deadline) {
			return nil, &net.OpError{Op: "dial", Net: "faultnet", Err: os.ErrDeadlineExceeded}
		}
		select {
		case <-ctx.Done():
			return nil, &net.OpError{Op: "dial", Net: "faultnet", Err: ctx.Err()}
		case <-time.After(time.Millisecond):
		}
	}
	if d := l.Latency + jitterOf(rng, l.Jitter); d > 0 {
		time.Sleep(d)
	}
	var nd net.Dialer
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	conn, err := nd.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: conn, fn: fn, from: t.node, to: owner, rng: rng}, nil
}

// jitterOf draws a uniform duration in [0, max).
func jitterOf(rng *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(max)))
}

// faultConn is the dial-side fault wrapper: writes are faulted by the
// from→to link, reads by the to→from link, and both consult the current
// partition per operation.
type faultConn struct {
	net.Conn
	fn       *Net
	from, to string

	rngMu sync.Mutex
	rng   *rand.Rand

	dlMu            sync.Mutex
	readDL, writeDL time.Time

	closeOnce sync.Once
	closed    chan struct{}
	initOnce  sync.Once
}

func (c *faultConn) init() {
	c.initOnce.Do(func() { c.closed = make(chan struct{}) })
}

// roll draws one probability decision.
func (c *faultConn) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Float64() < p
}

func (c *faultConn) jitter(max time.Duration) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return jitterOf(c.rng, max)
}

// flipBit flips one random bit of b in place.
func (c *faultConn) flipBit(b []byte) {
	if len(b) == 0 {
		return
	}
	c.rngMu.Lock()
	i := c.rng.Intn(len(b))
	bit := byte(1) << c.rng.Intn(8)
	c.rngMu.Unlock()
	b[i] ^= bit
}

func (c *faultConn) isClosed() bool {
	c.init()
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// Close severs the connection and wakes any blackhole-stalled
// operation.
func (c *faultConn) Close() error {
	c.init()
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDL, c.writeDL = t, t
	c.dlMu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDL = t
	c.dlMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.writeDL = t
	c.dlMu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *faultConn) deadline(read bool) time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	if read {
		return c.readDL
	}
	return c.writeDL
}

// gate enforces the current partition on one operation: nil to proceed,
// an error to fail the operation. Reset links sever the connection;
// blackhole links stall until heal, deadline, or close.
func (c *faultConn) gate(op string, from, to string, blackhole bool, read bool) error {
	for c.fn.isBlocked(from, to) {
		if c.isClosed() {
			return &net.OpError{Op: op, Net: "faultnet", Err: net.ErrClosed}
		}
		if !blackhole {
			c.Close()
			return &net.OpError{Op: op, Net: "faultnet", Err: syscall.ECONNRESET}
		}
		if dl := c.deadline(read); !dl.IsZero() && time.Now().After(dl) {
			return &net.OpError{Op: op, Net: "faultnet", Err: os.ErrDeadlineExceeded}
		}
		time.Sleep(time.Millisecond)
	}
	if c.isClosed() {
		return &net.OpError{Op: op, Net: "faultnet", Err: net.ErrClosed}
	}
	return nil
}

// pace applies latency, jitter and the bandwidth cap of a link to a
// transfer of n bytes.
func (c *faultConn) pace(l Link, n int) {
	d := l.Latency + c.jitter(l.Jitter)
	if l.BandwidthBPS > 0 {
		d += time.Duration(float64(n) / float64(l.BandwidthBPS) * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Write sends through the from→to link: partition gate, pacing, then
// possibly corrupted (one flipped bit) or cut (half delivered, then
// severed) data. Delivered bytes hit the tap.
func (c *faultConn) Write(p []byte) (int, error) {
	l := c.fn.link(c.from, c.to)
	if err := c.gate("write", c.from, c.to, l.Blackhole, false); err != nil {
		return 0, err
	}
	c.pace(l, len(p))
	data := p
	if c.roll(l.CorruptRate) {
		data = append([]byte(nil), p...)
		c.flipBit(data)
	}
	if c.roll(l.CutRate) {
		half := data[:len(data)/2]
		n, _ := c.Conn.Write(half)
		if c.fn.tap != nil && n > 0 {
			c.fn.tap(c.from, c.to, half[:n])
		}
		c.Close()
		return n, &net.OpError{Op: "write", Net: "faultnet", Err: syscall.ECONNRESET}
	}
	n, err := c.Conn.Write(data)
	if c.fn.tap != nil && n > 0 {
		c.fn.tap(c.from, c.to, data[:n])
	}
	return n, err
}

// Read receives through the to→from link: partition gate, pacing, then
// possibly corrupted or cut delivery. Delivered bytes hit the tap.
func (c *faultConn) Read(p []byte) (int, error) {
	l := c.fn.link(c.to, c.from)
	if err := c.gate("read", c.to, c.from, l.Blackhole, true); err != nil {
		return 0, err
	}
	if d := l.Latency + c.jitter(l.Jitter); d > 0 {
		time.Sleep(d)
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		if l.BandwidthBPS > 0 {
			time.Sleep(time.Duration(float64(n) / float64(l.BandwidthBPS) * float64(time.Second)))
		}
		if c.roll(l.CorruptRate) {
			c.flipBit(p[:n])
		}
		if c.roll(l.CutRate) {
			n /= 2
			c.Close()
		}
		if c.fn.tap != nil && n > 0 {
			c.fn.tap(c.to, c.from, p[:n])
		}
	}
	return n, err
}
