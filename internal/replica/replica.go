// Package replica is the network replication layer: it runs MRDTs on
// geo-distributed nodes that exchange their commit histories peer-to-peer
// over TCP — the deployment model of the paper's system (Irmin replicas
// synchronizing Git-style, §1, §7).
//
// A Node hosts any number of named replicated objects, the way an Irmin
// repository hosts many keys: each object is an independent versioned
// store (internal/store) of one registered datatype. One sync connection
// syncs every object the two nodes share, and there is one protocol:
//
//   - A session that covers every hosted object opens with a whole-node
//     span probe: a fingerprint folded over every object's commit set,
//     name and head. A match settles a converged pair in one round trip.
//   - Otherwise, per object, the client sends a hello {node, object,
//     datatype, head}. The server answers with an ack carrying its own
//     head, or with a miss for objects it does not host.
//   - A range-fingerprint descent over the two commit sets
//     (internal/recon) resolves the exact symmetric difference.
//   - A want list and one packed delta in each direction ship exactly
//     the missing commits, each state as a patch against its parent's
//     where possible.
//
// The receiver grafts the partial DAG onto the commits it already holds
// (content addressing deduplicates anything shipped twice) and performs a
// store Pull, whose DAG-based lowest common ancestor is correct even when
// history reached a node indirectly through third parties — ring and mesh
// gossip topologies converge, which per-pair state exchange cannot
// achieve. A re-sync of an already-converged pair therefore costs O(1)
// frames, not O(history). Merging is the store's job and keeps its
// guarantees verbatim: every pull merges over a base carrying exactly the
// operations common to both heads (Ψ_lca by construction), and
// fast-forwards adopt commits.
//
// Replication can be always-on: every node embeds an internal/mesh
// engine. Peers configured with WithPeers (or added with AddPeer) get a
// supervisor goroutine running jittered anti-entropy rounds through the
// same syncPeer code path a manual SyncWith uses, local commits and
// remote-merge head moves are pushed to interested peers immediately,
// and failures back off exponentially per peer. Watch exposes the merge
// path's head moves as a notification channel.
//
// Concurrency discipline: an exchange must integrate the peer's reply
// against the same head it exported — an operation slipped into that
// window would make the reply merge against a moved head, minting merge
// commits the peer has never seen and forcing another full round to
// reconcile them. The node therefore holds syncMu across the whole
// client exchange and takes it for every local commit (Do) and inbound
// merge, freezing the branch for the exchange's duration. Two nodes
// syncing each other simultaneously would deadlock on that discipline,
// so lock acquisition is tie-broken by node name: a server asked to
// merge by a client whose name sorts after its own only try-locks,
// answering
// "busy" when the node is itself mid-exchange — the client retries its
// round later, and no waits-for cycle can form because every blocking
// edge goes from a smaller to a larger name. Exchanges additionally
// serialize per peer address, so a daemon round and a manual SyncWith
// to the same peer never duplicate each other's transfer.
package replica

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/recon"
	"repro/internal/store"
	"repro/internal/wire"
)

// ErrProtocol is wrapped by all protocol-level failures.
var ErrProtocol = errors.New("replica: protocol error")

// ErrObject is wrapped by object lookup and registration failures.
var ErrObject = errors.New("replica: object error")

// ErrPeerBusy reports that the peer declined to merge because it was
// mid-exchange itself and the deadlock tie-break told it not to wait.
// The state is momentary: a retry (the mesh daemon's next round, or the
// caller repeating SyncWith) succeeds once the peer's exchange ends.
var ErrPeerBusy = errors.New("replica: peer busy")

// busyMsg is the wire form of ErrPeerBusy.
const busyMsg = "busy: node is mid-exchange, retry"

// Merge-lock patience: how long a handler on the busy-reject side of the
// name tie-break keeps try-locking before answering busy. Long enough to
// ride out other handlers' brief merge sections, far shorter than a
// client exchange it must not wait for.
const (
	mergeLockPatience = 25 * time.Millisecond
	mergeLockPoll     = 250 * time.Microsecond
)

// SyncStats counts sync traffic across both client and server roles.
// The node's aggregate stats cover both directions of every connection
// the node took part in; per-object stats attribute commits exactly and
// bytes to the object whose exchange was in flight when they crossed the
// wire. Commit counts are commits shipped, before content-address
// deduplication on the receiving side.
type SyncStats struct {
	BytesSent   int64
	BytesRecv   int64
	CommitsSent int64
	CommitsRecv int64
	// DeltaSyncs counts completed per-object exchanges, one per role (a
	// two-node exchange increments each node once).
	DeltaSyncs int64
	// Misses counts hellos answered with "object not hosted here".
	Misses int64
	// PatchesSent and PatchesRecv count commits that crossed the wire as
	// binary patches rather than full states.
	PatchesSent int64
	PatchesRecv int64
	// RangesSent and RangesRecv count reconciliation range probes, by
	// role: probes this node issued as a client and probes it answered
	// as a server. A converged pair exchanges exactly one per re-sync.
	RangesSent int64
	RangesRecv int64
	// RedundantCommits counts received commits that were already
	// present. Reconciliation resolves the exact diff, so this stays zero
	// unless a concurrent exchange delivered the same commits first.
	RedundantCommits int64
	// InboundShed counts inbound connections closed unserved because the
	// concurrent-session cap (maxInbound) was reached.
	InboundShed int64
}

type syncStats struct {
	bytesSent, bytesRecv     atomic.Int64
	commitsSent, commitsRecv atomic.Int64
	deltaSyncs, misses       atomic.Int64
	patchesSent, patchesRecv atomic.Int64
	rangesSent, rangesRecv   atomic.Int64
	redundantCommits         atomic.Int64
	inboundShed              atomic.Int64
}

func (s *syncStats) snapshot() SyncStats {
	return SyncStats{
		BytesSent:        s.bytesSent.Load(),
		BytesRecv:        s.bytesRecv.Load(),
		CommitsSent:      s.commitsSent.Load(),
		CommitsRecv:      s.commitsRecv.Load(),
		DeltaSyncs:       s.deltaSyncs.Load(),
		Misses:           s.misses.Load(),
		PatchesSent:      s.patchesSent.Load(),
		PatchesRecv:      s.patchesRecv.Load(),
		RangesSent:       s.rangesSent.Load(),
		RangesRecv:       s.rangesRecv.Load(),
		RedundantCommits: s.redundantCommits.Load(),
		InboundShed:      s.inboundShed.Load(),
	}
}

// callState is one client exchange's in-flight context: the byte and
// commit counters feeding the mesh Report and the flight-recorder span.
// span is nil (and every use of it a no-op) when the node runs without
// observability.
type callState struct {
	stats syncStats
	span  *spanRec
}

// countPatches reports how many of the commits travel as patches.
func countPatches(commits []store.ExportedCommit) int64 {
	n := int64(0)
	for i := range commits {
		if commits[i].Patch != nil {
			n++
		}
	}
	return n
}

// defaultSyncTimeout bounds how long one read or write of a sync
// exchange may stall (override with WithSyncTimeout). A peer that keeps
// making progress can transfer arbitrarily much; one that goes silent
// errors out instead of wedging the node (exchanges serialize per peer
// address, so an unbounded stall would block every later sync with that
// peer).
const defaultSyncTimeout = 30 * time.Second

// countedConn counts the bytes crossing a connection into the node's
// aggregate stats, the stats of the object whose exchange is in flight,
// and (client side) the per-exchange counters the mesh engine attributes
// to one peer. Every read and write refreshes the idle deadline, capped
// by the absolute session deadline.
type countedConn struct {
	net.Conn
	total *syncStats
	call  *syncStats // one exchange's counters; nil on inbound handlers
	obj   atomic.Pointer[syncStats]
	// idle is the per-operation stall bound; sessionEnd is the
	// whole-session deadline no refresh may extend past.
	idle       time.Duration
	sessionEnd time.Time
	// metrics feeds the per-frame wire counters (nil when the node runs
	// without observability).
	metrics *nodeMetrics
}

// FrameRead and FrameWrote implement wire.FrameMeter: the framing layer
// reports each complete frame's kind and size here.
func (c *countedConn) FrameRead(kind wire.FrameKind, bytes int) {
	c.metrics.frame(false, kind, bytes)
}

func (c *countedConn) FrameWrote(kind wire.FrameKind, bytes int) {
	c.metrics.frame(true, kind, bytes)
}

// stamp computes the next operation deadline: now+idle, clipped to the
// session end.
func (c *countedConn) stamp() time.Time {
	d := time.Now().Add(c.idle)
	if c.sessionEnd.Before(d) {
		d = c.sessionEnd
	}
	return d
}

func (c *countedConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(c.stamp()); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(p)
	c.total.bytesRecv.Add(int64(n))
	if c.call != nil {
		c.call.bytesRecv.Add(int64(n))
	}
	if s := c.obj.Load(); s != nil {
		s.bytesRecv.Add(int64(n))
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(c.stamp()); err != nil {
		return 0, err
	}
	n, err := c.Conn.Write(p)
	c.total.bytesSent.Add(int64(n))
	if c.call != nil {
		c.call.bytesSent.Add(int64(n))
	}
	if s := c.obj.Load(); s != nil {
		s.bytesSent.Add(int64(n))
	}
	return n, err
}

// newConn wraps a session connection with the node's byte accounting
// and deadline policy.
func (n *Node) newConn(conn net.Conn, call *syncStats) *countedConn {
	// The idle bound alone cannot stop a dribbling peer — one byte per
	// idle window makes progress forever — and a client exchange holds
	// the node's sync freeze, so the session bound is what caps how long
	// a hostile peer can hold syncMu.
	idle := n.cfg.syncTimeout()
	return &countedConn{Conn: conn, total: &n.total, call: call, idle: idle,
		sessionEnd: time.Now().Add(sessionPerIdle * idle), metrics: n.metrics}
}

// dialTimeout bounds a sync dial to a peer; context cancellation (node
// close, peer removal) aborts earlier.
const dialTimeout = 10 * time.Second

// dialPeer opens a sync connection through the node's transport,
// honouring ctx for both the dial and — via the returned stop func's
// AfterFunc registration in the caller — the life of the exchange.
func (n *Node) dialPeer(ctx context.Context, addr string) (net.Conn, error) {
	return n.cfg.transportOrTCP().Dial(ctx, addr)
}

// objectEntry pairs a hosted object with its sync counters, its Watch
// subscribers and, on durable nodes, its pack log.
type objectEntry struct {
	obj      Object
	log      *disk.Log
	stats    syncStats
	watchers *watcherSet
}

// Node is one replica hosting a set of named MRDT objects. It is safe
// for concurrent use.
type Node struct {
	name      string
	replicaID int
	cfg       nodeConfig

	mu      sync.Mutex // guards objects
	objects map[string]*objectEntry

	// syncMu freezes the node's branches for the duration of a client
	// exchange: syncPeer holds it from first export to last integrate,
	// and every other head-moving path — Do, local-branch pulls, inbound
	// handler merges — takes it too, so replies always integrate against
	// the head that was exported (see the package comment); handlers
	// avoid the resulting cross-node deadlock with the name tie-break in
	// acquireMergeLock.
	syncMu sync.Mutex

	// peerMus serializes whole exchanges per peer address, so a manual
	// SyncWith and a mesh daemon round to the same peer never run
	// concurrently (and never duplicate each other's transfer), while
	// exchanges with different peers overlap freely.
	peerMus sync.Map // addr -> *sync.Mutex

	// engine is the always-on sync daemon; it has no peers (and spawns
	// no goroutines) until WithPeers or AddPeer names some.
	engine *mesh.Engine

	total syncStats

	ln     net.Listener
	closed chan struct{}
	// inbound tracks live inbound session connections so Close can sever
	// them: a handler parked mid-read would otherwise hold wg.Wait until
	// its idle deadline fires.
	inboundMu sync.Mutex
	inbound   map[net.Conn]struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	// metrics and rec are the node's observability hooks (obs.go),
	// allocated by WithObservability / WithDebugAddr; nil by default, in
	// which case every instrumentation site is one nil check. debug is
	// the live debug HTTP server (debug.go), nil without WithDebugAddr.
	metrics *nodeMetrics
	rec     *obs.Recorder
	debug   *debugServer
}

// MaxReplicaID is the largest node id; each node reserves a block of 64
// branch-clock replica ids per object so that timestamps are unique
// fleet-wide within every object's DAG.
const MaxReplicaID = 1023

// NewNode creates a replica named name with fleet-unique id replicaID.
// Node names double as branch names in each object's embedded store and
// as peer identities on the wire; names and ids must be unique across the
// fleet. Options configure durable storage (WithStorage, WithFsync),
// the sync daemon, timeouts, transport and observability; storage
// options apply to every object subsequently opened on the node.
func NewNode(name string, replicaID int, opts ...NodeOption) (*Node, error) {
	if replicaID < 0 || replicaID > MaxReplicaID {
		return nil, fmt.Errorf("replica: id %d out of range [0, %d]", replicaID, MaxReplicaID)
	}
	n := &Node{
		name:      name,
		replicaID: replicaID,
		objects:   make(map[string]*objectEntry),
		inbound:   make(map[net.Conn]struct{}),
		closed:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(&n.cfg)
	}
	if n.cfg.obsEnabled {
		n.cfg.obsReg = obs.NewRegistry()
		n.cfg.obsRec = obs.NewRecorder()
		n.metrics = newNodeMetrics(n.cfg.obsReg)
		n.rec = n.cfg.obsRec
	}
	n.engine = mesh.New(n, n.cfg.meshConfig())
	for _, addr := range n.cfg.peers {
		n.engine.AddPeer(addr)
	}
	if n.cfg.debugAddr != "" {
		if err := n.startDebug(n.cfg.debugAddr); err != nil {
			n.engine.Close()
			return nil, err
		}
	}
	return n, nil
}

// AddPeer registers addr with the node's always-on sync daemon: a
// supervisor goroutine starts anti-entropy rounds against it immediately
// and receives push-on-commit notifications. Unreachable peers are
// retried with exponential backoff. Adding a present peer is a no-op.
func (n *Node) AddPeer(addr string) { n.engine.AddPeer(addr) }

// RemovePeer stops the daemon's supervision of addr. Removing an unknown
// peer is a no-op.
func (n *Node) RemovePeer(addr string) { n.engine.RemovePeer(addr) }

// Peers returns the daemon's supervised peer addresses, sorted.
func (n *Node) Peers() []string { return n.engine.Peers() }

// MeshStats snapshots the daemon's per-peer state: rounds, pushes,
// failures, backoff, health score, wire cost and last-converged time,
// keyed by peer address.
func (n *Node) MeshStats() map[string]mesh.PeerStats { return n.engine.Stats() }

// PeerMeshStats snapshots one peer's daemon state; ok is false for
// addresses the daemon does not supervise.
func (n *Node) PeerMeshStats(addr string) (mesh.PeerStats, bool) {
	return n.engine.PeerStats(addr)
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Objects returns the names of the hosted objects, sorted.
func (n *Node) Objects() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.objects))
	for name := range n.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Object returns the hosted object named object.
func (n *Node) Object(object string) (Object, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.objects[object]
	if !ok {
		return nil, false
	}
	return e.obj, true
}

// Stats returns a snapshot of the node's aggregate sync counters.
func (n *Node) Stats() SyncStats { return n.total.snapshot() }

// ObjectStats returns a snapshot of one object's sync counters (zero for
// objects the node does not host).
func (n *Node) ObjectStats(object string) SyncStats {
	n.mu.Lock()
	e, ok := n.objects[object]
	n.mu.Unlock()
	if !ok {
		return SyncStats{}
	}
	return e.stats.snapshot()
}

// entry returns the object entry for object, if hosted.
func (n *Node) entry(object string) (*objectEntry, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.objects[object]
	return e, ok
}

// Listen starts serving sync requests on addr ("127.0.0.1:0" picks a free
// port) through the node's transport. The chosen address is available
// from Addr.
func (n *Node) Listen(addr string) error {
	ln, err := n.cfg.transportOrTCP().Listen(addr)
	if err != nil {
		return err
	}
	n.ln = ln
	n.wg.Add(1)
	go n.serve()
	return nil
}

// Addr returns the listening address, or "" before Listen.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Close drains the mesh daemon (cancelling any in-flight round — a peer
// that is down cannot wedge shutdown), stops serving, waits for in-flight
// handlers, detaches every watcher, then flushes and closes every
// object's pack log, so a durable node's on-disk state is complete the
// moment Close returns. Close is idempotent: second and later calls are
// no-ops returning the first call's error.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.engine.Close()
		close(n.closed)
		if n.debug != nil {
			n.debug.close()
		}
		if n.ln != nil {
			n.closeErr = n.ln.Close()
		}
		// Sever live inbound sessions: a handler parked mid-read must not
		// hold shutdown until its idle deadline.
		n.inboundMu.Lock()
		for conn := range n.inbound {
			conn.Close()
		}
		n.inboundMu.Unlock()
		n.wg.Wait()
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, e := range n.objects {
			e.watchers.shutdown()
			if e.log == nil {
				continue
			}
			if err := e.obj.FlushStorage(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
			if err := e.log.Close(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}

// Accept-error backoff: a listener that keeps failing (fd exhaustion,
// say) is retried after acceptBackoffMin, doubling up to
// acceptBackoffMax, instead of spinning a core.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// serve accepts inbound sync sessions, one handler goroutine each, with
// concurrency capped by a semaphore (maxInbound): a dial storm gets
// its excess connections closed promptly instead of an unbounded
// goroutine pile-up (counted in SyncStats.InboundShed). Accept errors
// back off exponentially, as net/http does; the wait watches n.closed so
// Close stays prompt.
func (n *Node) serve() {
	defer n.wg.Done()
	sem := make(chan struct{}, maxInbound)
	var backoff time.Duration
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			t := time.NewTimer(backoff)
			select {
			case <-n.closed:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		select {
		case sem <- struct{}{}:
		default:
			n.total.inboundShed.Add(1)
			if m := n.metrics; m != nil {
				m.shed.Inc()
			}
			conn.Close()
			continue
		}
		n.inboundMu.Lock()
		n.inbound[conn] = struct{}{}
		n.inboundMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() { <-sem }()
			defer func() {
				conn.Close()
				n.inboundMu.Lock()
				delete(n.inbound, conn)
				n.inboundMu.Unlock()
			}()
			// A per-session stat set rides along so the handler's span can
			// report this session's bytes and commits in isolation.
			var sess syncStats
			n.handle(n.newConn(conn, &sess))
		}()
	}
}

// acquireMergeLock takes syncMu for an inbound merge on behalf of the
// named client, or reports false to answer busy. A server whose name
// sorts above the client's blocks outright; one whose name sorts below
// (or ties — a misconfigured fleet syncing itself) only try-locks, with
// a little patience to ride out other handlers' brief merge sections.
// Every blocking edge therefore goes from a smaller to a larger name,
// so the waits-for graph of a fleet of mutually-syncing nodes cannot
// contain a cycle: simultaneous exchanges resolve with one side's
// round answered busy and retried, never with a distributed deadlock.
func (n *Node) acquireMergeLock(client string) bool {
	if n.name > client {
		n.syncMu.Lock()
		return true
	}
	deadline := time.Now().Add(mergeLockPatience)
	for {
		if n.syncMu.TryLock() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(mergeLockPoll)
	}
}

// reconSession is the per-connection state of one object's exchange:
// set by the hello, consulted by the probe and want frames that follow
// on the same session, reset by the next hello. Sessions are
// single-goroutine, so no locking. token is a store install capture
// armed at the hello ack and consumed by the want handler's export:
// local commits installed while the descent is in flight (an Apply takes
// only the store lock, not the merge lock) would otherwise be invisible
// to both the probes and the want list, and a reply minted on top of
// them would graft onto commits the client has never heard of.
type reconSession struct {
	active bool
	e      *objectEntry
	hello  wire.Hello
	token  int
	// probes counts the range probes answered this exchange — the
	// server-side descent depth, observed when the want frame ends it.
	probes int
}

// release ends a live session's install capture (a no-op when the want
// handler's export already consumed it) and resets the session.
func (rs *reconSession) release() {
	if rs.active {
		rs.e.obj.EndInstallCapture(rs.token)
	}
	*rs = reconSession{}
}

// handle serves one inbound sync session. A session is a sequence of
// per-object exchanges on a single connection — a hello, range probes,
// then a want/delta finish — and ends when the client hangs up. A
// whole-node span probe may open a session (one frame confirms a
// converged pair).
func (n *Node) handle(conn *countedConn) {
	start := time.Now()
	sp := n.newSpan("server", "")
	// aborted marks a session this side ended on a violation; sessErr
	// carries the read error when the transport (not the protocol) broke,
	// so the span and outcome metric report the true failure class.
	aborted := false
	var sessErr error
	defer func() {
		if aborted && sessErr == nil && sp.failed() == "" {
			sessErr = fmt.Errorf("%w: session aborted", ErrProtocol)
		}
		sp.finish(conn.call, sessErr)
		if m := n.metrics; m != nil {
			m.sessionNsServer.Observe(time.Since(start).Nanoseconds())
			outcome := "ok"
			if sessErr != nil {
				outcome = failClassName(classifyFailure(sessErr))
			} else if c := sp.failed(); c != "" {
				outcome = c
			} else if aborted {
				outcome = "violation"
			}
			m.session("server", outcome)
		}
	}()
	var rs reconSession
	// A dropped connection or protocol error can abandon a session
	// mid-descent; its install capture must not keep recording forever.
	defer rs.release()
	for {
		kind, fields, err := wire.ReadMsg(conn)
		if err != nil {
			// Bare EOF is the client ending the session; anything else is
			// a framing violation worth reporting before hanging up.
			if !errors.Is(err, io.EOF) {
				wire.WriteMsg(conn, wire.FrameErr, []byte("bad request"))
				sessErr = err
			}
			return
		}
		switch kind {
		case wire.FrameHello:
			rs.release()
			if !n.handleHello(conn, fields, &rs, sp) {
				aborted = true
				return
			}
		case wire.FrameReconSpan:
			if !n.handleReconSpan(conn, fields, sp) {
				aborted = true
				return
			}
		case wire.FrameReconFP:
			if !n.handleReconProbe(conn, fields, &rs) {
				aborted = true
				return
			}
		case wire.FrameReconWant:
			if !n.handleReconWant(conn, fields, &rs, sp) {
				aborted = true
				return
			}
			rs.release()
		default:
			wire.WriteMsg(conn, wire.FrameErr, []byte("bad request"))
			aborted = true
			return
		}
	}
}

// handleHello opens one object's exchange: answer with the local head
// (or a miss for unhosted objects) and arm the session for the range
// probes and want frame that follow, which handle dispatches. The return
// value reports whether the session may continue.
func (n *Node) handleHello(conn *countedConn, fields [][]byte, rs *reconSession, sp *spanRec) bool {
	fail := func(msg string) { wire.WriteMsg(conn, wire.FrameErr, []byte(msg)) }
	hStart := time.Now()
	if len(fields) != 1 {
		fail("bad hello")
		return false
	}
	hello, err := wire.DecodeHello(fields[0])
	if err != nil {
		fail(err.Error())
		return false
	}
	sp.setPeer(hello.Node)
	// Re-point byte attribution before any reply: traffic of this
	// exchange must not land on the previous exchange's object.
	conn.obj.Store(nil)
	e, ok := n.entry(hello.Object)
	if !ok {
		n.total.misses.Add(1)
		wire.WriteMsg(conn, wire.FrameHelloMiss, []byte("object not hosted: "+hello.Object))
		return true
	}
	conn.obj.Store(&e.stats)
	if dt := e.obj.Datatype(); dt != hello.Datatype {
		n.total.misses.Add(1)
		e.stats.misses.Add(1)
		wire.WriteMsg(conn, wire.FrameHelloMiss,
			[]byte(fmt.Sprintf("object %s is %s here, peer has %s", hello.Object, dt, hello.Datatype)))
		return true
	}
	// Arm the session's install capture before the ack: every commit a
	// concurrent local Apply installs from here on joins the want
	// handler's reply, however the descent races it. The network round
	// trips happen outside syncMu — a stalled or malicious client must
	// only tie up its own handler, never the node's sync path.
	*rs = reconSession{active: true, e: e, hello: hello, token: e.obj.BeginInstallCapture()}
	head, err := e.obj.Head()
	if err != nil {
		fail(err.Error())
		return false
	}
	ack := wire.Hello{Node: n.name, Object: hello.Object, Datatype: hello.Datatype, Head: head}
	if wire.WriteMsg(conn, wire.FrameHelloAck, wire.EncodeHello(ack)) != nil {
		return false
	}
	sp.phase("negotiate", hello.Object, hStart)
	return true
}

// reconItemsCap is the range size below which a probed server
// enumerates the range instead of splitting it: recursion stops once
// enumeration is cheaper than more round trips.
const reconItemsCap = 64

// handleReconProbe answers one range-fingerprint probe. The answer needs
// no merge lock — it reads a consistent snapshot of the fingerprint tree
// under the store's read lock, and the client's own sync freeze keeps
// its side still; a range another exchange grows mid-descent surfaces as
// a re-negotiation next round, never as corruption.
func (n *Node) handleReconProbe(conn *countedConn, fields [][]byte, rs *reconSession) bool {
	fail := func(msg string) { wire.WriteMsg(conn, wire.FrameErr, []byte(msg)) }
	if !rs.active || len(fields) != 1 {
		fail("recon probe outside a recon exchange")
		return false
	}
	rr, err := wire.DecodeReconRange(fields[0])
	if err != nil {
		fail(err.Error())
		return false
	}
	n.total.rangesRecv.Add(1)
	rs.e.stats.rangesRecv.Add(1)
	rs.probes++
	if m := n.metrics; m != nil {
		m.rangesServer.Inc()
	}
	fp, count := rs.e.obj.ReconRange(rr.X, rr.Y)
	switch {
	case fp == rr.FP && count == rr.Count:
		return wire.WriteMsg(conn, wire.FrameReconMatch) == nil
	case count == 0:
		return wire.WriteMsg(conn, wire.FrameReconEmptyRange) == nil
	case count <= reconItemsCap:
		items := rs.e.obj.ReconItems(rr.X, rr.Y, count)
		return wire.WriteMsg(conn, wire.FrameReconItems, wire.EncodeReconItems(items)) == nil
	default:
		// Split at the median item; both halves are non-empty because
		// count > reconItemsCap ≥ 2, so the descent strictly shrinks.
		mid, ok := rs.e.obj.ReconSelect(rr.X, rr.Y, count/2)
		if !ok {
			fail("recon split lost the range")
			return false
		}
		fpLo, cLo := rs.e.obj.ReconRange(rr.X, mid)
		fpHi, cHi := rs.e.obj.ReconRange(mid, rr.Y)
		sp := wire.ReconSplit{Mid: mid, FPLo: fpLo, CountLo: cLo, FPHi: fpHi, CountHi: cHi}
		return wire.WriteMsg(conn, wire.FrameReconSplit, wire.EncodeReconSplit(sp)) == nil
	}
}

// handleReconWant finishes a recon exchange: read the client's want list
// and its delta of commits we lack, merge, and reply with exactly the
// wanted commits plus whatever merge commits the pull minted — commits
// the client cannot have, grafted onto commits it provably has, so the
// reply re-ships nothing.
func (n *Node) handleReconWant(conn *countedConn, fields [][]byte, rs *reconSession, sp *spanRec) bool {
	fail := func(msg string) { wire.WriteMsg(conn, wire.FrameErr, []byte(msg)) }
	wStart := time.Now()
	if !rs.active || len(fields) != 1 {
		fail("recon want outside a recon exchange")
		return false
	}
	want, err := wire.DecodeReconWant(fields[0])
	if err != nil {
		fail(err.Error())
		return false
	}
	commits, head, err := wire.ReadDelta(conn)
	if err != nil {
		fail(err.Error())
		return false
	}
	e := rs.e
	if !n.acquireMergeLock(rs.hello.Node) {
		sp.failTransient(busyMsg)
		fail(busyMsg)
		return false
	}
	redundant, fresh, minted, err := e.obj.IntegrateExact("remote/"+rs.hello.Node, commits, head)
	var reply []store.ExportedCommit
	var replyHead store.Hash
	if err == nil {
		ship := make(map[store.Hash]bool, len(want)+len(minted))
		for _, h := range want {
			ship[h] = true
		}
		for _, h := range minted {
			ship[h] = true
		}
		// The session capture holds everything installed since the hello
		// ack: the integrate's own installs plus any commits local Applies
		// raced in mid-descent. The latter must ship — the client's want
		// list cannot name them, yet the reply head reaches them — while
		// the client's just-imported delta (fresh) must not bounce back.
		skip := make(map[store.Hash]bool, len(fresh))
		for _, h := range fresh {
			skip[h] = true
		}
		reply, replyHead, err = e.obj.ExportSetCapture(ship, rs.token, skip)
	}
	n.syncMu.Unlock()
	if err != nil {
		fail(err.Error())
		return false
	}
	// Count the exchange before the reply streams out: the client may
	// read its own stats the moment its SyncWith returns, and this
	// handler goroutine has no happens-before edge past the write.
	for _, s := range []*syncStats{&n.total, &e.stats} {
		s.deltaSyncs.Add(1)
		s.commitsRecv.Add(int64(len(commits)))
		s.commitsSent.Add(int64(len(reply)))
		s.patchesRecv.Add(countPatches(commits))
		s.patchesSent.Add(countPatches(reply))
		s.redundantCommits.Add(int64(redundant))
	}
	if m := n.metrics; m != nil {
		m.descent(rs.probes)
	}
	sp.objects(1)
	sp.phase("ship", rs.hello.Object, wStart)
	return wire.WriteDeltaPacked(conn, reply, replyHead) == nil
}

// handleReconSpan answers a whole-node span probe: fold a fingerprint
// over every hosted object and reply FrameReconMatch when it equals the
// prober's — one frame confirming a converged pair — or our own span
// when it does not (the prober then runs per-object exchanges).
func (n *Node) handleReconSpan(conn *countedConn, fields [][]byte, sp *spanRec) bool {
	fail := func(msg string) { wire.WriteMsg(conn, wire.FrameErr, []byte(msg)) }
	sStart := time.Now()
	if len(fields) != 1 {
		fail("bad request")
		return false
	}
	probe, err := wire.DecodeReconSpan(fields[0])
	if err != nil {
		fail(err.Error())
		return false
	}
	conn.obj.Store(nil)
	n.total.rangesRecv.Add(1)
	if m := n.metrics; m != nil {
		m.rangesServer.Inc()
	}
	names := n.Objects()
	mine := n.nodeSpan(names)
	if mine == probe {
		// Mirror the client's accounting: a matching span completes one
		// converged exchange per hosted object.
		n.countSpanMatch(names)
		sp.objects(len(names))
		sp.phase("span-probe", "", sStart)
		return wire.WriteMsg(conn, wire.FrameReconMatch) == nil
	}
	if m := n.metrics; m != nil {
		m.spanDiff.Inc()
	}
	sp.phase("span-probe", "", sStart)
	return wire.WriteMsg(conn, wire.FrameReconSpan, wire.EncodeReconSpan(mine)) == nil
}

// nodeSpan folds the named objects into one digest: per object, the
// commit-set fingerprint XOR a domain-separated hash of the object's
// name and branch head. Equal spans mean the pair agrees on object
// names, commit sets and heads all at once; the count (total commits)
// guards the XOR against the trivial collision of swapped sets.
func (n *Node) nodeSpan(names []string) wire.ReconSpan {
	var sp wire.ReconSpan
	for _, name := range names {
		e, ok := n.entry(name)
		if !ok {
			continue
		}
		root, count := e.obj.ReconRoot()
		head, _ := e.obj.Head()
		h := sha256.New()
		h.Write([]byte("peepul-recon-span\x00"))
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(head[:])
		var fold recon.Fingerprint
		copy(fold[:], h.Sum(nil))
		sp.FP.Xor(root)
		sp.FP.Xor(fold)
		sp.Count += count
	}
	return sp
}

// SyncWith synchronizes every object this node hosts with the peer
// listening at addr, over a single connection: per object, the peer
// merges this node's missing commits into its branch, and this node then
// merges the peer's reply delta (usually a fast-forward, since the reply
// is computed after the peer merged). Objects the peer does not host (or
// hosts under a different datatype) are skipped and counted in Misses.
// After a successful exchange both nodes hold equal states on every
// shared object. A peer that refuses any step of the protocol fails the
// call with an ErrProtocol error; nothing is retried in another form.
func (n *Node) SyncWith(addr string) error {
	_, err := n.syncPeer(context.Background(), addr, nil)
	return err
}

// MeshSync implements mesh.Syncer: it is the daemon's entry into the
// exact code path SyncWith uses, restricted to the named objects (nil
// means every hosted object) and abortable through ctx. The returned
// Report is meaningful even on error — partial byte counts still feed
// the per-peer mesh stats.
func (n *Node) MeshSync(ctx context.Context, addr string, objects []string) (mesh.Report, error) {
	return n.syncPeer(ctx, addr, objects)
}

// peerLock returns the mutex serializing exchanges with addr: a manual
// SyncWith and a daemon round aimed at the same peer take turns instead
// of running duplicate concurrent sessions.
func (n *Node) peerLock(addr string) *sync.Mutex {
	mu, _ := n.peerMus.LoadOrStore(addr, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// syncPeer runs one client session with addr, serialized per peer
// address. A session over every hosted object (objects == nil) opens
// with the whole-node span probe; a match ends it after two frames — the
// converged pair's steady-state cost. Each object's exchange then holds
// the node-wide syncMu from its hello to the integrate of the peer's
// reply: the head the hello advertises must not move until the reply is
// merged back, or the integrate lands on a moved head and the pair needs
// another round to reconcile (see the package comment). Local commits
// and inbound merges wait that window out; a peer simultaneously syncing
// us gets the acquireMergeLock tie-break instead of a deadlock. The dial
// stays outside the freeze, so an unreachable peer costs its supervisor
// a dial timeout but never stalls the node's commits. The returned
// Report names the objects the peer answered with a miss — the mesh
// daemon uses it to learn which objects a peer is interested in.
func (n *Node) syncPeer(ctx context.Context, addr string, objects []string) (_ mesh.Report, retErr error) {
	lock := n.peerLock(addr)
	lock.Lock()
	defer lock.Unlock()
	names := objects
	if names == nil {
		names = n.Objects()
	}
	var call callState
	var missed []string
	report := func() mesh.Report {
		s := call.stats.snapshot()
		return mesh.Report{
			BytesSent:   s.BytesSent,
			BytesRecv:   s.BytesRecv,
			CommitsSent: s.CommitsSent,
			CommitsRecv: s.CommitsRecv,
			Missed:      missed,
		}
	}
	if len(names) == 0 {
		return report(), nil
	}
	start := time.Now()
	call.span = n.newSpan("client", addr)
	defer func() {
		call.span.finish(&call.stats, retErr)
		if m := n.metrics; m != nil {
			m.sessionNsClient.Observe(time.Since(start).Nanoseconds())
			outcome := "ok"
			if retErr != nil {
				outcome = failClassName(classifyFailure(retErr))
			}
			m.session("client", outcome)
		}
	}()
	conn, err := n.dialPeer(ctx, addr)
	if err != nil {
		return report(), err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	c := n.newConn(conn, &call.stats)

	// The span folds over every hosted object on the server side, so it
	// can only settle a session that covers all of ours.
	if objects == nil {
		done, err := n.syncSpan(c, names, &call)
		if err != nil || done {
			return report(), err
		}
	}
	for _, object := range names {
		e, ok := n.entry(object)
		if !ok {
			continue // removed concurrently; nothing to sync
		}
		c.obj.Store(&e.stats)
		miss, err := n.syncObject(c, object, e, &call)
		if err != nil {
			return report(), err
		}
		if miss {
			missed = append(missed, object)
		}
	}
	return report(), nil
}

// countSpanMatch accounts a matching span probe as one converged
// exchange per named object, exactly as if each object had run its own
// (trivial) exchange.
func (n *Node) countSpanMatch(names []string) {
	for _, name := range names {
		if e, ok := n.entry(name); ok {
			e.stats.deltaSyncs.Add(1)
		}
		n.total.deltaSyncs.Add(1)
	}
	if m := n.metrics; m != nil {
		m.spanMatch.Inc()
	}
}

// syncSpan sends the whole-node span probe, under the sync freeze so the
// digest cannot move between fold and answer. It reports done=true when
// the peer's span matched (nothing to sync anywhere).
func (n *Node) syncSpan(c *countedConn, names []string, call *callState) (done bool, _ error) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	pStart := time.Now()
	n.total.rangesSent.Add(1)
	if m := n.metrics; m != nil {
		m.rangesClient.Inc()
	}
	if err := wire.WriteMsg(c, wire.FrameReconSpan, wire.EncodeReconSpan(n.nodeSpan(names))); err != nil {
		return false, err
	}
	kind, fields, err := wire.ReadMsg(c)
	if err != nil {
		return false, err
	}
	switch kind {
	case wire.FrameReconMatch:
		n.countSpanMatch(names)
		call.span.objects(len(names))
		call.span.phase("span-probe", "", pStart)
		return true, nil
	case wire.FrameReconSpan:
		if m := n.metrics; m != nil {
			m.spanDiff.Inc()
		}
		call.span.phase("span-probe", "", pStart)
		return false, nil // differs somewhere; run the per-object exchanges
	case wire.FrameErr:
		return false, fmt.Errorf("%w: peer refused span probe: %v", ErrProtocol, peerMsg(fields))
	default:
		return false, fmt.Errorf("%w: unexpected span reply kind %d", ErrProtocol, kind)
	}
}

// peerMsg renders the message of a FrameErr.
func peerMsg(fields [][]byte) string {
	if len(fields) == 0 {
		return "unspecified"
	}
	return string(fields[0])
}

// syncObject runs one object's exchange on an open session. It reports
// miss=true when the peer answered the hello with "object not hosted
// here" (the session stays usable for the next object). The node's
// syncMu is held for the whole call — network round trips included —
// because the head the hello advertises is a promise that the branch
// will stand still until the reply is merged.
func (n *Node) syncObject(c *countedConn, object string, e *objectEntry, call *callState) (miss bool, _ error) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	negStart := time.Now()
	head, err := e.obj.Head()
	if err != nil {
		return false, err
	}
	hello := wire.Hello{Node: n.name, Object: object, Datatype: e.obj.Datatype(), Head: head}
	if err := wire.WriteMsg(c, wire.FrameHello, wire.EncodeHello(hello)); err != nil {
		return false, err
	}
	kind, fields, err := wire.ReadMsg(c)
	switch {
	case err != nil:
		return false, err
	case kind == wire.FrameHelloMiss:
		// Peer does not host this object (or hosts it as another type).
		n.total.misses.Add(1)
		e.stats.misses.Add(1)
		return true, nil
	case kind == wire.FrameErr:
		return false, fmt.Errorf("%w: peer refused hello for object %s: %s", ErrProtocol, object, peerMsg(fields))
	case kind != wire.FrameHelloAck || len(fields) != 1:
		return false, fmt.Errorf("%w: unexpected hello reply kind %d", ErrProtocol, kind)
	}
	ack, err := wire.DecodeHello(fields[0])
	if err != nil {
		return false, err
	}
	if ack.Object != object {
		return false, fmt.Errorf("%w: peer acked object %q, want %q", ErrProtocol, ack.Object, object)
	}
	call.span.phase("negotiate", object, negStart)
	return false, n.syncObjectRecon(c, object, e, ack, call)
}

// syncObjectRecon runs the client side of one object's reconciliation
// exchange, after the hello ack. The client drives
// a lock-step descent over hash ranges: probe a range with its local
// fingerprint and count, and on mismatch either receive the server's
// items (small ranges — diffed locally into want and ship lists) or a
// split into two fingerprinted halves (matching halves are discarded
// locally, differing ones probed in turn). The descent terminates — every
// split strictly halves the server's range — and resolves the exact
// symmetric difference in O(diff · log n) frames. A want list and one
// delta in each direction then ship precisely the missing commits; the
// server's reply adds only the merge commits its pull minted. The
// caller holds syncMu throughout, so the local set stands still.
func (n *Node) syncObjectRecon(c *countedConn, object string, e *objectEntry, ack wire.Hello, call *callState) error {
	type keyRange struct{ x, y recon.Item }
	work := []keyRange{{}} // the zero pair spans the whole keyspace
	var want []store.Hash
	ship := make(map[store.Hash]bool)
	descStart, probes := time.Now(), 0
	// The node's sync freeze keeps other exchanges out, but a local
	// Apply takes only the store lock and can land a commit after its
	// range was already compared. Capture everything installed during
	// the descent and fold it into the ship set atomically with the
	// export — otherwise the shipped head could reach commits the
	// export's pruning hid from the peer. The deferred end is a no-op
	// once the export consumes the token.
	token := e.obj.BeginInstallCapture()
	defer e.obj.EndInstallCapture(token)
	shipRange := func(x, y recon.Item) {
		for _, it := range e.obj.ReconItems(x, y, -1) {
			ship[it.Addr()] = true
		}
	}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		fp, count := e.obj.ReconRange(r.x, r.y)
		probe := wire.ReconRange{X: r.x, Y: r.y, FP: fp, Count: count}
		if err := wire.WriteMsg(c, wire.FrameReconFP, wire.EncodeReconRange(probe)); err != nil {
			return err
		}
		n.total.rangesSent.Add(1)
		e.stats.rangesSent.Add(1)
		probes++
		if m := n.metrics; m != nil {
			m.rangesClient.Inc()
		}
		kind, fields, err := wire.ReadMsg(c)
		if err != nil {
			return err
		}
		switch kind {
		case wire.FrameReconMatch:
			// Identical fingerprint and count: the range agrees.
		case wire.FrameReconEmptyRange:
			// The server holds nothing here: everything local is news.
			shipRange(r.x, r.y)
		case wire.FrameReconItems:
			if len(fields) != 1 {
				return fmt.Errorf("%w: recon items without payload", ErrProtocol)
			}
			items, err := wire.DecodeReconItems(fields[0])
			if err != nil {
				return err
			}
			theirs := make(map[recon.Item]bool, len(items))
			for _, it := range items {
				theirs[it] = true
				if !e.obj.HasCommit(it.Addr()) {
					want = append(want, it.Addr())
				}
			}
			for _, it := range e.obj.ReconItems(r.x, r.y, -1) {
				if !theirs[it] {
					ship[it.Addr()] = true
				}
			}
		case wire.FrameReconSplit:
			if len(fields) != 1 {
				return fmt.Errorf("%w: recon split without payload", ErrProtocol)
			}
			sp, err := wire.DecodeReconSplit(fields[0])
			if err != nil {
				return err
			}
			halves := []struct {
				x, y  recon.Item
				fp    recon.Fingerprint
				count int
			}{
				{r.x, sp.Mid, sp.FPLo, sp.CountLo},
				{sp.Mid, r.y, sp.FPHi, sp.CountHi},
			}
			for _, half := range halves {
				lfp, lcount := e.obj.ReconRange(half.x, half.y)
				switch {
				case lfp == half.fp && lcount == half.count:
					// This half agrees; only the other one descends.
				case half.count == 0:
					shipRange(half.x, half.y)
				default:
					work = append(work, keyRange{half.x, half.y})
				}
			}
		case wire.FrameErr:
			return fmt.Errorf("%w: peer: %s", ErrProtocol, peerMsg(fields))
		default:
			return fmt.Errorf("%w: unexpected kind %d in recon descent", ErrProtocol, kind)
		}
	}
	call.span.phase("descend", object, descStart)
	if m := n.metrics; m != nil {
		m.descent(probes)
	}
	// Converged shortcut: equal sets and equal heads need no delta phase
	// at all — the whole re-sync was the root probe. (Equal sets with
	// differing branch heads still run the empty-delta exchange below,
	// which resolves the heads by pulling each other's.)
	localHead, err := e.obj.Head()
	if err != nil {
		return err
	}
	if len(want) == 0 && len(ship) == 0 && ack.Head == localHead {
		for _, s := range []*syncStats{&n.total, &e.stats} {
			s.deltaSyncs.Add(1)
		}
		call.span.objects(1)
		return nil
	}
	shipStart := time.Now()
	if err := wire.WriteMsg(c, wire.FrameReconWant, wire.EncodeReconWant(want)); err != nil {
		return err
	}
	commits, head, err := e.obj.ExportSetCapture(ship, token, nil)
	if err != nil {
		return err
	}
	if err := wire.WriteDeltaPacked(c, commits, head); err != nil {
		return err
	}
	call.span.phase("ship", object, shipStart)
	importStart := time.Now()
	reply, replyHead, err := wire.ReadDelta(c)
	if err != nil {
		var pe *wire.PeerError
		if errors.As(err, &pe) {
			if pe.Msg == busyMsg {
				return fmt.Errorf("%w: %s", ErrPeerBusy, object)
			}
			return fmt.Errorf("%w: peer: %s", ErrProtocol, pe.Msg)
		}
		return err
	}
	redundant, _, _, err := e.obj.IntegrateExact("remote/"+ack.Node, reply, replyHead)
	if err != nil {
		return err
	}
	for _, s := range []*syncStats{&n.total, &e.stats} {
		s.deltaSyncs.Add(1)
		s.commitsSent.Add(int64(len(commits)))
		s.commitsRecv.Add(int64(len(reply)))
		s.patchesSent.Add(countPatches(commits))
		s.patchesRecv.Add(countPatches(reply))
		s.redundantCommits.Add(int64(redundant))
	}
	call.span.objects(1)
	call.span.phase("import", object, importStart)
	return nil
}

var _ io.ReadWriter = (*countedConn)(nil)
