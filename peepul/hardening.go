package peepul

// Node hardening: the transport injection point and the idle timeout
// that, with the bounds derived from it, keeps one hostile or broken
// peer from exhausting a node. The inbound session cap is a constant
// 64. See DESIGN.md, "Failure model & hardening".

import (
	"time"

	"repro/internal/replica"
)

// Transport is how a node reaches the network: Dial opens client sync
// connections, Listen binds the serving listener. The default is plain
// TCP; tests and benchmarks inject a fault net (internal/faultnet), and
// future authenticated transports plug in the same way.
type Transport = replica.Transport

// TCPTransport is the default Transport: plain TCP with a bounded dial.
type TCPTransport = replica.TCPTransport

// WithTransport makes the node dial and listen through t instead of
// plain TCP.
func WithTransport(t Transport) NodeOption { return replica.WithTransport(t) }

// WithSyncTimeout bounds how long one read or write of a sync exchange
// may stall before the connection errors out (default 30s). A peer that
// keeps making progress can transfer arbitrarily much; one that goes
// silent is cut off instead of wedging the exchange. The other
// hardening bounds scale with d: a whole session may run 6·d (3m by
// default) — the idle bound cannot stop a dribbling peer, and a client
// exchange freezes the node's branches for its duration — and a peer
// that commits protocol violations (corrupt frames, bad hellos, hash
// mismatches) three times in a row is quarantined, retried after 2·d
// doubling to 30·d (1m and 15m by default) until one clean exchange
// lifts it. Transient network failures never quarantine. Zero and below
// keep the default.
func WithSyncTimeout(d time.Duration) NodeOption { return replica.WithSyncTimeout(d) }
