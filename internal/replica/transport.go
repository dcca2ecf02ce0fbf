package replica

// Transport abstraction: every connection a node makes or accepts goes
// through a Transport, so the same engine runs over real TCP in
// production and over an in-process fault-injection net (internal/
// faultnet) in chaos tests and benchmarks. The default is plain TCP.

import (
	"context"
	"net"
)

// Transport is how a node reaches the network: Dial opens a client sync
// connection to a peer address, Listen binds the node's serving
// listener. Implementations must be safe for concurrent use; Dial must
// honour ctx cancellation (node close aborts in-flight dials through
// it).
type Transport interface {
	Dial(ctx context.Context, addr string) (net.Conn, error)
	Listen(addr string) (net.Listener, error)
}

// TCPTransport is the default Transport: plain TCP with a bounded dial
// (10s; context cancellation aborts earlier).
type TCPTransport struct{}

// Dial opens a TCP connection to addr.
func (TCPTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

// Listen binds a TCP listener on addr.
func (TCPTransport) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}
