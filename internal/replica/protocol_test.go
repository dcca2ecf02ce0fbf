package replica

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/counter"
	"repro/internal/mesh"
	"repro/internal/wire"
)

// TestRefusedHelloIsViolation: a peer that answers the hello with an
// error has broken the protocol. SyncWith reports an ErrProtocol error
// the mesh classifies as a violation, over exactly one connection — no
// retry in another protocol form.
func TestRefusedHelloIsViolation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				for {
					kind, _, err := wire.ReadMsg(conn)
					if err != nil {
						return
					}
					switch kind {
					case wire.FrameReconSpan:
						// A differing span sends the client on to the hello.
						span := wire.EncodeReconSpan(wire.ReconSpan{Count: 1})
						wire.WriteMsg(conn, wire.FrameReconSpan, span)
					default:
						wire.WriteMsg(conn, wire.FrameErr, []byte("refused"))
					}
				}
			}()
		}
	}()

	n, err := NewNode("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	obj, err := Ensure[counter.PNState, counter.Op, counter.Val](
		n, "counter", "pn-counter", counter.PNCounter{}, wire.PNCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Do(counter.Op{Kind: counter.Inc, N: 1}); err != nil {
		t.Fatal(err)
	}
	err = n.SyncWith(ln.Addr().String())
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("SyncWith = %v, want an ErrProtocol error", err)
	}
	if c := classifyFailure(err); c != mesh.FailViolation {
		t.Fatalf("refused hello classified %v, want FailViolation", c)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("client opened %d connections, want exactly 1", got)
	}
}
