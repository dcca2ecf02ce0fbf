package peepul_test

// Always-on replication at the public API: a fleet configured with
// WithPeers converges with zero application SyncWith calls — the
// acceptance scenario for the mesh daemon.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/peepul"
)

// TestMeshRingConvergence: ten nodes in a one-directional gossip ring,
// each supervising only its successor, converge after concurrent writes
// on every node — no SyncWith anywhere. Convergence is asserted on head
// hashes, not just values: every replica ends on the identical commit.
func TestMeshRingConvergence(t *testing.T) {
	const (
		nodes       = 10
		incsPerNode = 5
	)
	ns := make([]*peepul.Node, nodes)
	hs := make([]*peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal], nodes)
	for i := range ns {
		n, err := peepul.NewNode(fmt.Sprintf("m%d", i), i+1,
			peepul.WithMeshInterval(100*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		h, err := peepul.Open(n, peepul.PNCounter, "hits")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		ns[i], hs[i] = n, h
	}
	// Close the ring: i supervises i+1. The daemon's exchanges are
	// bidirectional (the reply delta flows back), so one direction of
	// supervision suffices for fleet-wide convergence.
	for i := range ns {
		ns[i].AddPeer(ns[(i+1)%nodes].Addr())
	}

	// Concurrent writes on every node while the daemons gossip.
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]) {
			defer wg.Done()
			for j := 0; j < incsPerNode; j++ {
				if _, err := h.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 1}); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(h)
	}
	wg.Wait()

	// Every node must reach the total and the identical head hash.
	const want = nodes * incsPerNode
	deadline := time.Now().Add(60 * time.Second)
	for {
		ref, err := hs[0].Store().HeadHash(hs[0].Branch())
		if err != nil {
			t.Fatal(err)
		}
		converged := true
		for _, h := range hs {
			s, err := h.State()
			if err != nil {
				t.Fatal(err)
			}
			head, err := h.Store().HeadHash(h.Branch())
			if err != nil {
				t.Fatal(err)
			}
			if s.P-s.N != want || head != ref {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for i, h := range hs {
				s, _ := h.State()
				head, _ := h.Store().HeadHash(h.Branch())
				st, _ := ns[i].PeerMeshStats(ns[(i+1)%nodes].Addr())
				t.Logf("node m%d: value=%d head=%x rounds=%d pushes=%d fails=%d consec=%d lastErr=%q",
					i, s.P-s.N, head[:4], st.Rounds, st.Pushes, st.Failures, st.ConsecutiveFailures, st.LastError)
			}
			t.Fatalf("ring did not converge to %d with identical heads", want)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The daemon did the work: every node completed exchanges, and the
	// successor link reports healthy.
	for i, n := range ns {
		st, ok := n.PeerMeshStats(ns[(i+1)%nodes].Addr())
		if !ok {
			t.Fatalf("m%d has no stats for its successor", i)
		}
		if st.Rounds+st.Pushes == 0 {
			t.Fatalf("m%d converged with zero completed exchanges: %+v", i, st)
		}
	}
}

// TestDoOnNodeBranchPushes: DoOn on the node's own branch is a Do — it
// is pushed to mesh peers on commit, not left for the next
// anti-entropy round. The minute-long interval puts the first round at
// least 3.75s out, so only a push can land inside the 3s window.
func TestDoOnNodeBranchPushes(t *testing.T) {
	open := func(name string, id int, opts ...peepul.NodeOption) (*peepul.Node, *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]) {
		n, err := peepul.NewNode(name, id, append(opts, peepul.WithMeshInterval(time.Minute))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		h, err := peepul.Open(n, peepul.PNCounter, "hits")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return n, h
	}
	n2, h2 := open("sink", 2)
	_, h1 := open("source", 1, peepul.WithPeers(n2.Addr()))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := h2.Watch(ctx)

	inc := peepul.CounterOp{Kind: peepul.CounterInc, N: 1}
	for _, do := range []struct {
		name string
		fn   func() (peepul.CounterVal, error)
	}{
		{"Do", func() (peepul.CounterVal, error) { return h1.Do(inc) }},
		{"DoOn(Branch())", func() (peepul.CounterVal, error) { return h1.DoOn(h1.Branch(), inc) }},
	} {
		if _, err := do.fn(); err != nil {
			t.Fatal(err)
		}
		head, err := h1.Store().HeadHash(h1.Branch())
		if err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-events:
			if ev.Head != head {
				t.Fatalf("%s: peer moved to %x, want the commit's head %x", do.name, ev.Head[:4], head[:4])
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: commit not pushed to the peer within 3s", do.name)
		}
	}
}
