package replica_test

// Tests for range-fingerprint reconciliation: the O(1) converged re-sync
// it promises (also on first contact between peers), the exactness of
// its diffs (zero redundant commits), its per-object counters, and the
// refusal of a peer that does not follow the protocol.

import (
	"fmt"
	"testing"

	"repro/internal/counter"
	"repro/internal/replica"
	"repro/internal/wire"
)

// convergePair drives two syncs so both nodes hold equal sets and equal
// heads (the first sync merges, the second ships the merge back).
func convergePair(t *testing.T, a, b *counterNode) {
	t.Helper()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if av, bv := peek(t, a), peek(t, b); av != bv {
		t.Fatalf("pair failed to converge: a=%d b=%d", av, bv)
	}
}

// TestReconConvergedResyncO1 is the acceptance core of the protocol: a
// converged pair's re-sync costs O(1) frames and zero commits, and the
// cost is flat in history depth — the same bound at 10² and at 10⁴
// commits.
func TestReconConvergedResyncO1(t *testing.T) {
	resyncBytes := func(history int, idBase int) int64 {
		a := newCounterNode(t, fmt.Sprintf("a%d", history), idBase)
		b := newCounterNode(t, fmt.Sprintf("b%d", history), idBase+1)
		for i := 0; i < history; i++ {
			if i%2 == 0 {
				inc(t, a, 1)
			} else {
				inc(t, b, 1)
			}
		}
		convergePair(t, a, b)
		before := a.Stats()
		if err := a.SyncWith(b.Addr()); err != nil {
			t.Fatal(err)
		}
		after := a.Stats()
		if moved := commitsMoved(before, after); moved != 0 {
			t.Fatalf("history %d: converged re-sync moved %d commits, want 0", history, moved)
		}
		if after.RedundantCommits != before.RedundantCommits {
			t.Fatalf("history %d: converged re-sync re-shipped %d commits",
				history, after.RedundantCommits-before.RedundantCommits)
		}
		// The whole re-sync is one span probe and one match frame.
		if probes := after.RangesSent - before.RangesSent; probes != 1 {
			t.Fatalf("history %d: converged re-sync sent %d probes, want exactly 1", history, probes)
		}
		return bytesMoved(before, after)
	}
	at100 := resyncBytes(100, 1)
	at10k := resyncBytes(10_000, 3)
	// O(1): a hard small-constant ceiling at both depths (two frames of
	// ~50 bytes plus framing), and flat across two orders of magnitude.
	const ceiling = 512
	if at100 > ceiling || at10k > ceiling {
		t.Fatalf("converged re-sync cost %d bytes at 10², %d at 10⁴; want ≤ %d", at100, at10k, ceiling)
	}
	if at10k != at100 {
		t.Fatalf("converged re-sync cost must be flat in depth: %d bytes at 10², %d at 10⁴", at100, at10k)
	}
}

// TestReconExactDiffNoRedundant pins the protocol's contract on deep
// divergence: after a long shared prefix, two sides that each diverge by
// d commits exchange exactly their diffs — no commit crosses the wire
// that the receiver already held.
func TestReconExactDiffNoRedundant(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	for i := 0; i < 200; i++ {
		inc(t, a, 1)
	}
	convergePair(t, a, b)
	const gap = 40
	for i := 0; i < gap; i++ {
		inc(t, a, 1)
		inc(t, b, 1)
	}
	before := a.Stats()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	sb := b.Stats()
	if after.RedundantCommits != before.RedundantCommits || sb.RedundantCommits != 0 {
		t.Fatalf("exact negotiation re-shipped commits: client %d, server %d",
			after.RedundantCommits-before.RedundantCommits, sb.RedundantCommits)
	}
	// Each side ships its gap; the merge adds a couple of minted commits.
	if moved := commitsMoved(before, after); moved > 2*gap+3 {
		t.Fatalf("diff of 2×%d commits moved %d, want the exact diff", gap, moved)
	}
	if av, bv := peek(t, a), read(t, b); av != bv {
		t.Fatalf("diverged after sync: a=%d b=%d", av, bv)
	}
}

// TestReconStatsPerObject pins the new SyncStats fields end to end: the
// probe counters tick on the right role and the right object, and both
// the node aggregate and the per-object snapshot carry them.
func TestReconStatsPerObject(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	for i := 0; i < 50; i++ {
		inc(t, a, 1)
		inc(t, b, 1)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	ca, cb := a.ObjectStats("counter"), b.ObjectStats("counter")
	if ca.RangesSent == 0 {
		t.Fatalf("client object stats must count probes sent: %+v", ca)
	}
	if ca.RangesRecv != 0 {
		t.Fatalf("client answered no probes, counted %d", ca.RangesRecv)
	}
	if cb.RangesRecv != ca.RangesSent {
		t.Fatalf("server answered %d probes, client sent %d", cb.RangesRecv, ca.RangesSent)
	}
	if cb.RangesSent != 0 {
		t.Fatalf("server sent no probes, counted %d", cb.RangesSent)
	}
	// The node aggregate adds the session's opening span probe, which
	// belongs to no single object.
	if na := a.Stats(); na.RangesSent != ca.RangesSent+1 {
		t.Fatalf("node aggregate %d probes, object %d plus one span", na.RangesSent, ca.RangesSent)
	}
	if ca.RedundantCommits != 0 || cb.RedundantCommits != 0 {
		t.Fatalf("redundant commits on an exact exchange: client %d, server %d",
			ca.RedundantCommits, cb.RedundantCommits)
	}
	if ca.DeltaSyncs != 1 || cb.DeltaSyncs != 1 {
		t.Fatalf("one recon exchange counts one delta sync per role: client %+v server %+v", ca, cb)
	}
}

// TestReconFirstContactConvergedO1: two nodes that converged through a
// third and have never talked to each other settle their first direct
// sync with the span probe alone — zero commits and the same small byte
// ceiling as the recon gate, however deep the shared history.
func TestReconFirstContactConvergedO1(t *testing.T) {
	a := newCounterNode(t, "a", 1)
	b := newCounterNode(t, "b", 2)
	c := newCounterNode(t, "c", 3)
	for i := 0; i < 500; i++ {
		inc(t, a, 1)
		inc(t, b, 1)
	}
	convergePair(t, a, c)
	convergePair(t, b, c)
	convergePair(t, a, c)
	ha, _ := a.obj.Store().HeadHash(a.obj.Branch())
	hb, _ := b.obj.Store().HeadHash(b.obj.Branch())
	if ha != hb {
		t.Fatal("a and b did not converge through c")
	}
	if b.Stats().RangesRecv != 0 {
		t.Fatal("b served a session before ever meeting a")
	}
	before := a.Stats()
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	if moved := commitsMoved(before, after); moved != 0 {
		t.Fatalf("first contact of a converged pair moved %d commits, want 0", moved)
	}
	const ceiling = 1024
	if by := bytesMoved(before, after); by > ceiling {
		t.Fatalf("first contact of a converged pair cost %d bytes, ceiling %d", by, ceiling)
	}
}

// TestReconMultiObjectSpan: a converged multi-object pair re-syncs on a
// single span probe — one probe for the whole node, not one per object —
// and per-object counters still tick.
func TestReconMultiObjectSpan(t *testing.T) {
	a, err := replica.NewNode("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replica.NewNode("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	var objs []*replica.TypedObject[counter.PNState, counter.Op, counter.Val]
	for _, n := range []*replica.Node{a, b} {
		for _, name := range []string{"x", "y", "z"} {
			o, err := replica.Ensure[counter.PNState, counter.Op, counter.Val](
				n, name, "pn-counter", counter.PNCounter{}, wire.PNCounter{})
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
	}
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[:3] { // a's objects
		if _, err := o.Do(counter.Op{Kind: counter.Inc, N: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	before := a.Stats()
	beforeX := a.ObjectStats("x")
	if err := a.SyncWith(b.Addr()); err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	if probes := after.RangesSent - before.RangesSent; probes != 1 {
		t.Fatalf("converged 3-object re-sync sent %d probes, want 1 span", probes)
	}
	if moved := commitsMoved(before, after); moved != 0 {
		t.Fatalf("converged re-sync moved %d commits", moved)
	}
	if ax := a.ObjectStats("x"); ax.DeltaSyncs != beforeX.DeltaSyncs+1 {
		t.Fatalf("span match must count one exchange per object: %d -> %d",
			beforeX.DeltaSyncs, ax.DeltaSyncs)
	}
}
