package bench

import (
	"math/rand"
	"time"

	"repro/internal/counter"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Sync-cost benchmark: wire bytes and wall time of a replica sync as a
// function of history length, for the delta protocol against a
// full-history baseline, over pair and ring topologies. The full
// baseline's cost grows with the whole history on every exchange; the
// delta protocol pays O(1) once a pair has converged and O(gap) when it
// has not — the difference this table measures.

// SyncCostRow is one measured sync exchange (or ring round).
type SyncCostRow struct {
	// History is the number of operations committed before measuring.
	History int
	// Topology is "pair" (one exchange) or "ring" (a 3-node round).
	Topology string
	// Proto is "delta" (a real sync over TCP) or "full" (both sides'
	// whole histories exported in process and streamed through a
	// counting writer: the cost of a full-history exchange).
	Proto string
	// Phase is "resync" (already converged) or "fresh-op" (one operation
	// behind).
	Phase string
	// Bytes counts wire traffic in both directions, client side.
	Bytes int64
	// Commits counts commits shipped in either direction.
	Commits int64
	// Elapsed is the wall time of the exchange.
	Elapsed time.Duration
}

// SyncNs is the history-length sweep of the sync-cost benchmark.
var SyncNs = []int{64, 256, 1024}

// syncNode is a replica node hosting a single PN-counter object.
type syncNode struct {
	*replica.Node
	obj *replica.TypedObject[counter.PNState, counter.Op, counter.Val]
}

func newSyncNode(name string, id int) *syncNode {
	n, err := replica.NewNode(name, id)
	if err != nil {
		panic(err)
	}
	obj, err := replica.Ensure[counter.PNState, counter.Op, counter.Val](
		n, "counter", "pn-counter", counter.PNCounter{}, wire.PNCounter{})
	if err != nil {
		panic(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	return &syncNode{Node: n, obj: obj}
}

func syncInc(n *syncNode) {
	if _, err := n.obj.Do(counter.Op{Kind: counter.Inc, N: 1}); err != nil {
		panic(err)
	}
}

// measureSync runs one client→server delta exchange and returns its
// wire cost from the stats deltas of both nodes.
func measureSync(client, server *syncNode) (int64, int64, time.Duration) {
	cb, sb := client.Stats(), server.Stats()
	start := time.Now()
	if err := client.SyncWith(server.Addr()); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	ca, sa := client.Stats(), server.Stats()
	bytes := (ca.BytesSent - cb.BytesSent) + (ca.BytesRecv - cb.BytesRecv)
	commits := (ca.CommitsSent - cb.CommitsSent) + (sa.CommitsSent - sb.CommitsSent)
	return bytes, commits, elapsed
}

// measureFull prices the full-history baseline for one exchange without
// running it: the client's whole history out plus the server's whole
// history back, each exported in process and written through the wire
// codec to a counting writer. It runs after the delta exchange has
// converged the pair, so the server's history is the merged one a
// full-history reply would carry.
func measureFull(client, server *syncNode) (int64, int64, time.Duration) {
	start := time.Now()
	var bytes, commits int64
	for _, n := range []*syncNode{client, server} {
		history, head, err := n.obj.Store().Export(n.obj.Branch())
		if err != nil {
			panic(err)
		}
		var cw countingWriter
		if err := wire.WriteDeltaPacked(&cw, history, head); err != nil {
			panic(err)
		}
		bytes += cw.n
		commits += int64(len(history))
	}
	return bytes, commits, time.Since(start)
}

// measurePair returns the full and delta rows of one exchange.
func measurePair(client, server *syncNode) (full, delta SyncCostRow) {
	delta.Bytes, delta.Commits, delta.Elapsed = measureSync(client, server)
	full.Bytes, full.Commits, full.Elapsed = measureFull(client, server)
	full.Proto, delta.Proto = "full", "delta"
	return full, delta
}

// SyncCost measures sync cost across the history sweep. Histories are
// built with seeded random op placement and periodic delta syncs, then
// fully converged before measuring.
func SyncCost(ns []int, seed int64) []SyncCostRow {
	var rows []SyncCostRow
	for _, n := range ns {
		rows = append(rows, pairSyncCost(n, seed)...)
		rows = append(rows, ringSyncCost(n, seed)...)
	}
	return rows
}

func pairSyncCost(history int, seed int64) []SyncCostRow {
	a := newSyncNode("a", 1)
	defer a.Close()
	b := newSyncNode("b", 2)
	defer b.Close()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < history; i++ {
		if r.Intn(2) == 0 {
			syncInc(a)
		} else {
			syncInc(b)
		}
		if i%16 == 15 {
			measureSync(a, b)
		}
	}
	measureSync(a, b)
	measureSync(a, b) // fully converged

	var rows []SyncCostRow
	for _, phase := range []string{"resync", "fresh-op"} {
		if phase == "fresh-op" {
			syncInc(a)
		}
		full, delta := measurePair(a, b)
		for _, row := range []SyncCostRow{full, delta} {
			row.History, row.Topology, row.Phase = history, "pair", phase
			rows = append(rows, row)
		}
	}
	return rows
}

func ringSyncCost(history int, seed int64) []SyncCostRow {
	nodes := []*syncNode{newSyncNode("eu", 4), newSyncNode("us", 5), newSyncNode("ap", 6)}
	for _, n := range nodes {
		defer n.Close()
	}
	ringRound := func() (full, delta SyncCostRow) {
		for i := range nodes {
			f, d := measurePair(nodes[i], nodes[(i+1)%len(nodes)])
			full.Bytes, full.Commits, full.Elapsed = full.Bytes+f.Bytes, full.Commits+f.Commits, full.Elapsed+f.Elapsed
			delta.Bytes, delta.Commits, delta.Elapsed = delta.Bytes+d.Bytes, delta.Commits+d.Commits, delta.Elapsed+d.Elapsed
		}
		full.Proto, delta.Proto = "full", "delta"
		return full, delta
	}
	deltaRound := func() {
		for i := range nodes {
			measureSync(nodes[i], nodes[(i+1)%len(nodes)])
		}
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < history; i++ {
		syncInc(nodes[r.Intn(len(nodes))])
		if i%24 == 23 {
			deltaRound()
		}
	}
	deltaRound()
	deltaRound() // fully converged

	full, delta := ringRound()
	var rows []SyncCostRow
	for _, row := range []SyncCostRow{full, delta} {
		row.History, row.Topology, row.Phase = history, "ring", "resync"
		rows = append(rows, row)
	}
	return rows
}
