package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/faultnet"
	"repro/peepul"
)

// Chaos benchmark (`peepul-bench -fig chaos`): live ring fleets gossip
// through the seeded fault-injection net while connections drop and the
// fleet is rolled through two-way partitions. Each row measures what
// the mesh promises after the weather clears:
//
//   - converge: wall time from heal (partitions lifted; connection
//     drops stay active — loss is steady-state weather, partitions are
//     transient) until every node holds the same value AND the
//     identical head hash — the recovery bound as a function of how
//     bad the faults were;
//   - redundant commits: re-shipped commits the fault retries caused —
//     the price of syncing through an unreliable net, which
//     reconciliation keeps near zero on clean links;
//   - total wire bytes over the whole run, for the same comparison.
//
// The zero-loss, zero-partition row is the baseline the faulted rows
// are read against.

// ChaosRow is one measured fleet under one fault mix.
type ChaosRow struct {
	// Nodes is the fleet size (ring supervision).
	Nodes int `json:"nodes"`
	// LossRate is the probability any dial is dropped during the fault
	// horizon.
	LossRate float64 `json:"loss_rate"`
	// PartitionMs is the hold of each rolling two-way partition step
	// during the horizon; 0 means no partitions.
	PartitionMs int64 `json:"partition_ms"`
	// Writes is the total number of operations committed, spread across
	// every node, all during the fault horizon.
	Writes int `json:"writes"`
	// HorizonMs is the fault horizon: how long the fleet ran under
	// drops and partitions before the heal.
	HorizonMs int64 `json:"horizon_ms"`
	// ConvergeNs is the wall time from heal until every node reports
	// the same value and the identical head hash.
	ConvergeNs int64 `json:"converge_ns"`
	// TotalBytes is the fleet-wide sync traffic (sent + received summed
	// over all nodes) across the whole run, horizon included.
	TotalBytes int64 `json:"total_bytes"`
	// RedundantCommits counts received commits that were already
	// present, fleet-wide — transfer the fault retries wasted.
	RedundantCommits int64 `json:"redundant_commits"`
}

// ChaosLossRates is the dial-drop sweep of the full benchmark.
var ChaosLossRates = []float64{0, 0.1, 0.25, 0.4}

// ChaosPartitions is the partition-hold sweep of the full benchmark.
var ChaosPartitions = []time.Duration{0, 300 * time.Millisecond}

// ChaosNodes is the fleet size of the full benchmark.
const ChaosNodes = 6

// Chaos runs the loss × partition sweep at the given fleet size.
func Chaos(n int, losses []float64, partitions []time.Duration, seed int64) []ChaosRow {
	var rows []ChaosRow
	for _, partition := range partitions {
		for _, loss := range losses {
			rows = append(rows, chaosFleet(n, loss, partition, seed))
		}
	}
	return rows
}

// chaosFleet builds one ring fleet over a fresh fault net, commits on
// every node while the faults run, then heals and measures recovery.
func chaosFleet(n int, loss float64, partition time.Duration, seed int64) ChaosRow {
	fn := faultnet.New(seed)
	fn.SetDefaultLink(faultnet.Link{DropRate: loss})

	names := make([]string, n)
	fleet := make([]meshNode, n)
	for i := range fleet {
		names[i] = fmt.Sprintf("bench-c%d", i)
		node, err := peepul.NewNode(names[i], i+1,
			peepul.WithTransport(fn.Transport(names[i])),
			peepul.WithMeshInterval(50*time.Millisecond))
		if err != nil {
			panic(err)
		}
		defer node.Close()
		h, err := peepul.Open(node, peepul.PNCounter, "hits")
		if err != nil {
			panic(err)
		}
		if err := node.Listen("127.0.0.1:0"); err != nil {
			panic(err)
		}
		fleet[i] = meshNode{node: node, handle: h}
	}
	for i := range fleet {
		fleet[i].node.AddPeer(fleet[(i+1)%n].node.Addr())
	}

	// Rolling partitions: two axes of the ring, healed holds between.
	ctx, cancel := context.WithCancel(context.Background())
	var scheduleDone <-chan struct{}
	if partition > 0 {
		half := n / 2
		odd := make([]string, 0, n)
		even := make([]string, 0, n)
		for i, name := range names {
			if i%2 == 0 {
				even = append(even, name)
			} else {
				odd = append(odd, name)
			}
		}
		steps := []faultnet.Step{
			{Hold: partition, Groups: [][]string{names[:half], names[half:]}},
			{Hold: partition / 2},
			{Hold: partition, Groups: [][]string{even, odd}},
			{Hold: partition / 2},
		}
		scheduleDone = fn.RunSchedule(ctx, steps, true)
	}

	// Every node commits during the horizon, paced so the writes spread
	// across the fault schedule instead of landing in one burst.
	writes := n * meshWritesPerNode
	start := time.Now()
	done := make(chan error, n)
	for _, m := range fleet {
		go func(h *peepul.Handle[peepul.CounterPNState, peepul.CounterOp, peepul.CounterVal]) {
			for j := 0; j < meshWritesPerNode; j++ {
				if _, err := h.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 1}); err != nil {
					done <- err
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
			done <- nil
		}(m.handle)
	}
	for range fleet {
		if err := <-done; err != nil {
			panic(err)
		}
	}
	// End the rolling schedule, then hold one final partition so the
	// heal measures a genuinely diverged fleet — the looped schedule may
	// have ended on a healed hold with everything already converged.
	cancel()
	if scheduleDone != nil {
		<-scheduleDone
	}
	if partition > 0 {
		fn.Partition(names[:n/2], names[n/2:])
		time.Sleep(partition)
	}
	horizon := time.Since(start)

	// Heal the partitions but keep the drops: loss is steady-state
	// weather, so recovery is measured through it.
	fn.Heal()
	heal := time.Now()
	meshAwait(fleet, writes)
	convergeNs := time.Since(heal).Nanoseconds()
	fn.SetDefaultLink(faultnet.Link{})

	var redundant int64
	for _, m := range fleet {
		redundant += m.node.Stats().RedundantCommits
	}
	return ChaosRow{
		Nodes: n, LossRate: loss, PartitionMs: partition.Milliseconds(),
		Writes: writes, HorizonMs: horizon.Milliseconds(),
		ConvergeNs:       convergeNs,
		TotalBytes:       meshWireBytes(fleet),
		RedundantCommits: redundant,
	}
}

// WriteChaosJSON renders rows as the BENCH_chaos.json document: one
// object with the measured rows, stable field order, trailing newline.
func WriteChaosJSON(w io.Writer, seed int64, rows []ChaosRow) error {
	doc := struct {
		Bench string     `json:"bench"`
		Seed  int64      `json:"seed"`
		Rows  []ChaosRow `json:"rows"`
	}{Bench: "chaos", Seed: seed, Rows: rows}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
