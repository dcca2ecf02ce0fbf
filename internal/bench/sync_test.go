package bench

import (
	"strings"
	"testing"
)

// TestSyncCostDeltaIsFlat asserts the acceptance property of the delta
// engine: re-syncing an already-converged pair costs O(1) bytes — flat
// in history length — while the full-history baseline's cost grows with
// the whole history.
func TestSyncCostDeltaIsFlat(t *testing.T) {
	rows := SyncCost([]int{64, 512}, 1)
	cost := map[string]int64{}
	for _, r := range rows {
		cost[r.Topology+"/"+r.Phase+"/"+r.Proto+"/"+itoa(r.History)] = r.Bytes
		if r.Proto == "delta" && r.Phase == "resync" && r.Commits != 0 {
			t.Errorf("%s/%d: converged delta re-sync shipped %d commits, want 0",
				r.Topology, r.History, r.Commits)
		}
	}
	for _, topo := range []string{"pair", "ring"} {
		small := cost[topo+"/resync/delta/64"]
		large := cost[topo+"/resync/delta/512"]
		if small == 0 || large == 0 {
			t.Fatalf("%s: missing rows: %v", topo, cost)
		}
		// Flat within 2x across an 8x history growth.
		if large > 2*small {
			t.Errorf("%s: delta re-sync grew with history: %d -> %d bytes", topo, small, large)
		}
		fullLarge := cost[topo+"/resync/full/512"]
		if fullLarge < 8*large {
			t.Errorf("%s: full re-sync (%d bytes) should dwarf delta (%d bytes)", topo, fullLarge, large)
		}
	}
	// Full protocol cost must grow roughly linearly with history.
	if cost["pair/resync/full/512"] < 4*cost["pair/resync/full/64"] {
		t.Errorf("full protocol should scale with history: %d vs %d",
			cost["pair/resync/full/64"], cost["pair/resync/full/512"])
	}
}

func TestPrintSyncCost(t *testing.T) {
	rows := SyncCost([]int{32}, 7)
	var sb strings.Builder
	PrintSyncCost(&sb, rows)
	out := sb.String()
	for _, want := range []string{"Sync cost", "pair", "ring", "resync", "fresh-op", "delta", "full"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output misses %q:\n%s", want, out)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
