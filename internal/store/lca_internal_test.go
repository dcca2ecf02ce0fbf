package store

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
)

// White-box tests of the merge-base machinery: the public API's soundness
// discipline makes some DAG shapes (criss-cross with merge commits on both
// sides) unreachable, so the recursive virtual-base path is exercised here
// by constructing commits directly.

// int64Codec is a minimal in-package codec (the wire package's codecs
// would import-cycle back into store).
type int64Codec struct{}

func (int64Codec) Encode(s int64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(s))
}

func (int64Codec) Decode(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("int64 codec: %d bytes", len(b))
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

func newInternalCounterStore() *Store[int64, counter.Op, counter.Val] {
	return New[int64, counter.Op, counter.Val](counter.IncCounter{}, int64Codec{}, "main")
}

// nextTime distinguishes synthetic commits: the store is content
// addressed, so two chains built from the same parent with the same states
// would otherwise collapse into one.
var nextTime int64

// commitChain appends n operation commits on top of parent, returning the
// final hash. Each commit's state adds one.
func commitChain(s *Store[int64, counter.Op, counter.Val], parent Hash, n int) Hash {
	h := parent
	for i := 0; i < n; i++ {
		c := s.commits[h]
		cur, err := s.stateLocked(c.State)
		if err != nil {
			panic(err)
		}
		st := s.putState(cur+1, c.State, nil)
		nextTime++
		h = s.putCommit(Commit{Parents: []Hash{h}, State: st, Gen: c.Gen + 1, Time: core.Timestamp(nextTime)})
	}
	return h
}

func mergeCommit(s *Store[int64, counter.Op, counter.Val], a, b Hash, state int64) Hash {
	gen := s.commits[a].Gen
	if g := s.commits[b].Gen; g > gen {
		gen = g
	}
	st := s.putState(state, s.commits[a].State, nil)
	return s.putCommit(Commit{Parents: []Hash{a, b}, State: st, Gen: gen + 1})
}

func TestLCASimpleFork(t *testing.T) {
	s := newInternalCounterStore()
	root := s.heads["main"]
	base := commitChain(s, root, 2)
	a := commitChain(s, base, 3)
	b := commitChain(s, base, 1)
	got, err := s.lca(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Fatalf("lca = %v, want the fork point %v", got, base)
	}
}

func TestLCAAncestorCases(t *testing.T) {
	s := newInternalCounterStore()
	root := s.heads["main"]
	mid := commitChain(s, root, 2)
	tip := commitChain(s, mid, 2)
	if got, _ := s.lca(mid, tip); got != mid {
		t.Fatal("lca(ancestor, descendant) must be the ancestor")
	}
	if got, _ := s.lca(tip, tip); got != tip {
		t.Fatal("lca(x, x) must be x")
	}
}

func TestLCACrissCrossVirtualBase(t *testing.T) {
	// Classic criss-cross: fork at base into a1 and b1; create merge
	// commits ma = merge(a1, b1) and mb = merge(b1, a1); extend both.
	// a1 and b1 are then both maximal common ancestors, and the merge
	// base must be their recursive (virtual) merge.
	s := newInternalCounterStore()
	root := s.heads["main"]
	base := commitChain(s, root, 1) // state 1
	a1 := commitChain(s, base, 1)   // state 2
	b1 := commitChain(s, base, 2)   // state 3
	// Correct three-way merges by hand: a1+b1-base = 2+3-1 = 4.
	ma := mergeCommit(s, a1, b1, 4)
	mb := mergeCommit(s, b1, a1, 4)
	a2 := commitChain(s, ma, 1) // state 5
	b2 := commitChain(s, mb, 2) // state 6

	maximal := s.maximalCommonAncestors(a2, b2)
	if len(maximal) != 2 {
		t.Fatalf("expected 2 maximal common ancestors, got %d", len(maximal))
	}
	vbase, err := s.lca(a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	c := s.commits[vbase]
	if len(c.Parents) != 2 {
		t.Fatalf("virtual base must be a merge commit, got %+v", c)
	}
	// The virtual base's state is merge(base, a1, b1) = 4, so a final
	// three-way merge yields 5 + 6 − 4 = 7 — each increment counted once.
	mustState := func(h Hash) int64 {
		st, err := s.stateLocked(h)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if got := mustState(c.State); got != 4 {
		t.Fatalf("virtual base state = %d, want 4", got)
	}
	merged := s.impl.Merge(mustState(c.State), mustState(s.commits[a2].State), mustState(s.commits[b2].State))
	if merged != 7 {
		t.Fatalf("merge over virtual base = %d, want 7", merged)
	}
}

func TestExclusiveOpsPartition(t *testing.T) {
	s := newInternalCounterStore()
	root := s.heads["main"]
	base := commitChain(s, root, 2)
	shared := commitChain(s, base, 1) // op below both heads: reported by neither
	a1 := commitChain(s, shared, 2)
	b1 := commitChain(s, shared, 1)
	m := mergeCommit(s, a1, b1, 0) // merge commit: creates no event
	a := commitChain(s, m, 1)
	aOps, bOps := s.exclusiveOps(a, b1)
	// a's side: its own two ops above shared, plus the op atop the merge.
	// b1's ops are reachable from a through the merge, so b has none.
	if len(aOps) != 3 || len(bOps) != 0 {
		t.Fatalf("exclusiveOps = %d/%d ops, want 3/0", len(aOps), len(bOps))
	}
	aOps, bOps = s.exclusiveOps(a1, b1)
	if len(aOps) != 2 || len(bOps) != 1 {
		t.Fatalf("exclusiveOps(a1, b1) = %d/%d ops, want 2/1", len(aOps), len(bOps))
	}
	if x, y := s.exclusiveOps(a, a); x != nil || y != nil {
		t.Fatal("exclusiveOps(x, x) must be empty")
	}
}

func TestMaximalCommonAncestorsDominated(t *testing.T) {
	// A chain: every common ancestor of two descendants is dominated by
	// the deepest one; only one maximal ancestor must be reported.
	s := newInternalCounterStore()
	root := s.heads["main"]
	deep := commitChain(s, root, 5)
	a := commitChain(s, deep, 1)
	b := commitChain(s, deep, 2)
	maximal := s.maximalCommonAncestors(a, b)
	if len(maximal) != 1 || maximal[0] != deep {
		t.Fatalf("maximal = %v, want just the deepest fork point", maximal)
	}
}
