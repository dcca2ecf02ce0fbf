package store

import (
	"bytes"
	"errors"
	"sort"
)

// ErrNoCommonAncestor is returned when two commits share no ancestor; it
// cannot happen for commits created through the store's API (every branch
// descends from the root), and indicates corruption.
var ErrNoCommonAncestor = errors.New("store: no common ancestor")

// lca returns the merge base for two commits: the unique maximal common
// ancestor when there is one, or — in criss-cross histories with several
// maximal common ancestors — a virtual commit produced by recursively
// merging the candidates, as in Git's recursive merge strategy. The
// virtual commit is recorded in the DAG (but on no branch), so nested
// criss-crosses terminate.
//
// The returned base is what makes every pull satisfy Ψ_lca: a commit
// reachable from both heads is a common ancestor, every common ancestor
// is dominated by a maximal one, and the fold joins all maximal ones —
// so the base's operation set is exactly the intersection of the heads'
// operation sets. The data type merges are verified against precisely
// that property (the base carries the common information, no more, no
// less), so any pair of heads may be merged over it, whatever order
// gossip delivered their histories in.
func (s *Store[S, Op, Val]) lca(a, b Hash) (Hash, error) {
	return s.foldBases(s.maximalCommonAncestors(a, b), s.lca)
}

// foldBases reduces a candidate merge-base set to a single base,
// recursively merging pairs into virtual commits via rec (the LCA
// function folding — fast or reference — so each keeps its own
// recursion). Candidates are folded in hash order: content addressing
// then makes both implementations materialize bit-identical virtual
// commits, which is what lets the property tests compare them.
func (s *Store[S, Op, Val]) foldBases(cands []Hash, rec func(a, b Hash) (Hash, error)) (Hash, error) {
	switch len(cands) {
	case 0:
		return Hash{}, ErrNoCommonAncestor
	case 1:
		return cands[0], nil
	}
	sort.Slice(cands, func(i, j int) bool {
		return bytes.Compare(cands[i][:], cands[j][:]) < 0
	})
	base := cands[0]
	for _, next := range cands[1:] {
		vbase, err := rec(base, next)
		if err != nil {
			return Hash{}, err
		}
		baseCommit, nextCommit := s.commitAtLocked(base), s.commitAtLocked(next)
		vbaseState, err := s.stateLocked(s.commitAtLocked(vbase).State)
		if err != nil {
			return Hash{}, err
		}
		baseState, err := s.stateLocked(baseCommit.State)
		if err != nil {
			return Hash{}, err
		}
		nextState, err := s.stateLocked(nextCommit.State)
		if err != nil {
			return Hash{}, err
		}
		merged := s.impl.Merge(vbaseState, baseState, nextState)
		gen := baseCommit.Gen
		if nextCommit.Gen > gen {
			gen = nextCommit.Gen
		}
		st := s.putState(merged, baseCommit.State, nil)
		base = s.putCommit(Commit{
			Parents: []Hash{base, next},
			State:   st,
			Gen:     gen + 1,
		})
	}
	return base, nil
}

// maximalCommonAncestors returns the common ancestors of a and b that are
// not ancestors of another common ancestor. Commits count as their own
// ancestors, so a fast-forward situation (a an ancestor of b) yields a.
//
// This is Git's paint-down-to-common walk guided by generation numbers:
// commits are colored flagP1/flagP2 as the walk descends from the two
// tips in decreasing generation order, a commit reached by both colors is
// a common ancestor and poisons its own ancestry flagStale, and the walk
// stops once every queued commit is stale — it never descends past the
// merge base's generation band, so the cost is bounded by the divergence
// region rather than total history. Generation order makes flags final at
// pop time, so unlike Git (which orders by fallible commit dates) no
// post-pass over the candidates is needed: a dominated common ancestor is
// always painted stale before it is popped.
func (s *Store[S, Op, Val]) maximalCommonAncestors(a, b Hash) []Hash {
	if a == b {
		return []Hash{a}
	}
	p := newPainter(s.commitAtLocked, flagStale)
	p.add(a, flagP1)
	p.add(b, flagP2)
	var maximal []Hash
	steps := 0
	for p.active() {
		h, f := p.pop()
		steps++
		if f&flagStale == 0 && f&(flagP1|flagP2) == flagP1|flagP2 {
			maximal = append(maximal, h)
			f |= flagStale
		}
		for _, par := range s.commitAtLocked(h).Parents {
			p.add(par, f)
		}
	}
	if m := s.metrics; m != nil {
		m.lcaSteps.Add(int64(steps))
	}
	return maximal
}

// exclusiveOps partitions the operation commits of the divergence region
// of a and b: those reachable only from a and those reachable only from
// b. Operation commits reachable from both are shared history and
// reported by neither side; merge commits create no events and are never
// reported. The walk is the merge-base paint (generation-ordered, common
// ancestry goes stale), so both slices come back in non-increasing
// generation order and the cost is O(divergence).
func (s *Store[S, Op, Val]) exclusiveOps(a, b Hash) (aOps, bOps []Hash) {
	p := newPainter(s.commitAtLocked, flagStale)
	p.add(a, flagP1)
	p.add(b, flagP2)
	steps := 0
	for p.active() {
		h, f := p.pop()
		steps++
		c := s.commitAtLocked(h)
		if f&flagStale == 0 && f&(flagP1|flagP2) == flagP1|flagP2 {
			f |= flagStale
		}
		if f&flagStale == 0 && len(c.Parents) == 1 {
			if f&flagP1 != 0 {
				aOps = append(aOps, h)
			} else {
				bOps = append(bOps, h)
			}
		}
		for _, par := range c.Parents {
			p.add(par, f)
		}
	}
	if m := s.metrics; m != nil {
		m.lcaSteps.Add(int64(steps))
	}
	return aOps, bOps
}
