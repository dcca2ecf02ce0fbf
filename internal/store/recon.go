package store

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/recon"
)

// Set reconciliation support: the store mirrors its commit set into an
// incrementally maintained recon.Tree, so the sync layer can answer
// range-fingerprint probes in O(log n) and resolve the exact symmetric
// difference between two replicas.
//
// Tree items are (generation, hash) keys: the commit's generation number
// — 1 + max parent generation, a deterministic function of the DAG, so
// identical on every replica holding the commit — prefixes its content
// address. Generation order gives the keyspace the locality that makes
// the descent cheap: two replicas that diverged recently differ only in
// high-generation commits, one contiguous tail of the keyspace, so the
// probe descent prunes the whole shared prefix in O(log n) matches
// instead of chasing uniformly scattered hashes through every subtree.
//
// The tree is built lazily on the first recon query — an O(n log n)
// seeding over the commit map plus any frozen checkpoint index — so a
// node that never syncs pays nothing, and checkpointed recovery stays
// flat in history. Once built, putCommit and GC keep it exact: every
// commit installation funnels through putCommit (Apply, Import, merges),
// and GC's sweep removes the collected hashes.

// ensureRecon builds the recon tree if it does not exist yet. It takes
// the write lock only on the build path; steady-state callers get a
// read-locked presence check.
func (s *Store[S, Op, Val]) ensureRecon() {
	s.mu.RLock()
	ok := s.rtree != nil
	s.mu.RUnlock()
	if ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rtree != nil {
		return
	}
	t := &recon.Tree{}
	for h, c := range s.commits {
		t.Add(recon.MakeItem(uint64(c.Gen), h))
	}
	if s.frozen != nil {
		for i, n := 0, s.frozen.NumCommits(); i < n; i++ {
			h, c := s.frozen.CommitAt(i)
			t.Add(recon.MakeItem(uint64(c.Gen), h))
		}
	}
	s.rtree = t
}

// ReconRoot returns the fingerprint and count of the store's whole
// commit set.
func (s *Store[S, Op, Val]) ReconRoot() (recon.Fingerprint, int) {
	s.ensureRecon()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rtree.Root()
}

// ReconRange returns the fingerprint and count of the commit keys in
// [x, y) (zero y: unbounded above).
func (s *Store[S, Op, Val]) ReconRange(x, y recon.Item) (recon.Fingerprint, int) {
	s.ensureRecon()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rtree.Range(x, y)
}

// ReconItems returns the commit keys in [x, y) in ascending order, at
// most max of them (max < 0: all).
func (s *Store[S, Op, Val]) ReconItems(x, y recon.Item, max int) []recon.Item {
	s.ensureRecon()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rtree.Items(nil, x, y, max)
}

// ReconSelect returns the k-th commit key (0-based, ascending) of
// [x, y) — the split-point oracle of the recursive range descent.
func (s *Store[S, Op, Val]) ReconSelect(x, y recon.Item, k int) (recon.Item, bool) {
	s.ensureRecon()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rtree.Select(x, y, k)
}

// HasCommit reports whether the store holds the commit addressed by h.
func (s *Store[S, Op, Val]) HasCommit(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.commitExistsLocked(h)
}

// BeginInstallCapture starts recording the hash of every commit newly
// installed by subsequent mutations (Apply, Import, merge commits minted
// by Pull), until the returned token is collected by EndInstallCapture
// or consumed by ExportSetCapture. Captures nest: each live token keeps
// its own log, so the sync layer can hold one capture across a whole
// reconciliation session (every commit a concurrent local Apply slips
// past the probe descent) while Integrate opens short inner captures to
// separate redundant re-ships from freshly minted merge commits.
func (s *Store[S, Op, Val]) BeginInstallCapture() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.beginInstallCaptureLocked()
}

func (s *Store[S, Op, Val]) beginInstallCaptureLocked() int {
	if s.installLogs == nil {
		s.installLogs = make(map[int][]Hash)
	}
	s.installSeq++
	s.installLogs[s.installSeq] = []Hash{}
	return s.installSeq
}

// EndInstallCapture stops the token's recording and returns the hashes
// installed since its BeginInstallCapture, in installation order. A
// token already ended (or consumed by ExportSetCapture) returns nil, so
// cleanup paths may call it unconditionally.
func (s *Store[S, Op, Val]) EndInstallCapture(token int) []Hash {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.endInstallCaptureLocked(token)
}

func (s *Store[S, Op, Val]) endInstallCaptureLocked(token int) []Hash {
	log, ok := s.installLogs[token]
	if !ok {
		return nil
	}
	delete(s.installLogs, token)
	return log
}

// ExportSetCapture exports exactly the commits in ship, in the packed
// wire form, parents-before-children, in generation order — Gen = 1 +
// max parent generation, so a parent always sorts strictly before its
// children and no DAG walk is needed. The returned head is branch b's
// current head (the graft point the receiver's Import expects). Ship
// hashes the store does not hold are skipped silently (the peer
// re-negotiates them next round).
//
// Enumerating the set directly — rather than walking down from the
// branch heads — matters for completeness: a reconciliation can
// legitimately resolve a commit that no branch head reaches any more (a
// tracking branch moved past it and GC has not run), and a reachability
// walk would silently drop it, leaving the two fingerprint trees
// permanently different and the pair re-probing the same dead diff
// every round.
//
// Under the same critical section the export first folds the commits
// recorded by the capture token — minus the skip set — into ship. The
// token spans the whole negotiation (armed before the first probe), so a
// commit a local Apply installs after its range was already compared
// still reaches the ship set, and because putCommit serializes on the
// same lock, any commit the exported head can reach is either
// pre-negotiation (resolved by the probes), in the capture, or in skip
// (known held by the receiver). skip is the receiver's own just-imported
// delta: commits it provably holds and must not be shipped back.
//
// The receiver can graft the batch because its holdings are closed
// under ancestry and the caller builds ship as "commits the receiver
// provably lacks": a parent outside the batch is therefore a commit the
// receiver already holds, which is also why a commit may ship as a patch
// against its first parent.
func (s *Store[S, Op, Val]) ExportSetCapture(b string, ship map[Hash]bool, token int, skip map[Hash]bool) ([]ExportedCommit, Hash, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.endInstallCaptureLocked(token) {
		if !skip[h] {
			ship[h] = true
		}
	}
	head, ok := s.heads[b]
	if !ok {
		return nil, Hash{}, fmt.Errorf("%w: %s", ErrNoBranch, b)
	}
	if len(ship) == 0 {
		return nil, head, nil
	}
	order := make([]Hash, 0, len(ship))
	for h := range ship {
		if s.commitExistsLocked(h) {
			order = append(order, h)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		gi, gj := s.commitAtLocked(order[i]).Gen, s.commitAtLocked(order[j]).Gen
		if gi != gj {
			return gi < gj
		}
		return bytes.Compare(order[i][:], order[j][:]) < 0
	})
	commits, err := s.exportOrderLocked(order, true)
	return commits, head, err
}
