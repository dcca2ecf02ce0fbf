package disk

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestShadowRefreezes: every in-session checkpoint adopts the sections
// it wrote as the shadow's frozen base and empties the overlay maps, and
// the index that shadow describes is the whole log's — a checkpoint
// encoded from it is byte-identical to one encoded from every entry held
// in maps. A crash image taken after the third checkpoint recovers the
// same index by seek and by full replay.
func TestShadowRefreezes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, WithCheckpointEvery(4), WithSegmentBytes(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendNextID(1); err != nil {
		t.Fatal(err)
	}

	// all is the reference: the same index with nothing frozen.
	all := newShadow()
	all.nextID = 1
	rng := rand.New(rand.NewSource(1))
	hash := func() (h store.Hash) {
		rng.Read(h[:])
		return h
	}
	var head store.Hash
	for i := 0; l.stats.Checkpoints < 3; i++ {
		if i == 200 {
			t.Fatalf("only %d checkpoints after %d mutations", l.stats.Checkpoints, i)
		}
		state := hash()
		data := make([]byte, 64+rng.Intn(64))
		rng.Read(data)
		if err := l.AppendObject(state, store.ObjectRecord{Data: data, Size: len(data)}); err != nil {
			t.Fatal(err)
		}
		all.objects[state] = l.shadow.objects[state]
		c := store.Commit{State: state, Gen: i, Time: core.Timestamp(i + 1)}
		if i > 0 {
			c.Parents = []store.Hash{head}
		}
		head = hash()
		if err := l.AppendCommit(head, c); err != nil {
			t.Fatal(err)
		}
		all.commits[head] = c
		b := store.BranchRecord{Head: head, Clock: int64(i + 1)}
		if err := l.AppendBranch("main", b); err != nil {
			t.Fatal(err)
		}
		all.branches["main"] = b

		before := l.stats.Checkpoints
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if l.stats.Checkpoints == before {
			continue
		}
		if n := len(l.shadow.commits) + len(l.shadow.objects); n != 0 {
			t.Fatalf("checkpoint %d left %d overlay entries", l.stats.Checkpoints, n)
		}
		fz := l.shadow.frozen
		if fz == nil || fz.NumCommits() != len(all.commits) || fz.NumObjects() != len(all.objects) {
			t.Fatalf("checkpoint %d froze the wrong index", l.stats.Checkpoints)
		}
	}
	// One more mutation lands in the overlay, over the frozen base.
	if err := l.AppendBranchDelete("main"); err != nil {
		t.Fatal(err)
	}
	delete(all.branches, "main")
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	want := encodeCheckpoint(nil, &all)
	if got := encodeCheckpoint(l.meta, &l.shadow); !bytes.Equal(got, want) {
		t.Fatal("the re-frozen shadow encodes a different checkpoint than the whole index")
	}

	// Recover a crash image (every record flushed, no closing checkpoint)
	// both ways.
	crash := t.TempDir()
	if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{ModeCheckpoint, ModeReplay} {
		opts := []Option{WithCheckpointEvery(0)}
		if mode == ModeReplay {
			opts = append(opts, WithFullReplay())
		}
		rl, rec, err := Open(crash, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Mode != mode {
			t.Fatalf("recovered by %q, want %q", rec.Mode, mode)
		}
		got := encodeCheckpoint(rl.meta, &rl.shadow)
		if err := rl.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s recovery rebuilt a different index", mode)
		}
	}
}
