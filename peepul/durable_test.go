package peepul_test

import (
	"slices"
	"testing"

	"repro/peepul"
)

// TestDurableRestartResume: a node opened with WithStorage, killed
// (closed) and reopened over the same directory resumes its objects
// with full history — same state, same head, and fresh operations keep
// dominating recovered timestamps.
func TestDurableRestartResume(t *testing.T) {
	dir := t.TempDir()
	n, err := peepul.NewNode("alice", 1, peepul.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	log, err := peepul.Open(n, peepul.MLog, "notes")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"one", "two", "three"} {
		if _, err := log.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: msg}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := log.State()
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := log.StorageStats(); !ok || st.Records == 0 {
		t.Fatalf("durable object reported no storage activity: %+v ok=%v", st, ok)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := peepul.NewNode("alice", 1, peepul.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	log2, err := peepul.Open(n2, peepul.MLog, "notes")
	if err != nil {
		t.Fatalf("reopen after restart: %v", err)
	}
	got, err := log2.State()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("restart lost history: got %v want %v", got, want)
	}
	if _, err := log2.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: "four"}); err != nil {
		t.Fatal(err)
	}
	after, _ := log2.State()
	if len(after) != len(want)+1 || after[0].T <= want[0].T {
		t.Fatalf("post-restart operation does not extend recovered history: %v", after)
	}
}

// TestStorageStatsCheckpoint: StorageStats reports the checkpoint
// machinery — checkpoints written at the log's cadence (every 1024
// operations), the age of the newest one (records since it), and how
// the last open recovered: "cold" for a fresh directory, "checkpoint"
// after a clean restart.
func TestStorageStatsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	n, err := peepul.NewNode("alice", 1, peepul.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	log, err := peepul.Open(n, peepul.MLog, "notes")
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := log.StorageStats(); !ok || st.RecoveryMode != "cold" {
		t.Fatalf("fresh durable object: RecoveryMode = %q ok=%v, want cold", st.RecoveryMode, ok)
	}
	const ops = 1100
	for i := 0; i < ops; i++ {
		if _, err := log.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := log.StorageStats()
	if !ok {
		t.Fatal("durable object reported no storage")
	}
	if st.Checkpoints == 0 {
		t.Fatalf("no checkpoints after %d ops at cadence 1024: %+v", ops, st)
	}
	if st.CheckpointAge == 0 || st.CheckpointAge >= st.Records {
		t.Fatalf("CheckpointAge = %d with %d records — expected a mid-session age between the two", st.CheckpointAge, st.Records)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := peepul.NewNode("alice", 1, peepul.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	log2, err := peepul.Open(n2, peepul.MLog, "notes")
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := log2.StorageStats()
	if st2.RecoveryMode != "checkpoint" {
		t.Fatalf("after clean restart: RecoveryMode = %q, want checkpoint", st2.RecoveryMode)
	}
	if st2.CheckpointAge != 0 {
		t.Fatalf("after clean restart: CheckpointAge = %d, want 0 (close wrote a final checkpoint)", st2.CheckpointAge)
	}
}

// TestDurableDatatypeMismatch: reopening an object directory under a
// different datatype must fail loudly, never merge incompatible states.
func TestDurableDatatypeMismatch(t *testing.T) {
	dir := t.TempDir()
	n, err := peepul.NewNode("alice", 1, peepul.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peepul.Open(n, peepul.MLog, "thing"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := peepul.NewNode("alice", 1, peepul.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if _, err := peepul.Open(n2, peepul.IncCounter, "thing"); err == nil {
		t.Fatal("reopening an mlog log as a counter succeeded")
	}
}

// TestRestartThenSync: persist a node, restart it from disk, delta-sync
// with a live peer — final states, heads and shipped-commit counts must
// match a control pair that never restarted.
func TestRestartThenSync(t *testing.T) {
	runScenario := func(t *testing.T, restart bool) (state peepul.MLogState, commitsRecv int64) {
		t.Helper()
		dir := t.TempDir()
		// Live peer "bob" stays up the whole time.
		bob, err := peepul.NewNode("bob", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer bob.Close()
		bobLog, err := peepul.Open(bob, peepul.MLog, "notes")
		if err != nil {
			t.Fatal(err)
		}
		if err := bob.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}

		alice, err := peepul.NewNode("alice", 1, peepul.WithStorage(dir))
		if err != nil {
			t.Fatal(err)
		}
		aliceLog, err := peepul.Open(alice, peepul.MLog, "notes")
		if err != nil {
			t.Fatal(err)
		}
		// Phase 1: both sides write, one sync round converges them.
		for i := 0; i < 5; i++ {
			if _, err := aliceLog.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: "a"}); err != nil {
				t.Fatal(err)
			}
			if _, err := bobLog.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: "b"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := alice.SyncWith(bob.Addr()); err != nil {
			t.Fatal(err)
		}
		// Bob moves on while alice is (possibly) down.
		for i := 0; i < 3; i++ {
			if _, err := bobLog.Do(peepul.MLogOp{Kind: peepul.MLogAppend, Msg: "offline"}); err != nil {
				t.Fatal(err)
			}
		}
		if restart {
			if err := alice.Close(); err != nil {
				t.Fatal(err)
			}
			alice, err = peepul.NewNode("alice", 1, peepul.WithStorage(dir))
			if err != nil {
				t.Fatal(err)
			}
			aliceLog, err = peepul.Open(alice, peepul.MLog, "notes")
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
		}
		defer alice.Close()
		// Phase 2: the (restarted) node delta-syncs with the live peer.
		// Only this sync's traffic is compared — sync counters are
		// session-scoped, so the meaningful invariant is that the
		// recovered commit set makes the post-restart sync ship exactly
		// what the control's would, not re-fetch held history.
		before := aliceLog.Stats().CommitsRecv
		if err := alice.SyncWith(bob.Addr()); err != nil {
			t.Fatalf("sync after restart=%v: %v", restart, err)
		}
		st, err := aliceLog.State()
		if err != nil {
			t.Fatal(err)
		}
		return st, aliceLog.Stats().CommitsRecv - before
	}

	plainState, plainRecv := runScenario(t, false)
	restartState, restartRecv := runScenario(t, true)
	if !slices.Equal(plainState, restartState) {
		t.Fatalf("restarted run diverged:\n restarted: %v\n control:   %v", restartState, plainState)
	}
	// The recovered commit set must be as good as the live one: the
	// restarted node may not re-fetch history it already holds on disk.
	if restartRecv != plainRecv {
		t.Fatalf("restarted run received %d commits, control received %d — recovered commit set is not intact", restartRecv, plainRecv)
	}
}
