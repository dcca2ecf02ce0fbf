// Command chat-demo runs the decentralised IRC-style chat of §5.1 as a
// *live* fleet: three networked replicas (alice, bob, carol) gossiping
// through the always-on sync daemon — no central server, and no manual
// sync call anywhere. Each replica posts concurrently; the daemon's
// push-on-commit and anti-entropy rounds carry the messages; each
// replica's screen redraws from Watch events as remote merges land.
// Built entirely on the public peepul API.
//
// With -data <dir> the demo is durable instead: the node keeps its
// commit DAG in a segmented pack log under dir, so killing the process
// and running it again resumes the conversation where it left off —
// each run posts one more message and prints the channel history
// recovered from disk.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/peepul"
)

func main() {
	data := flag.String("data", "", "storage directory; the demo resumes the conversation across restarts")
	debug := flag.String("debug", "", "serve the live debug endpoint (metrics, snapshot, trace, pprof) on this address; the live fleet gives this address to alice and auto-picks ports for the rest")
	flag.Parse()
	if *data != "" {
		durable(*data, *debug)
		return
	}
	live(*debug)
}

type chatNode struct {
	node *peepul.Node
	room *peepul.Handle[peepul.ChatState, peepul.ChatOp, peepul.ChatVal]
}

// live runs the always-on fleet: a three-node gossip ring where every
// replica posts on its own node and the daemon does all the replication.
func live(debugAddr string) {
	names := []string{"alice", "bob", "carol"}
	fleet := make([]chatNode, len(names))
	for i, name := range names {
		opts := []peepul.NodeOption{
			peepul.WithMeshInterval(100 * time.Millisecond),
		}
		if debugAddr != "" {
			// One fixed address can only bind once: alice gets the asked-for
			// address, the others auto-pick ports on the same interface.
			addr := debugAddr
			if i > 0 {
				addr = "127.0.0.1:0"
			}
			opts = append(opts, peepul.WithDebugAddr(addr))
		}
		node, err := peepul.NewNode(name, i+1, opts...)
		if err != nil {
			panic(err)
		}
		defer node.Close()
		room, err := peepul.Open(node, peepul.Chat, "conference")
		if err != nil {
			panic(err)
		}
		must(node.Listen("127.0.0.1:0"))
		if debugAddr != "" {
			fmt.Printf("[%s] debug endpoint: http://%s/debug/peepul/snapshot\n", name, node.DebugAddr())
		}
		fleet[i] = chatNode{node: node, room: room}
	}
	// Close the ring: each node supervises its successor. Exchanges are
	// bidirectional, so one direction of supervision converges the fleet.
	for i := range fleet {
		fleet[i].node.AddPeer(fleet[(i+1)%len(fleet)].node.Addr())
	}

	// Watch-driven redraw: every remote merge that moves a replica's head
	// reprints that replica's view of the room. No polling, no sync calls
	// — the channel fires exactly when replication changed something.
	ctx, cancelWatch := context.WithCancel(context.Background())
	defer cancelWatch()
	for _, cn := range fleet {
		go func(cn chatNode) {
			for ev := range cn.room.Watch(ctx) {
				st, err := cn.room.State()
				if err != nil {
					return
				}
				total := 0
				for _, ch := range st {
					total += len(ch.V)
				}
				fmt.Printf("[%s] merge from %s: now sees %d message(s)\n",
					cn.node.Name(), ev.From, total)
			}
		}(cn)
	}

	post := func(i int, ch, msg string) {
		who := names[i]
		if _, err := fleet[i].room.Do(peepul.ChatOp{Kind: peepul.ChatSend, Ch: ch, Msg: who + ": " + msg}); err != nil {
			panic(err)
		}
		fmt.Printf("[%s posts to %s] %s\n", who, ch, msg)
	}

	post(0, "#pldi", "anyone reproduced the queue MRDT?")
	post(1, "#pldi", "working on it, merge is linear time")
	post(2, "#types", "simulation relations are neat")
	post(1, "#types", "they compose through the alpha-map!")

	fmt.Println("\n--- daemon gossip: no SyncWith, no Sync — waiting for convergence ---")
	awaitChat(fleet, 4)
	// Detach the watchers (their channels close) and give any in-flight
	// redraw a beat to print before the final views.
	cancelWatch()
	time.Sleep(50 * time.Millisecond)

	for _, cn := range fleet {
		fmt.Printf("\n=== %s's view ===\n", cn.node.Name())
		renderRoom(cn.room)
	}
	fmt.Println("\nall replicas converged on identical heads; daemon activity:")
	for _, cn := range fleet {
		for addr, st := range cn.node.MeshStats() {
			fmt.Printf("  %s -> %s: %d round(s), %d push(es)\n",
				cn.node.Name(), addr, st.Rounds, st.Pushes)
		}
	}
}

// awaitChat blocks until every replica holds want messages and the
// identical head hash.
func awaitChat(fleet []chatNode, want int) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ref, err := fleet[0].room.Store().HeadHash(fleet[0].room.Branch())
		if err != nil {
			panic(err)
		}
		converged := true
		for _, cn := range fleet {
			st, err := cn.room.State()
			if err != nil {
				panic(err)
			}
			total := 0
			for _, ch := range st {
				total += len(ch.V)
			}
			head, err := cn.room.Store().HeadHash(cn.room.Branch())
			if err != nil {
				panic(err)
			}
			if total != want || head != ref {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			panic("fleet did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// renderRoom prints every channel of the room, newest message first,
// straight from the replica's state — no read operation, no new commit.
func renderRoom(room *peepul.Handle[peepul.ChatState, peepul.ChatOp, peepul.ChatVal]) {
	st, err := room.State()
	if err != nil {
		panic(err)
	}
	for _, ch := range st {
		fmt.Printf("%s:\n", ch.K)
		for _, entry := range ch.V {
			fmt.Printf("  [t=%d] %s\n", entry.T, entry.Msg)
		}
	}
}

// durable runs the restartable variant: one durable node, one channel,
// one new message per run, full history printed from the recovered DAG.
func durable(dir, debugAddr string) {
	opts := []peepul.NodeOption{peepul.WithStorage(dir)}
	if debugAddr != "" {
		opts = append(opts, peepul.WithDebugAddr(debugAddr))
	}
	node, err := peepul.NewNode("alice", 1, opts...)
	if err != nil {
		panic(err)
	}
	defer node.Close()
	room, err := peepul.Open(node, peepul.Chat, "conference")
	if err != nil {
		panic(err)
	}

	v, err := room.Do(peepul.ChatOp{Kind: peepul.ChatRead, Ch: "#pldi"})
	if err != nil {
		panic(err)
	}
	n := len(v.Log)
	if n == 0 {
		fmt.Printf("fresh conversation in %s\n", dir)
	} else {
		fmt.Printf("resumed conversation from %s (%d messages on disk)\n", dir, n)
	}
	msg := fmt.Sprintf("alice: message #%d, surviving restarts", n+1)
	if _, err := room.Do(peepul.ChatOp{Kind: peepul.ChatSend, Ch: "#pldi", Msg: msg}); err != nil {
		panic(err)
	}

	v, err = room.Do(peepul.ChatOp{Kind: peepul.ChatRead, Ch: "#pldi"})
	if err != nil {
		panic(err)
	}
	fmt.Println("#pldi:")
	for _, entry := range v.Log {
		fmt.Printf("  [t=%d] %s\n", entry.T, entry.Msg)
	}
	if st, ok := room.StorageStats(); ok {
		fmt.Printf("\non disk: %d segment(s), %d bytes, recovered via %s — kill and rerun to resume\n",
			st.Segments, st.Bytes, st.RecoveryMode)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
