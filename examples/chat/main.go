// Chat: the IRC-style application of §5.1 built *compositionally* — an
// α-map from channel names to mergeable logs, with no chat-specific merge
// code at all — and replicated *live*: three networked nodes in a
// hub-and-spoke topology whose always-on daemon does every exchange. The
// spokes supervise the hub (exchanges are bidirectional, so spoke-to-hub
// supervision carries news both ways), nobody calls a sync method, and
// the hub redraws from Watch events as the spokes' messages arrive. All
// three replicas end with identical, reverse-chronologically ordered
// channel logs.
//
//	go run ./examples/chat
package main

import (
	"context"
	"fmt"
	"time"

	"repro/peepul"
)

type replica struct {
	node *peepul.Node
	room *peepul.Handle[peepul.ChatState, peepul.ChatOp, peepul.ChatVal]
}

func open(name string, id int) replica {
	node, err := peepul.NewNode(name, id,
		peepul.WithMeshInterval(100*time.Millisecond))
	if err != nil {
		panic(err)
	}
	room, err := peepul.Open(node, peepul.Chat, "workspace")
	if err != nil {
		panic(err)
	}
	if err := node.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	return replica{node: node, room: room}
}

func main() {
	hub, nomad, office := open("hub", 1), open("nomad", 2), open("office", 3)
	defer hub.node.Close()
	defer nomad.node.Close()
	defer office.node.Close()

	// Hub-and-spoke: each spoke supervises the hub; the hub supervises
	// nobody. The daemon's bidirectional exchanges still relay every
	// message spoke -> hub -> other spoke.
	nomad.node.AddPeer(hub.node.Addr())
	office.node.AddPeer(hub.node.Addr())

	// The hub's screen: one line per remote merge, driven by Watch.
	ctx, cancelWatch := context.WithCancel(context.Background())
	defer cancelWatch()
	hubSeen := make(chan struct{}, 64)
	go func() {
		for ev := range hub.room.Watch(ctx) {
			fmt.Printf("[hub] news from %s (head %x...)\n", ev.From, ev.Head[:4])
			hubSeen <- struct{}{}
		}
	}()

	say := func(r replica, ch, msg string) {
		if _, err := r.room.Do(peepul.ChatOp{Kind: peepul.ChatSend, Ch: ch, Msg: r.node.Name() + ": " + msg}); err != nil {
			panic(err)
		}
	}

	// Round 1: both spokes post concurrently; the daemon gossips.
	say(nomad, "#general", "checking in from the train")
	say(office, "#general", "standup in five")
	say(office, "#ops", "deploy queued")
	await([]replica{hub, nomad, office}, 3)

	// Round 2: more traffic, same silence from the application — not one
	// sync call in this whole program.
	say(nomad, "#ops", "holding the deploy, tunnel ahead")
	say(office, "#general", "ack, see you at standup")
	await([]replica{hub, nomad, office}, 5)
	cancelWatch()

	var rendered []string
	for _, r := range []replica{hub, nomad, office} {
		out := ""
		fmt.Printf("=== %s ===\n", r.node.Name())
		st, err := r.room.State()
		if err != nil {
			panic(err)
		}
		for _, ch := range st {
			fmt.Printf("  %s\n", ch.K)
			for _, m := range ch.V {
				fmt.Printf("    %s\n", m.Msg)
				out += m.Msg + "\n"
			}
		}
		rendered = append(rendered, out)
	}
	if rendered[0] != rendered[1] || rendered[1] != rendered[2] {
		panic("replicas diverged")
	}
	if len(hubSeen) == 0 {
		panic("hub watcher saw no remote merges")
	}
	fmt.Println("all three replicas render identical logs — replicated by the daemon alone")
}

// await blocks until every replica holds want messages and the identical
// head hash.
func await(rs []replica, want int) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ref, err := rs[0].room.Store().HeadHash(rs[0].room.Branch())
		if err != nil {
			panic(err)
		}
		converged := true
		for _, r := range rs {
			st, err := r.room.State()
			if err != nil {
				panic(err)
			}
			total := 0
			for _, ch := range st {
				total += len(ch.V)
			}
			head, err := r.room.Store().HeadHash(r.room.Branch())
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
