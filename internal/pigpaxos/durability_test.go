package pigpaxos

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/wire"
)

// A durable relay on a nodetest.Loop whose Disk holds every flush until the
// test completes it: the relay's own accept and promise must wait for their
// flush, the forward to its group must not.

func durableRelay(t *testing.T) (*Replica, *nodetest.Loop, *nodetest.Disk, config.Cluster) {
	t.Helper()
	cc := config.NewLAN(9)
	loop := nodetest.NewLoop(cc.Nodes[3])
	disk := loop.NewDisk()
	disk.Held = true
	r := New(loop, Config{
		Paxos:     paxos.Config{Cluster: cc, ID: cc.Nodes[3], InitialLeader: cc.Nodes[0], Storage: disk},
		NumGroups: 2,
	})
	return r, loop, disk, cc
}

func TestRelaySelfAckWaitsForItsFlush(t *testing.T) {
	r, loop, disk, cc := durableRelay(t)
	leader, b := cc.Nodes[0], ids.NewBallot(1, cc.Nodes[0])
	peers := []ids.ID{cc.Nodes[4], cc.Nodes[5]}
	r.OnMessage(leader, wire.RelayP2a{
		P2a:     wire.P2a{Ballot: b, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}},
		Peers:   peers,
		Timeout: 50 * time.Millisecond,
	})
	if fwd := nodetest.SentOf[wire.P2a](loop); len(fwd) != len(peers) {
		t.Fatalf("%d forwards left at once, want %d: the forward reveals nothing of the relay's", len(fwd), len(peers))
	}
	// The whole group answers before the relay's own flush is over: the
	// aggregate still waits for the relay's ack.
	for _, p := range peers {
		r.OnMessage(p, wire.P2b{Ballot: b, From: p, Slot: 1})
	}
	if n := len(nodetest.SentOf[wire.AggP2b](loop)); n != 0 || !disk.Flying() {
		t.Fatalf("%d aggregates left with the relay's own accept in flight=%v", n, disk.Flying())
	}
	disk.Complete()
	aggs := nodetest.SentOf[wire.AggP2b](loop)
	if len(aggs) != 1 || len(aggs[0].Acks) != 3 || aggs[0].Partial {
		t.Fatalf("aggregates after the flush: %+v", aggs)
	}
}

func TestRelaySelfAckAfterTimeoutFlushGoesOnItsOwn(t *testing.T) {
	r, loop, disk, cc := durableRelay(t)
	leader, b := cc.Nodes[0], ids.NewBallot(1, cc.Nodes[0])
	peers := []ids.ID{cc.Nodes[4], cc.Nodes[5]}
	r.OnMessage(leader, wire.RelayP2a{
		P2a:     wire.P2a{Ballot: b, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}},
		Peers:   peers,
		Timeout: 50 * time.Millisecond,
	})
	r.OnMessage(peers[0], wire.P2b{Ballot: b, From: peers[0], Slot: 1})
	loop.Advance(60 * time.Millisecond) // relay timeout: a partial aggregate without the relay's ack
	aggs := nodetest.SentOf[wire.AggP2b](loop)
	if len(aggs) != 1 || !aggs[0].Partial || len(aggs[0].Acks) != 1 || aggs[0].Acks[0] != peers[0] {
		t.Fatalf("timeout aggregate: %+v", aggs)
	}
	disk.Complete()
	aggs = nodetest.SentOf[wire.AggP2b](loop)
	if len(aggs) != 2 || len(aggs[1].Acks) != 1 || aggs[1].Acks[0] != cc.Nodes[3] {
		t.Fatalf("the relay's late ack must reach the leader on its own: %+v", aggs)
	}
}

func TestRelayPromiseWaitsForItsFlush(t *testing.T) {
	r, loop, disk, cc := durableRelay(t)
	bidder, bid := cc.Nodes[8], ids.NewBallot(2, cc.Nodes[8])
	peers := []ids.ID{cc.Nodes[4]}
	r.OnMessage(bidder, wire.RelayP1a{P1a: wire.P1a{Ballot: bid, From: 1}, Peers: peers})
	if fwd := nodetest.SentOf[wire.P1a](loop); len(fwd) != 1 {
		t.Fatalf("%d bids forwarded at once, want 1", len(fwd))
	}
	r.OnMessage(peers[0], wire.P1b{Ballot: bid, From: peers[0], Floor: 1})
	if n := len(nodetest.SentOf[wire.AggP1b](loop)); n != 0 {
		t.Fatalf("%d aggregates left before the relay's own promise was durable", n)
	}
	disk.Complete()
	aggs := nodetest.SentOf[wire.AggP1b](loop)
	if len(aggs) != 1 || len(aggs[0].Replies) != 2 {
		t.Fatalf("aggregates after the flush: %+v", aggs)
	}
	// A lower bid afterwards is refused on the spot: the NACK has nothing
	// left to wait for (the ballot it reveals is journaled).
	r.OnMessage(cc.Nodes[0], wire.RelayP1a{P1a: wire.P1a{Ballot: ids.NewBallot(1, cc.Nodes[0]), From: 1}, Peers: peers})
	aggs = nodetest.SentOf[wire.AggP1b](loop)
	if len(aggs) != 2 || aggs[1].Ballot != bid {
		t.Fatalf("NACK: %+v", aggs)
	}
}
