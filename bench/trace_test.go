package main

import (
	"math"
	"testing"

	"pigpaxos/internal/wire"
)

func sp(kind spanKind, typ wire.Type, parent int32, start, end int64) span {
	return span{kind: kind, typ: uint8(typ), parent: parent, start: start, end: end}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		sp(spanHandler, wire.TRequest, -1, 0, 100), // 0: children 1,2,3 cover 70
		sp(spanAppend, 0, 0, 10, 20),               // 1
		sp(spanSync, 0, 0, 20, 60),                 // 2
		sp(spanBroadcast, wire.TP2a, 0, 60, 80),    // 3
		sp(spanHandler, wire.TP2b, -1, 200, 230),   // 4: child 5 covers 25
		sp(spanSend, wire.TReply, 4, 203, 228),     // 5
		sp(spanTimer, 0, -1, 300, 340),             // 6: no children
		sp(spanHandler, wire.TP2b, -1, 1000, 1010), // 7: outside the window below
	}
	want := []int64{30, 10, 40, 20, 5, 25, 40, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	u := loopUsage(spans, 0, 500)
	if u.busy != 170 || u.self != 75 || u.send != 45 || u.walSync != 40 || u.walAppend != 10 {
		t.Errorf("loopUsage = %+v, want busy 170 self 75 send 45 walSync 40 walAppend 10", u)
	}
	if u.busy != u.self+u.send+u.walSync+u.walAppend {
		t.Errorf("busy %d is not self+send+wal %d", u.busy, u.self+u.send+u.walSync+u.walAppend)
	}
}

// TestStageBudgetJoinsThroughReplySlot builds the leader's spans for two
// batched requests and one whose Reply the leader never sent, and checks the
// join: Request handler by (client, seq), proposal by the slot the Reply
// reported, apply callback through the Reply send's parent.
func TestStageBudgetJoinsThroughReplySlot(t *testing.T) {
	req := func(client, seq uint32, start, end int64) span {
		s := sp(spanHandler, wire.TRequest, -1, start, end)
		s.client, s.seq = client, seq
		return s
	}
	leader := []span{
		req(7, 1, 100, 110), // 0: client 7's request arrives
		req(8, 1, 150, 190), // 1: client 8's arrives and fills the batch
		func() span { // 2: the batch goes out as slot 42, inside handler 1
			s := sp(spanBroadcast, wire.TRelayP2a, 1, 160, 180)
			s.slot = 42
			return s
		}(),
		func() span { // 3: a retransmit of slot 42 must not move the stage edge
			s := sp(spanBroadcast, wire.TRelayP2a, -1, 300, 310)
			s.slot = 42
			return s
		}(),
		func() span { // 4: the vote that completes slot 42's quorum
			s := sp(spanHandler, wire.TAggP2b, -1, 500, 560)
			s.slot = 42
			return s
		}(),
		func() span { // 5: Reply to client 7, sent from handler 4
			s := sp(spanSend, wire.TReply, 4, 520, 530)
			s.slot, s.client, s.seq = 42, 7, 1
			return s
		}(),
		func() span { // 6: Reply to client 8
			s := sp(spanSend, wire.TReply, 4, 540, 550)
			s.slot, s.client, s.seq = 42, 8, 1
			return s
		}(),
		req(9, 1, 600, 610), // 7: client 9's request: no proposal, no reply
	}
	reqs := []reqSpan{
		{client: 7, seq: 1, due: 40, ack: 700, slot: 42},
		{client: 8, seq: 1, due: 120, ack: 720, slot: 42},
		{client: 9, seq: 1, due: 580, ack: 900, slot: 43},
		{client: 7, seq: 2, due: 50, ack: 0},                // never acknowledged: not a sample
		{client: 7, seq: 3, due: 5000, ack: 6000, slot: 42}, // outside the window
	}
	got, skipped := joinStages(reqs, leader, 0, 1000)
	if skipped != 1 || len(got) != 2 {
		t.Fatalf("joined %d, skipped %d; want 2 joined, 1 skipped", len(got), skipped)
	}
	want := []stageBudget{
		{ingress: 60, batchWait: 60, replicate: 340, applyReply: 20, egress: 180},
		{ingress: 30, batchWait: 10, replicate: 340, applyReply: 40, egress: 180},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d budget = %+v, want %+v", i, got[i], want[i])
		}
		if r := reqs[i]; got[i].total() != r.ack-r.due {
			t.Errorf("request %d stages sum to %d, its latency is %d", i, got[i].total(), r.ack-r.due)
		}
	}
	in, bw, rep, ar, eg, total := stageMedians(got)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(in, 0.045) || !near(bw, 0.035) || !near(rep, 0.34) || !near(ar, 0.03) || !near(eg, 0.18) || !near(total, 0.63) {
		t.Errorf("stage medians = %v %v %v %v %v total %v", in, bw, rep, ar, eg, total)
	}
}

func TestDescribeJoinsOnSlotAndSession(t *testing.T) {
	slot, client, seq := describe(wire.Reply{ClientID: 1003, Seq: 77, Slot: 9})
	if slot != 9 || client != 1003 || seq != 77 {
		t.Errorf("describe(Reply) = %d %d %d", slot, client, seq)
	}
	slot, _, _ = describe(wire.RelayP2a{P2a: wire.P2a{Slot: 12}})
	if slot != 12 {
		t.Errorf("describe(RelayP2a) slot = %d, want 12", slot)
	}
	slot, _, _ = describe(wire.AggP2b{Slot: 13})
	if slot != 13 {
		t.Errorf("describe(AggP2b) slot = %d, want 13", slot)
	}
}
