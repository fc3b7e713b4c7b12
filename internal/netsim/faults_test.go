package netsim

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/wire"
)

// A message already in flight when a partition lands is dropped at arrival
// and counted in MessagesDropped: the cut applies to the wire, not just to
// future sends.
func TestPartitionDropsInFlightMessages(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1}) // arrives at 125µs
	})
	// Cut the pair while the message is mid-flight.
	sim.Schedule(50*time.Microsecond, func() {
		net.Partition([]ids.ID{eps[0].ID()}, []ids.ID{eps[1].ID()})
	})
	sim.RunUntilIdle()
	if len(recs[1].got) != 0 {
		t.Fatalf("in-flight message crossed the cut: %d delivered", len(recs[1].got))
	}
	if got := net.MessagesDropped(); got != 1 {
		t.Errorf("MessagesDropped = %d, want 1", got)
	}
	if got := net.MessagesSent(); got != 1 {
		t.Errorf("MessagesSent = %d, want 1", got)
	}
}

// A message that fully arrived before the partition is handled even if the
// cut lands between arrival and handling — the cut severs the wire, not the
// receiver's already-queued work.
func TestPartitionSparesAlreadyArrivedMessage(t *testing.T) {
	opts := Options{RecvCost: 100 * time.Microsecond}
	sim, net, recs, eps := setup(2, opts)
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1}) // arrival 125µs, handling 225µs
	})
	sim.Schedule(150*time.Microsecond, func() {
		net.Partition([]ids.ID{eps[0].ID()}, []ids.ID{eps[1].ID()})
	})
	sim.RunUntilIdle()
	if len(recs[1].got) != 1 {
		t.Fatalf("arrived message not handled: %d delivered", len(recs[1].got))
	}
}

// Partitioning a node from itself is a no-op: loopback always works.
func TestSelfPartitionNoOp(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	net.Partition([]ids.ID{eps[0].ID()}, []ids.ID{eps[0].ID()})
	sim.Schedule(0, func() {
		eps[0].Send(eps[0].ID(), wire.P1a{Ballot: 1})
	})
	sim.RunUntilIdle()
	if len(recs[0].got) != 1 {
		t.Fatalf("self-partition cut loopback: %d delivered", len(recs[0].got))
	}
	if net.MessagesDropped() != 0 {
		t.Errorf("MessagesDropped = %d, want 0", net.MessagesDropped())
	}
}

// A node on both sides of a partition keeps its loopback but loses its links
// to everyone else on the far side.
func TestOverlappingPartitionSidesKeepLoopback(t *testing.T) {
	sim, net, recs, eps := setup(3, Options{})
	// Node 0 appears on both sides: cut {0,1} from {0,2}.
	net.Partition([]ids.ID{eps[0].ID(), eps[1].ID()}, []ids.ID{eps[0].ID(), eps[2].ID()})
	sim.Schedule(0, func() {
		eps[0].Send(eps[0].ID(), wire.P1a{Ballot: 1}) // loopback: delivered
		eps[0].Send(eps[2].ID(), wire.P1a{Ballot: 2}) // cut: dropped
		eps[1].Send(eps[2].ID(), wire.P1a{Ballot: 3}) // cut: dropped
	})
	sim.RunUntilIdle()
	if len(recs[0].got) != 1 {
		t.Errorf("loopback delivered %d, want 1", len(recs[0].got))
	}
	if len(recs[2].got) != 0 {
		t.Errorf("cut links delivered %d, want 0", len(recs[2].got))
	}
	if net.MessagesDropped() != 2 {
		t.Errorf("MessagesDropped = %d, want 2", net.MessagesDropped())
	}
}

// MessagesDropped accounts every loss class exactly once per message:
// sender-side cuts, receiver crashes, and unknown destinations.
func TestDroppedAccountingAcrossFaultClasses(t *testing.T) {
	sim, net, recs, eps := setup(3, Options{})
	net.Partition([]ids.ID{eps[0].ID()}, []ids.ID{eps[1].ID()})
	net.Crash(eps[2].ID())
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1})     // cut at send: dropped
		eps[0].Send(eps[2].ID(), wire.P1a{Ballot: 2})     // crashed receiver: dropped at arrival
		eps[0].Send(ids.NewID(7, 7), wire.P1a{Ballot: 3}) // unknown: dropped
	})
	sim.RunUntilIdle()
	if got := net.MessagesDropped(); got != 3 {
		t.Errorf("MessagesDropped = %d, want 3", got)
	}
	if got := net.MessagesSent(); got != 3 {
		t.Errorf("MessagesSent = %d, want 3", got)
	}
	if len(recs[1].got)+len(recs[2].got) != 0 {
		t.Error("faulted destinations received messages")
	}
}

// HealPartition restores delivery after in-flight drops.
func TestHealRestoresAfterInFlightDrop(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	sim.Schedule(0, func() { eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1}) })
	sim.Schedule(50*time.Microsecond, func() {
		net.Partition([]ids.ID{eps[0].ID()}, []ids.ID{eps[1].ID()})
	})
	sim.Schedule(time.Millisecond, func() { net.HealPartition() })
	sim.Schedule(2*time.Millisecond, func() { eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 2}) })
	sim.RunUntilIdle()
	if len(recs[1].got) != 1 {
		t.Fatalf("delivered %d messages after heal, want 1", len(recs[1].got))
	}
	if b := recs[1].got[0].m.(wire.P1a).Ballot; b != 2 {
		t.Errorf("wrong message survived: ballot %v", b)
	}
}

// Link loss drops roughly the configured fraction, counted as dropped.
func TestLinkFaultLoss(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	net.SetLinkFaults(eps[0].ID(), eps[1].ID(), LinkFaults{Loss: 0.5})
	const n = 2000
	sim.Schedule(0, func() {
		for i := 0; i < n; i++ {
			eps[0].Send(eps[1].ID(), wire.P1a{Ballot: ids.Ballot(i)})
		}
	})
	sim.RunUntilIdle()
	got := len(recs[1].got)
	if got < n*35/100 || got > n*65/100 {
		t.Errorf("50%% loss delivered %d of %d", got, n)
	}
	if net.MessagesDropped() != uint64(n-got) {
		t.Errorf("dropped %d, want %d", net.MessagesDropped(), n-got)
	}
}

// Duplication delivers extra copies: MessagesDelivered can exceed
// MessagesSent while MessagesDropped stays zero.
func TestLinkFaultDuplicate(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	net.SetLinkFaults(eps[0].ID(), eps[1].ID(), LinkFaults{Duplicate: 1.0})
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1})
	})
	sim.RunUntilIdle()
	if len(recs[1].got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(recs[1].got))
	}
	if net.MessagesSent() != 1 || net.MessagesDelivered() != 2 {
		t.Errorf("sent=%d delivered=%d, want 1/2", net.MessagesSent(), net.MessagesDelivered())
	}
}

// Reordering lets a later send overtake an earlier one.
func TestLinkFaultReorder(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	net.SetLinkFaults(eps[0].ID(), eps[1].ID(), LinkFaults{
		Reorder:       1.0,
		ReorderWindow: 5 * time.Millisecond,
	})
	const n = 50
	sim.Schedule(0, func() {
		for i := 0; i < n; i++ {
			eps[0].Send(eps[1].ID(), wire.P1a{Ballot: ids.Ballot(i + 1)})
		}
	})
	sim.RunUntilIdle()
	if len(recs[1].got) != n {
		t.Fatalf("delivered %d of %d", len(recs[1].got), n)
	}
	inverted := false
	for i := 1; i < len(recs[1].got); i++ {
		if recs[1].got[i].m.(wire.P1a).Ballot < recs[1].got[i-1].m.(wire.P1a).Ballot {
			inverted = true
			break
		}
	}
	if !inverted {
		t.Error("full-probability reorder over 50 sends produced FIFO delivery")
	}
}

// Equal seeds give bit-identical fault patterns; and configuring faults does
// not perturb the RNG draws of fault-free links.
func TestLinkFaultsDeterministic(t *testing.T) {
	run := func() (uint64, uint64, int) {
		sim := des.New(99)
		net := New(sim, config.NewLAN(3), Options{})
		recs := make([]*recorder, 3)
		eps := make([]*Endpoint, 3)
		for i := 0; i < 3; i++ {
			recs[i] = &recorder{}
			eps[i] = net.Register(ids.NewID(1, i+1), recs[i], false)
			recs[i].e = eps[i]
		}
		net.SetLinkFaults(eps[0].ID(), eps[1].ID(), LinkFaults{Loss: 0.3, Duplicate: 0.2, Reorder: 0.5})
		sim.Schedule(0, func() {
			for i := 0; i < 500; i++ {
				eps[0].Send(eps[1].ID(), wire.P1a{Ballot: ids.Ballot(i + 1)})
				eps[0].Send(eps[2].ID(), wire.P1a{Ballot: ids.Ballot(i + 1)})
			}
		})
		sim.RunUntilIdle()
		return net.MessagesDelivered(), net.MessagesDropped(), len(recs[1].got)
	}
	d1, x1, n1 := run()
	d2, x2, n2 := run()
	if d1 != d2 || x1 != x2 || n1 != n2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", d1, x1, n1, d2, x2, n2)
	}
}

// SetAllLinkFaults covers every pair but spares loopback; ClearLinkFaults
// restores a clean network.
func TestAllLinkFaultsAndClear(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	net.SetAllLinkFaults(LinkFaults{Loss: 1.0})
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1}) // lost
		eps[0].Send(eps[0].ID(), wire.P1a{Ballot: 2}) // loopback spared
	})
	sim.Schedule(time.Millisecond, func() { net.ClearLinkFaults() })
	sim.Schedule(2*time.Millisecond, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 3}) // delivered
	})
	sim.RunUntilIdle()
	if len(recs[0].got) != 1 {
		t.Errorf("loopback delivered %d, want 1", len(recs[0].got))
	}
	if len(recs[1].got) != 1 || recs[1].got[0].m.(wire.P1a).Ballot != 3 {
		t.Errorf("after clear delivered %v", recs[1].got)
	}
	if f, ok := net.LinkFaultsBetween(eps[0].ID(), eps[1].ID()); ok {
		t.Errorf("faults survive clear: %+v", f)
	}
}
