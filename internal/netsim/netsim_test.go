package netsim

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/wire"
)

type recorder struct {
	got []struct {
		from ids.ID
		m    wire.Msg
		at   time.Duration
	}
	e *Endpoint
}

func (r *recorder) OnMessage(from ids.ID, m wire.Msg) {
	r.got = append(r.got, struct {
		from ids.ID
		m    wire.Msg
		at   time.Duration
	}{from, m, r.e.Now()})
}

func setup(n int, opts Options) (*des.Sim, *Network, []*recorder, []*Endpoint) {
	sim := des.New(1)
	net := New(sim, config.NewLAN(n), opts)
	recs := make([]*recorder, n)
	eps := make([]*Endpoint, n)
	for i := 0; i < n; i++ {
		recs[i] = &recorder{}
		eps[i] = net.Register(ids.NewID(1, i+1), recs[i], false)
		recs[i].e = eps[i]
	}
	return sim, net, recs, eps
}

func TestDeliveryWithLatencyAndCost(t *testing.T) {
	opts := Options{SendCost: 10 * time.Microsecond, RecvCost: 10 * time.Microsecond}
	sim, _, recs, eps := setup(2, opts)
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1})
	})
	sim.RunUntilIdle()
	if len(recs[1].got) != 1 {
		t.Fatalf("delivered %d messages", len(recs[1].got))
	}
	// send cost 10µs + LAN 125µs + recv cost 10µs = 145µs.
	want := 145 * time.Microsecond
	if recs[1].got[0].at != want {
		t.Errorf("delivered at %v, want %v", recs[1].got[0].at, want)
	}
	if recs[1].got[0].from != eps[0].ID() {
		t.Errorf("from = %v", recs[1].got[0].from)
	}
}

func TestByteCostCharged(t *testing.T) {
	opts := Options{ByteCostPerKB: 1024 * time.Microsecond} // 1µs per byte, zero fixed
	sim, _, recs, eps := setup(2, opts)
	m := wire.Request{}
	size := time.Duration(m.Size()) * time.Microsecond
	sim.Schedule(0, func() { eps[0].Send(eps[1].ID(), m) })
	sim.RunUntilIdle()
	want := 2*size + 125*time.Microsecond
	if recs[1].got[0].at != want {
		t.Errorf("delivered at %v, want %v (size=%d)", recs[1].got[0].at, want, m.Size())
	}
}

func TestCPUSerialization(t *testing.T) {
	// Two messages sent at the same instant: the second waits for the
	// sender's CPU, then both queue on the receiver's CPU.
	opts := Options{SendCost: 100 * time.Microsecond, RecvCost: 100 * time.Microsecond}
	sim, _, recs, eps := setup(2, opts)
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1})
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 2})
	})
	sim.RunUntilIdle()
	if len(recs[1].got) != 2 {
		t.Fatalf("delivered %d", len(recs[1].got))
	}
	// First: send done 100, arrive 225, handled 325.
	// Second: send done 200, arrive 325, receiver busy till 325 → handled 425.
	if recs[1].got[0].at != 325*time.Microsecond {
		t.Errorf("first at %v", recs[1].got[0].at)
	}
	if recs[1].got[1].at != 425*time.Microsecond {
		t.Errorf("second at %v (CPU must serialize)", recs[1].got[1].at)
	}
}

func TestLoopbackSend(t *testing.T) {
	sim, _, recs, eps := setup(2, Options{})
	sim.Schedule(0, func() { eps[0].Send(eps[0].ID(), wire.P1a{Ballot: 1}) })
	sim.RunUntilIdle()
	if len(recs[0].got) != 1 {
		t.Fatal("self-send must deliver")
	}
	if recs[0].got[0].at != 0 {
		t.Errorf("loopback with zero costs should be instant, at %v", recs[0].got[0].at)
	}
}

func TestCrashDropsBothDirections(t *testing.T) {
	sim, net, recs, eps := setup(3, Options{})
	net.Crash(eps[1].ID())
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1}) // into crashed
		eps[1].Send(eps[2].ID(), wire.P1a{Ballot: 2}) // out of crashed
	})
	sim.RunUntilIdle()
	if len(recs[1].got) != 0 || len(recs[2].got) != 0 {
		t.Error("crashed node must neither receive nor send")
	}
	if net.MessagesDropped() != 2 {
		t.Errorf("dropped = %d, want 2", net.MessagesDropped())
	}
	if !net.Crashed(eps[1].ID()) {
		t.Error("Crashed() should report true")
	}
}

func TestCrashDropsInFlight(t *testing.T) {
	opts := Options{}
	sim, net, recs, eps := setup(2, opts)
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1})
	})
	// Crash the destination while the message is in flight (LAN = 125µs).
	sim.Schedule(50*time.Microsecond, func() { net.Crash(eps[1].ID()) })
	sim.RunUntilIdle()
	if len(recs[1].got) != 0 {
		t.Error("message in flight to a crashed node must be dropped")
	}
}

func TestRecoverRestoresDelivery(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	net.Crash(eps[1].ID())
	net.Recover(eps[1].ID())
	sim.Schedule(0, func() { eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1}) })
	sim.RunUntilIdle()
	if len(recs[1].got) != 1 {
		t.Error("recovered node must receive again")
	}
}

func TestCrashedTimerSkipped(t *testing.T) {
	sim, net, _, eps := setup(2, Options{})
	fired := false
	eps[1].After(time.Millisecond, func() { fired = true })
	net.Crash(eps[1].ID())
	sim.RunUntilIdle()
	if fired {
		t.Error("timer on crashed node must not fire")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	sim, net, recs, eps := setup(2, Options{})
	net.Partition([]ids.ID{eps[0].ID()}, []ids.ID{eps[1].ID()})
	sim.Schedule(0, func() { eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1}) })
	sim.RunUntilIdle()
	if len(recs[1].got) != 0 {
		t.Error("partitioned message must drop")
	}
	net.HealPartition()
	sim.Schedule(0, func() { eps[1].Send(eps[0].ID(), wire.P1a{Ballot: 2}) })
	sim.RunUntilIdle()
	if len(recs[0].got) != 1 {
		t.Error("healed partition must deliver")
	}
}

func TestSluggishNode(t *testing.T) {
	opts := Options{RecvCost: 100 * time.Microsecond}
	sim, net, recs, eps := setup(2, opts)
	net.SetSluggish(eps[1].ID(), 10)
	sim.Schedule(0, func() { eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1}) })
	sim.RunUntilIdle()
	// arrive at 125µs, recv cost 100µs×10 = 1ms → handled at 1.125ms.
	want := 1125 * time.Microsecond
	if recs[1].got[0].at != want {
		t.Errorf("sluggish delivery at %v, want %v", recs[1].got[0].at, want)
	}
}

func TestFreeEndpointUnmetered(t *testing.T) {
	sim := des.New(1)
	net := New(sim, config.NewLAN(2), Options{SendCost: time.Second})
	rec := &recorder{}
	client := net.Register(ids.NewID(999, 1), rec, true)
	rec.e = client
	srv := &recorder{}
	se := net.Register(ids.NewID(1, 1), srv, false)
	srv.e = se
	sim.Schedule(0, func() { client.Send(se.ID(), wire.P1a{Ballot: 1}) })
	sim.RunUntilIdle()
	// Client pays no send cost; server pays none either (RecvCost unset);
	// only link latency remains (default LAN 125µs).
	if srv.got[0].at != 125*time.Microsecond {
		t.Errorf("free client delivery at %v", srv.got[0].at)
	}
}

func TestWorkChargesCPU(t *testing.T) {
	sim, _, recs, eps := setup(2, Options{})
	sim.Schedule(0, func() {
		eps[0].Work(time.Millisecond)
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1})
	})
	sim.RunUntilIdle()
	want := time.Millisecond + 125*time.Microsecond
	if recs[1].got[0].at != want {
		t.Errorf("Work must delay subsequent sends: at %v, want %v", recs[1].got[0].at, want)
	}
}

func TestSendToUnknownDropped(t *testing.T) {
	sim, net, _, eps := setup(2, Options{})
	sim.Schedule(0, func() { eps[0].Send(ids.NewID(9, 9), wire.P1a{Ballot: 1}) })
	sim.RunUntilIdle()
	if net.MessagesDropped() != 1 {
		t.Error("send to unregistered node must count as dropped")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	sim := des.New(1)
	net := New(sim, config.NewLAN(2), Options{})
	net.Register(ids.NewID(1, 1), &recorder{}, false)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register should panic")
		}
	}()
	net.Register(ids.NewID(1, 1), &recorder{}, false)
}

func TestCounters(t *testing.T) {
	sim, net, _, eps := setup(2, Options{})
	sim.Schedule(0, func() {
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 1})
		eps[0].Send(eps[1].ID(), wire.P1a{Ballot: 2})
	})
	sim.RunUntilIdle()
	if net.MessagesSent() != 2 || net.MessagesDelivered() != 2 {
		t.Errorf("sent=%d delivered=%d", net.MessagesSent(), net.MessagesDelivered())
	}
	if eps[0].Sent() != 2 || eps[1].Received() != 2 {
		t.Errorf("endpoint counters sent=%d recv=%d", eps[0].Sent(), eps[1].Received())
	}
}

func TestWANLatencyUsed(t *testing.T) {
	sim := des.New(1)
	cfg := config.NewWAN3(3)
	net := New(sim, cfg, Options{})
	var at time.Duration
	va := net.Register(ids.NewID(config.ZoneVirginia, 1), HandlerFunc(func(ids.ID, wire.Msg) {}), false)
	_ = va
	ca := net.Register(ids.NewID(config.ZoneCalifornia, 1), HandlerFunc(func(from ids.ID, m wire.Msg) {
		at = sim.Now()
	}), false)
	_ = ca
	sim.Schedule(0, func() { va.Send(ca.ID(), wire.P1a{Ballot: 1}) })
	sim.RunUntilIdle()
	if at != 31*time.Millisecond {
		t.Errorf("VA→CA delivery at %v, want 31ms", at)
	}
}

// The leader-bottleneck shape in miniature: a hub exchanging messages with
// 24 spokes saturates ~8x earlier than a hub that talks to 3 relays.
func TestLeaderBottleneckShape(t *testing.T) {
	opts := DefaultOptions()
	run := func(fanout int) time.Duration {
		sim := des.New(1)
		net := New(sim, config.NewLAN(26), opts)
		hub := net.Register(ids.NewID(1, 1), HandlerFunc(func(ids.ID, wire.Msg) {}), false)
		for i := 2; i <= 26; i++ {
			net.Register(ids.NewID(1, i), HandlerFunc(func(ids.ID, wire.Msg) {}), false)
		}
		sim.Schedule(0, func() {
			for round := 0; round < 100; round++ {
				for j := 0; j < fanout; j++ {
					hub.Send(ids.NewID(1, 2+j), wire.P1a{Ballot: 1})
				}
			}
		})
		sim.RunUntilIdle()
		return hub.BusyUntil()
	}
	wide := run(24)
	narrow := run(3)
	ratio := float64(wide) / float64(narrow)
	if ratio < 7 || ratio > 9 {
		t.Errorf("CPU ratio 24-fanout/3-fanout = %.2f, want ≈ 8", ratio)
	}
}
