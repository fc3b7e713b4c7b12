package loadgen_test

import (
	"math/rand"
	"testing"
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/loadgen"
	"pigpaxos/internal/node"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

// handClock is a nodetest.Loop whose timers the test fires by hand, so the
// engine's arming is visible and a timer can fire late, as a real one does.
type handClock struct {
	*nodetest.Loop
	armed []armedTimer
}

type armedTimer struct {
	at time.Duration
	fn func()
}

type noTimer struct{}

func (noTimer) Stop() bool { return false }

// After implements node.Context.
func (h *handClock) After(d time.Duration, fn func()) node.Timer {
	h.armed = append(h.armed, armedTimer{h.Clock + d, fn})
	return noTimer{}
}

// fire runs the oldest armed timer late past its deadline, and reports
// whether there was one.
func (h *handClock) fire(late time.Duration) bool {
	if len(h.armed) == 0 {
		return false
	}
	t := h.armed[0]
	h.armed = h.armed[1:]
	h.Clock = t.at + late
	t.fn()
	return true
}

// sent returns the requests the session has sent, in order.
func (h *handClock) sent() []wire.Request { return nodetest.SentOf[wire.Request](h.Loop) }

const (
	openLoopRate = 1000.0 // arrivals per second; gaps of about a millisecond
	openLoopSeed = 5
)

// gaps returns the first n inter-arrival gaps the engine's arrival clock
// will draw.
func gaps(rate float64, n int) []time.Duration {
	a := workload.NewArrivals(rate, rand.New(rand.NewSource(openLoopSeed)))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}

// openLoop builds one client on a handClock whose session has the given
// window and arms no timer of its own (no Timeout, no Retry), so every armed
// timer is an arrival. Its first arrival is at 0.
func openLoop(t *testing.T, rate float64, window int, tally *loadgen.Tally) (*handClock, *client.Session) {
	t.Helper()
	h := &handClock{Loop: nodetest.NewLoop(ids.NewID(998, 1))}
	s := &client.Session{Ctx: h, ClientID: 1, Targets: []ids.ID{member}, Target: member, Window: window}
	gen := workload.New(workload.Config{Keys: 8}, rand.New(rand.NewSource(1)))
	arrivals := workload.NewArrivals(rate, rand.New(rand.NewSource(openLoopSeed)))
	loadgen.NewOpenLoop(s, gen, arrivals, tally, 0).Start()
	return h, s
}

// ack answers the request with sequence number seq now.
func ack(s *client.Session, seq uint64) {
	s.OnMessage(member, wire.Reply{ClientID: s.ClientID, Seq: seq, OK: true, Leader: member})
}

// An arrival exactly at the window end is neither offered nor issued, and
// nothing is armed for it or after it.
func TestOpenLoopStopsAtWindowEnd(t *testing.T) {
	g := gaps(openLoopRate, 2)
	tally := loadgen.NewTally(0, g[0]+g[1]) // the third arrival lands on the end
	h, _ := openLoop(t, openLoopRate, 64, tally)
	for h.fire(0) {
	}
	if n := len(h.sent()); n != 2 {
		t.Fatalf("issued %d arrivals, want the 2 before the window end", n)
	}
	if tally.Offered != 2 {
		t.Errorf("offered %d, want 2", tally.Offered)
	}
	if at := h.armed; len(at) != 0 {
		t.Errorf("a timer is armed at %v, at or past the window end %v", at[0].at, tally.End)
	}

	// A first arrival on the end is not armed at all.
	empty := loadgen.NewTally(0, 0)
	h, _ = openLoop(t, openLoopRate, 64, empty)
	if len(h.armed) != 0 || empty.Offered != 0 {
		t.Errorf("armed %d timers, offered %d for a first arrival on the window end", len(h.armed), empty.Offered)
	}
}

// An in-window arrival acknowledged after the window counts as completed,
// with its latency taken from the scheduled arrival; a warm-up arrival
// acknowledged inside the window does not count.
func TestOpenLoopCountsByArrival(t *testing.T) {
	g := gaps(openLoopRate, 2)
	a1, a2 := g[0], g[0]+g[1]
	tally := loadgen.NewTally(a1, a2) // arrival 0 warms up, arrival 1 is measured
	h, s := openLoop(t, openLoopRate, 64, tally)
	for h.fire(0) {
	}
	if n := len(h.sent()); n != 2 {
		t.Fatalf("issued %d arrivals, want 2", n)
	}
	h.Clock = (a1 + a2) / 2
	ack(s, 1) // the warm-up arrival, acknowledged inside the window
	h.Clock = a2 + time.Second
	ack(s, 2) // the measured arrival, acknowledged after the window
	want := loadgen.Counts{Offered: 1, Completed: 1}
	if tally.Counts != want {
		t.Errorf("counts %+v, want %+v", tally.Counts, want)
	}
	if lat := tally.Latency(); lat.Count != 1 || lat.Max != h.Clock-a1 {
		t.Errorf("latency %+v, want one sample of %v", lat, h.Clock-a1)
	}
	if goodput, offered := tally.Rates(); goodput != offered || goodput <= 0 {
		t.Errorf("goodput %v offered %v, want equal and positive", goodput, offered)
	}
}

// A full session sheds; a shed counts only when its arrival falls in the
// window.
func TestOpenLoopShedsInWindowOnly(t *testing.T) {
	g := gaps(openLoopRate, 4)
	a2, a4 := g[0]+g[1], g[0]+g[1]+g[2]+g[3]
	tally := loadgen.NewTally(a2, a4) // arrivals 0 and 1 warm up, 2 and 3 are measured
	h, _ := openLoop(t, openLoopRate, 1, tally)
	for h.fire(0) {
	}
	if n := len(h.sent()); n != 1 {
		t.Fatalf("issued %d arrivals into a window of one, want 1", n)
	}
	want := loadgen.Counts{Offered: 2, Shed: 2}
	if tally.Counts != want {
		t.Errorf("counts %+v, want %+v: the warm-up shed must not count", tally.Counts, want)
	}
}

// A timer issues its own arrival and then only those strictly overdue: an
// arrival due at the very instant the timer fires — a zero gap — waits for a
// timer of its own, armed with a zero delay.
func TestOpenLoopZeroGapArmsATimer(t *testing.T) {
	// At 10^9 arrivals a second most gaps round down to 0 ns.
	const rate, end = 1e9, 20 * time.Nanosecond
	g := gaps(rate, 200)
	var at []time.Duration // the arrivals before the window end
	zeros := 0
	for i, a := 0, time.Duration(0); a < end; a, i = a+g[i], i+1 {
		at = append(at, a)
		if g[i] == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatalf("no zero gap among the arrivals at %v", at)
	}
	h, _ := openLoop(t, rate, 256, loadgen.NewTally(0, end))
	for fired := 0; len(h.armed) > 0; fired++ {
		if h.armed[0].at != at[fired] {
			t.Fatalf("timer %d armed for %v, want arrival %d at %v", fired, h.armed[0].at, fired, at[fired])
		}
		h.fire(0)
		if issued := len(h.sent()); issued != fired+1 {
			t.Fatalf("timer %d issued %d arrivals in all, want one per timer", fired, issued)
		}
	}
	if n := len(h.sent()); n != len(at) {
		t.Errorf("issued %d arrivals, want the %d before the window end", n, len(at))
	}

	// A timer that fires late catches up on the arrivals it missed, and
	// only on those: the next one still gets a timer.
	late := loadgen.NewTally(0, time.Hour)
	h, _ = openLoop(t, openLoopRate, 64, late)
	lg := gaps(openLoopRate, 4)
	h.fire(0)               // arrival 0, at 0
	h.fire(lg[1] + lg[2]/2) // arrival 1, fired after arrival 2 came due
	if n := len(h.sent()); n != 3 {
		t.Fatalf("a late timer issued %d arrivals in all, want 3", n)
	}
	if len(h.armed) != 1 || h.armed[0].at != lg[0]+lg[1]+lg[2] {
		t.Errorf("armed %v, want one timer for arrival 3 at %v", h.armed, lg[0]+lg[1]+lg[2])
	}
}
