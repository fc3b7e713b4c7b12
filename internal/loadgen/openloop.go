package loadgen

import (
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

// Counts are an open-loop run's counters. Each counts only operations whose
// scheduled arrival fell inside the measurement window.
type Counts struct {
	Offered uint64
	// Completed counts acknowledgements, whenever they came: an in-window
	// arrival acknowledged after the window counts.
	Completed uint64
	// Shed counts arrivals dropped client-side because the session was
	// full: past its Window, or past the smaller window a Busy left it.
	Shed uint64
	// Busy counts wire.Busy rejections the operations met. Each is retried
	// after the leader's hint, so Busy is backpressure volume, not loss.
	Busy uint64
	// Timeouts counts operations the session abandoned after its Timeout.
	Timeouts uint64
}

// Tally is what the open-loop clients of one run count into: the
// measurement window [Start, End) on their clock, the counters, and the
// latencies of the acknowledged operations, taken from the scheduled
// arrival so queueing delay is part of them. It belongs to the clients'
// event loop until the run is over.
type Tally struct {
	Counts
	Start, End time.Duration
	// MaxGap is the longest interval between consecutive in-window
	// completions: the availability hole a mid-run fault opens.
	MaxGap time.Duration

	hist    *metrics.Histogram
	lastAck time.Duration // the in-window completion before this one
	pending int           // operations issued and not yet ended
	ended   func()        // optional: runs after each operation's end
}

// NewTally returns an empty tally for the window [start, end).
func NewTally(start, end time.Duration) *Tally {
	return &Tally{Start: start, End: end, hist: metrics.NewHistogram()}
}

func (t *Tally) inWindow(at time.Duration) bool { return at >= t.Start && at < t.End }

// Latency digests the acknowledged operations' latencies.
func (t *Tally) Latency() metrics.Summary { return t.hist.Snapshot() }

// Rates returns the completions and the arrivals per second of window.
func (t *Tally) Rates() (goodput, offered float64) {
	sec := (t.End - t.Start).Seconds()
	return float64(t.Completed) / sec, float64(t.Offered) / sec
}

// end counts how one operation ended, at now: acknowledged, or abandoned.
func (t *Tally) end(op client.Op, acked bool, now time.Duration) {
	t.pending--
	if t.inWindow(op.At) {
		t.Busy += uint64(op.Busy)
		if !acked {
			t.Timeouts++
		} else {
			if t.Completed > 0 {
				t.MaxGap = max(t.MaxGap, now-t.lastAck)
			}
			t.lastAck = now
			t.Completed++
			t.hist.Observe(now - op.At)
		}
	}
	if t.ended != nil {
		t.ended()
	}
}

// OpenLoop is one open-loop client: a Poisson arrival clock over a session
// the caller has configured (context, identity, targets, Window, Timeout,
// Retry), counting into a tally shared with the run's other clients.
// Arrivals launch on schedule whether or not earlier operations have
// completed (no coordinated omission); one that finds the session full is
// shed. Arrivals stop at the tally's window end.
//
// A timer firing issues the arrival it was armed for and then only the
// arrivals that are strictly overdue, and arms a timer for the next one even
// when the gap to it is zero: on the simulator that keeps every arrival an
// event of its own, in the order the clock gives it, and on a real clock it
// catches up on arrivals a late timer missed.
type OpenLoop struct {
	s        *client.Session
	gen      *workload.Generator
	arrivals *workload.Arrivals
	t        *Tally
	next     time.Duration // the instant of the next arrival
	tick     func()
}

// NewOpenLoop returns a client whose first arrival is at first, on s's
// clock. It takes over s.Done and s.Abandoned.
func NewOpenLoop(s *client.Session, gen *workload.Generator, arrivals *workload.Arrivals, t *Tally, first time.Duration) *OpenLoop {
	o := &OpenLoop{s: s, gen: gen, arrivals: arrivals, t: t, next: first}
	o.tick = o.arrive
	s.Done = func(op client.Op, _ wire.Reply) { t.end(op, true, s.Ctx.Now()) }
	s.Abandoned = func(op client.Op) { t.end(op, false, s.Ctx.Now()) }
	return o
}

// Start arms the first arrival. It runs on the session's event loop, or
// before the simulator does.
func (o *OpenLoop) Start() { o.arm(o.s.Ctx.Now()) }

func (o *OpenLoop) arm(now time.Duration) {
	if o.next < o.t.End {
		o.s.Ctx.After(o.next-now, o.tick)
	}
}

// arrive issues the arrival the timer fired for and every later one already
// strictly overdue, then arms the next. An arrival is issued at its
// scheduled instant, which its latency is measured from.
func (o *OpenLoop) arrive() {
	now := o.s.Ctx.Now()
	for {
		at := o.next
		inWin := o.t.inWindow(at)
		if inWin {
			o.t.Offered++
		}
		if !o.s.Full() {
			o.s.Issue(o.gen.Next(0, 0), at)
			o.t.pending++
		} else if inWin {
			o.t.Shed++
		}
		o.next = at + o.arrivals.Next()
		if o.next >= now || o.next >= o.t.End {
			break
		}
	}
	o.arm(now)
}
