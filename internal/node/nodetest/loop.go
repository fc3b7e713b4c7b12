package nodetest

import (
	"sort"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// Event is one thing a replica under test did to the world: a message it
// sent (Msg and To set) or a call it made into its Disk (Rec set for an
// append).
type Event struct {
	Kind string // "send", "append", "start-flush", "finish-flush"
	To   ids.ID
	Msg  wire.Msg
	Rec  wal.Record
}

// Loop is a Null that keeps what it is told, in order: sends are recorded,
// callbacks due at once queue until Run, timers fire when Advance moves the
// clock past them. With a Disk attached, journal calls land in the same
// record, so a test can assert what left before or after which flush.
type Loop struct {
	*Null
	Events []Event
	queue  []func()
	timers []*loopTimer // in arming order
}

// NewLoop returns a Loop for node self.
func NewLoop(self ids.ID) *Loop { return &Loop{Null: New(self)} }

type loopTimer struct {
	at      time.Duration
	fn      func()
	stopped bool
}

func (t *loopTimer) Stop() bool {
	was := t.stopped
	t.stopped = true
	return !was
}

// Send implements node.Context.
func (l *Loop) Send(to ids.ID, m wire.Msg) {
	l.Events = append(l.Events, Event{Kind: "send", To: to, Msg: m})
}

// Broadcast implements node.Context.
func (l *Loop) Broadcast(to []ids.ID, m wire.Msg) {
	for _, id := range to {
		l.Send(id, m)
	}
}

// After implements node.Context.
func (l *Loop) After(d time.Duration, fn func()) node.Timer {
	t := &loopTimer{at: l.Clock + d, fn: fn}
	if d <= 0 {
		l.queue = append(l.queue, func() {
			if t.Stop() {
				fn()
			}
		})
		return t
	}
	l.timers = append(l.timers, t)
	return t
}

// Run runs the callbacks due at once, and those they queue, until none is
// left.
func (l *Loop) Run() {
	for len(l.queue) > 0 {
		fn := l.queue[0]
		l.queue = l.queue[1:]
		fn()
	}
}

// Advance moves the clock d ahead, firing the timers that come due in
// deadline order (arming order among equals), then runs what they queued.
func (l *Loop) Advance(d time.Duration) {
	end := l.Clock + d
	for {
		sort.SliceStable(l.timers, func(i, j int) bool { return l.timers[i].at < l.timers[j].at })
		if len(l.timers) == 0 || l.timers[0].at > end {
			break
		}
		t := l.timers[0]
		l.timers = l.timers[1:]
		l.Clock = t.at
		if t.Stop() {
			t.fn()
		}
		l.Run()
	}
	l.Clock = end
	l.Run()
}

// DropTimers forgets every armed timer, as the simulator does with the
// timers that come due while their node is crashed.
func (l *Loop) DropTimers() { l.timers = nil }

// SentOf returns the messages of type T sent so far, in order.
func SentOf[T wire.Msg](l *Loop) []T {
	var out []T
	for _, e := range l.Events {
		if m, ok := e.Msg.(T); ok {
			out = append(out, m)
		}
	}
	return out
}

// Disk is a wal.Storage for tests on a Loop: a MemStorage whose calls are
// recorded among the Loop's events. Held, it behaves like a storage that
// flushes on its own goroutine: a flush StartFlush began is over only when
// the test calls Complete. Otherwise it is the MemStorage it wraps: the
// replica ends the flush SyncCost later.
type Disk struct {
	*wal.MemStorage
	Held bool
	Fail error // what FinishFlush reports
	l    *Loop
	wake func()
}

// NewDisk attaches a fresh Disk to l.
func (l *Loop) NewDisk() *Disk { return &Disk{MemStorage: wal.NewMem(), l: l} }

// Append implements wal.Storage.
func (d *Disk) Append(rec wal.Record) error {
	d.l.Events = append(d.l.Events, Event{Kind: "append", Rec: rec})
	return d.MemStorage.Append(rec)
}

// StartFlush implements wal.Storage.
func (d *Disk) StartFlush(wake func()) (started, async bool) {
	started, _ = d.MemStorage.StartFlush(wake)
	if started {
		d.l.Events = append(d.l.Events, Event{Kind: "start-flush"})
		if d.Held {
			d.wake = wake
		}
	}
	return started, d.Held
}

// FinishFlush implements wal.Storage.
func (d *Disk) FinishFlush() error {
	d.l.Events = append(d.l.Events, Event{Kind: "finish-flush"})
	if d.Fail != nil {
		return d.Fail
	}
	return d.MemStorage.FinishFlush()
}

// Flying reports whether a held flush is waiting for Complete.
func (d *Disk) Flying() bool { return d.wake != nil }

// Complete ends the held flush in flight the way a storage's own goroutine
// would — by calling wake — and runs what that posted to the loop.
func (d *Disk) Complete() {
	wake := d.wake
	d.wake = nil
	wake()
	d.l.Run()
}
