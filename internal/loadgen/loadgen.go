// Package loadgen is the open-loop load engine behind cmd/pigload. It
// drives a real TCP cluster with Poisson arrivals at a fixed aggregate
// rate: requests launch on their scheduled arrival instants whether or not
// earlier ones have completed, so queueing delay shows up in the measured
// latency instead of silently throttling the offered load (no coordinated
// omission). That is the arrival model under which the paper's §5.4
// saturation curves — throughput flattening while latency diverges — are
// defined.
//
// The engine is one dial-only transport.TCPNode — one event loop, one
// connection per member — carrying W workers. A worker is a Poisson clock
// at rate/W (superposition keeps the aggregate exact) over a client.Session
// of its own: the session follows leader redirects, backs off on Busy,
// leaves a member that has gone silent and retransmits stragglers, so a
// leader crash mid-run costs a bounded completion gap rather than the run.
// The node hides connection errors, so a dead leader is noticed after one
// retryInterval of silence, and the gap includes it. Past the in-flight cap
// — sessions.Window, what the leader's session table remembers, or the
// smaller window the leader's Busy leaves the session — a worker sheds new
// arrivals, the open loop's stand-in for an overloaded client machine, and
// the shed count is reported so saturation is visible in the output, not
// hidden.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/sessions"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

// retryInterval is each worker's straggler sweep period: ops unanswered
// that long are sent again, and a member that answered nothing for a whole
// interval is left for the next.
const retryInterval = 250 * time.Millisecond

// Options configures a load run.
type Options struct {
	// Addrs maps every member to its TCP address.
	Addrs map[ids.ID]string
	// Members lists the cluster, ascending; the first entry is the
	// presumed initial leader and every worker's first target.
	Members []ids.ID
	// Clients is the worker count (default 8).
	Clients int
	// Rate is the aggregate offered load in ops/sec (required).
	Rate float64
	// Warmup runs load without recording (default 1s).
	Warmup time.Duration
	// Duration is the measurement window (default 5s).
	Duration time.Duration
	// Workload shapes keys, read ratio, and payloads.
	Workload workload.Config
	// Timeout abandons an op this long after its scheduled arrival
	// (default 2s). Abandoned ops count as timeouts: a leader that never
	// commits them, or — a worker's window being sessions.Window — an op
	// that fell Window behind its worker's newest executed one, which the
	// leader drops as stale.
	Timeout time.Duration
	// Seed makes arrival times and key draws reproducible.
	Seed int64
	// ClientIDBase offsets worker client IDs (worker i uses base+1+i) so
	// repeated runs against one cluster get fresh sessions.
	ClientIDBase uint64
}

func (o *Options) defaults() error {
	if o.Rate <= 0 {
		return fmt.Errorf("loadgen: non-positive rate %v", o.Rate)
	}
	if len(o.Members) == 0 || len(o.Addrs) == 0 {
		return fmt.Errorf("loadgen: empty cluster")
	}
	if o.Clients == 0 {
		o.Clients = 8
	}
	if o.Clients < 0 {
		return fmt.Errorf("loadgen: negative client count")
	}
	if o.Warmup == 0 {
		o.Warmup = time.Second
	}
	if o.Duration == 0 {
		o.Duration = 5 * time.Second
	}
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Second
	}
	if err := o.Workload.Validate(); err != nil {
		return err
	}
	return nil
}

// Result aggregates a run. Offered/Completed/Shed/Timeouts count only ops
// whose scheduled arrival fell inside the measurement window; goodput is
// completions inside the window per second of window.
type Result struct {
	Offered   uint64
	Completed uint64
	Shed      uint64
	Timeouts  uint64
	Redirects uint64
	Resends   uint64
	// Busy counts leader admission rejections (wire.Busy) met by in-window
	// ops — distinct from client-side sheds and timeouts, since a Busy op
	// is retried after the leader's hint and usually completes.
	Busy uint64
	// Latency digests scheduled-arrival→completion times (queueing
	// included — the open-loop latency).
	Latency metrics.Summary
	// Goodput is committed ops/sec over the measurement window.
	Goodput float64
	// OfferedRate is the realized arrival rate over the window.
	OfferedRate float64
	// MaxGap is the longest interval between consecutive completions
	// inside the window — the availability hole a mid-run fault opens.
	MaxGap time.Duration
	// Elapsed is the measurement window length.
	Elapsed time.Duration
}

// String renders the one-line human summary pigload prints to stderr.
func (r *Result) String() string {
	return fmt.Sprintf(
		"offered %.0f/s goodput %.0f/s (completed %d shed %d busy %d timeout %d redirect %d resend %d) lat %v maxgap %v",
		r.OfferedRate, r.Goodput, r.Completed, r.Shed, r.Busy, r.Timeouts,
		r.Redirects, r.Resends, r.Latency, r.MaxGap)
}

// Run drives the cluster and blocks until the measurement window is over
// and nothing is pending, or a drain grace (one Timeout) past the window.
func Run(opts Options) (*Result, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	e := &engine{
		opts:    &opts,
		workers: make([]*worker, opts.Clients),
		hist:    metrics.NewHistogram(),
		done:    make(chan struct{}),
	}
	e.node = transport.DialTCP(ids.NewID(998, int(opts.ClientIDBase%0xffff)+1), opts.Addrs, e)
	// An epoch slightly ahead aligns every worker's Poisson clock and the
	// measurement window; all times are on the node's clock.
	start := e.node.Now() + 20*time.Millisecond
	e.measStart = start + opts.Warmup
	e.measEnd = e.measStart + opts.Duration
	perRate := opts.Rate / float64(opts.Clients)
	for i := range e.workers {
		rng := rand.New(rand.NewSource(opts.Seed + int64(i)*7919))
		w := &worker{gen: workload.New(opts.Workload, rng), arrivals: workload.NewArrivals(perRate, rng)}
		w.next = start + w.arrivals.Next()
		w.tick = func() { e.arrive(w) }
		w.s = client.Session{
			Ctx:       e.node,
			ClientID:  opts.ClientIDBase + 1 + uint64(i),
			Targets:   opts.Members,
			Target:    opts.Members[0],
			Window:    sessions.Window,
			Timeout:   opts.Timeout,
			Retry:     retryInterval,
			Done:      func(op client.Op, _ wire.Reply) { e.ended(op, true) },
			Abandoned: func(op client.Op) { e.ended(op, false) },
		}
		e.workers[i] = w
	}
	e.node.After(0, func() {
		for _, w := range e.workers {
			w.tick()
		}
		now := e.node.Now()
		e.node.After(e.measEnd-now, func() {
			if e.pending == 0 {
				e.finish()
			}
		})
		e.node.After(e.measEnd+opts.Timeout-now, e.finish)
	})
	<-e.done
	e.node.Close() // the loop has stopped: its state is ours to read

	res := &e.res
	for _, w := range e.workers {
		res.Redirects += w.s.Redirects
		res.Resends += w.s.Resends
	}
	res.Latency = e.hist.Snapshot()
	res.Elapsed = opts.Duration
	res.Goodput = float64(res.Completed) / opts.Duration.Seconds()
	res.OfferedRate = float64(res.Offered) / opts.Duration.Seconds()
	return res, nil
}

// worker is one open-loop arrival process over a session of its own.
type worker struct {
	s        client.Session
	gen      *workload.Generator
	arrivals *workload.Arrivals
	next     time.Duration // when the next arrival is scheduled
	tick     func()
}

// engine is the load generator's node: every field below is its event
// loop's until Run has closed the node.
type engine struct {
	opts    *Options
	node    *transport.TCPNode
	workers []*worker

	measStart, measEnd time.Duration
	hist               *metrics.Histogram
	res                Result
	lastAck            time.Duration // the in-window completion before this one
	pending            int
	done               chan struct{} // closed once, by finish
	over               bool
}

// OnMessage implements node.Handler: a reply goes to the session its client
// ID names.
func (e *engine) OnMessage(from ids.ID, m wire.Msg) {
	if i := client.Addressee(m) - e.opts.ClientIDBase - 1; i < uint64(len(e.workers)) {
		e.workers[i].s.OnMessage(from, m)
	}
}

func (e *engine) inWindow(at time.Duration) bool { return at >= e.measStart && at < e.measEnd }

// arrive fires every arrival of w that has come due and arms the next. An
// arrival past the in-flight cap is shed. Latency is measured from the
// scheduled instant, not from the send, so a backed-up generator reports
// the queueing it caused.
func (e *engine) arrive(w *worker) {
	now := e.node.Now()
	for ; w.next <= now && w.next < e.measEnd; w.next += w.arrivals.Next() {
		inWin := e.inWindow(w.next)
		if inWin {
			e.res.Offered++
		}
		if !w.s.Full() {
			w.s.Issue(w.gen.Next(0, 0), w.next)
			e.pending++
		} else if inWin {
			e.res.Shed++
		}
	}
	if w.next < e.measEnd {
		e.node.After(w.next-now, w.tick)
	}
}

// ended records how one op ended: acknowledged, or abandoned.
func (e *engine) ended(op client.Op, acked bool) {
	e.pending--
	now := e.node.Now()
	if e.inWindow(op.At) {
		e.res.Busy += uint64(op.Busy)
		if !acked {
			e.res.Timeouts++
		} else {
			if e.res.Completed > 0 {
				e.res.MaxGap = max(e.res.MaxGap, now-e.lastAck)
			}
			e.lastAck = now
			e.res.Completed++
			e.hist.Observe(now - op.At)
		}
	}
	if e.pending == 0 && now >= e.measEnd {
		e.finish()
	}
}

func (e *engine) finish() {
	if !e.over {
		e.over = true
		close(e.done)
	}
}
