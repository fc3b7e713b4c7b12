// Package loadgen is the open-loop load engine behind cmd/pigload, and the
// open-loop client the simulator's overload rung runs too. It drives a
// cluster with Poisson arrivals at a fixed aggregate rate: requests launch
// on their scheduled arrival instants whether or not earlier ones have
// completed, so queueing delay shows up in the measured latency instead of
// silently throttling the offered load (no coordinated omission). That is
// the arrival model under which the paper's §5.4 saturation curves —
// throughput flattening while latency diverges — are defined.
//
// The client is OpenLoop: a Poisson clock over a client.Session, on any
// node.Context, counting into a Tally. Run carries W of them, each at
// rate/W (superposition keeps the aggregate exact), on one dial-only
// transport.TCPNode — one event loop, one connection per member. The
// session follows leader redirects, backs off on Busy, leaves a member that
// has gone silent and retransmits stragglers, so a leader crash mid-run
// costs a bounded completion gap rather than the run. The node hides
// connection errors, so a dead leader is noticed after one retryInterval of
// silence, and the gap includes it. Past the in-flight cap —
// sessions.Window, what the leader's session table remembers, or the
// smaller window the leader's Busy leaves the session — a client sheds new
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

// retryInterval is each session's straggler sweep period: ops unanswered
// that long are sent again, and a member that answered nothing for a whole
// interval is left for the next.
const retryInterval = 250 * time.Millisecond

// Options configures a load run. Every field but Seed and ClientIDBase
// must be set: Run uses the values it is given.
type Options struct {
	// Addrs maps every member to its TCP address.
	Addrs map[ids.ID]string
	// Members lists the cluster, ascending; the first entry is the
	// presumed initial leader and every client's first target.
	Members []ids.ID
	// Clients is the open-loop client count, at least 1.
	Clients int
	// Rate is the aggregate offered load in ops/sec.
	Rate float64
	// Warmup runs load without recording (0 measures from the start).
	Warmup time.Duration
	// Duration is the measurement window.
	Duration time.Duration
	// Workload shapes keys, read ratio, and payloads.
	Workload workload.Config
	// Timeout abandons an op this long after its scheduled arrival.
	// Abandoned ops count as timeouts: a leader that never commits them,
	// or — a client's window being sessions.Window — an op that fell
	// Window behind its client's newest executed one, which the leader
	// drops as stale.
	Timeout time.Duration
	// Seed makes arrival times and key draws reproducible.
	Seed int64
	// ClientIDBase offsets client IDs (client i uses base+1+i) so repeated
	// runs against one cluster get fresh sessions.
	ClientIDBase uint64
}

// Validate checks everything but the cluster, so a caller can reject a
// run before it has one.
func (o *Options) Validate() error {
	switch {
	case o.Rate <= 0:
		return fmt.Errorf("loadgen: non-positive rate %v", o.Rate)
	case o.Clients < 1:
		return fmt.Errorf("loadgen: client count %d, want at least 1", o.Clients)
	case o.Warmup < 0:
		return fmt.Errorf("loadgen: negative warmup %v", o.Warmup)
	case o.Duration <= 0:
		return fmt.Errorf("loadgen: non-positive duration %v", o.Duration)
	case o.Timeout <= 0:
		return fmt.Errorf("loadgen: non-positive timeout %v", o.Timeout)
	}
	return o.Workload.Validate()
}

// Result aggregates a run. The counters count only ops whose scheduled
// arrival fell inside the measurement window; goodput is their completions
// per second of window.
type Result struct {
	Counts
	Redirects uint64
	Resends   uint64
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
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Members) == 0 || len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: empty cluster")
	}
	e := &engine{
		base:     opts.ClientIDBase,
		sessions: make([]client.Session, opts.Clients),
		done:     make(chan struct{}),
	}
	e.node = transport.DialTCP(ids.NewID(998, int(opts.ClientIDBase%0xffff)+1), opts.Addrs, e)
	// An epoch slightly ahead aligns every client's Poisson clock and the
	// measurement window; all times are on the node's clock.
	start := e.node.Now() + 20*time.Millisecond
	t := NewTally(start+opts.Warmup, start+opts.Warmup+opts.Duration)
	t.ended = func() {
		if t.pending == 0 && e.node.Now() >= t.End {
			e.finish()
		}
	}
	perRate := opts.Rate / float64(opts.Clients)
	clients := make([]*OpenLoop, opts.Clients)
	for i := range clients {
		rng := rand.New(rand.NewSource(opts.Seed + int64(i)*7919))
		arrivals := workload.NewArrivals(perRate, rng)
		first := start + arrivals.Next()
		s := &e.sessions[i]
		*s = client.Session{
			Ctx:      e.node,
			ClientID: opts.ClientIDBase + 1 + uint64(i),
			Targets:  opts.Members,
			Target:   opts.Members[0],
			Window:   sessions.Window,
			Timeout:  opts.Timeout,
			Retry:    retryInterval,
		}
		clients[i] = NewOpenLoop(s, workload.New(opts.Workload, rng), arrivals, t, first)
	}
	e.node.After(0, func() {
		for _, c := range clients {
			c.Start()
		}
		now := e.node.Now()
		e.node.After(t.End-now, func() {
			if t.pending == 0 {
				e.finish()
			}
		})
		e.node.After(t.End+opts.Timeout-now, e.finish)
	})
	<-e.done
	e.node.Close() // the loop has stopped: its state is ours to read

	res := &Result{Counts: t.Counts, Latency: t.Latency(), MaxGap: t.MaxGap, Elapsed: opts.Duration}
	res.Goodput, res.OfferedRate = t.Rates()
	for i := range e.sessions {
		res.Redirects += e.sessions[i].Redirects
		res.Resends += e.sessions[i].Resends
	}
	return res, nil
}

// engine is the load generator's node: every field below is its event
// loop's until Run has closed the node.
type engine struct {
	base     uint64 // Options.ClientIDBase
	node     *transport.TCPNode
	sessions []client.Session
	done     chan struct{} // closed once, by finish
	over     bool
}

// OnMessage implements node.Handler: a reply goes to the session its client
// ID names.
func (e *engine) OnMessage(from ids.ID, m wire.Msg) {
	if i := client.Addressee(m) - e.base - 1; i < uint64(len(e.sessions)) {
		e.sessions[i].OnMessage(from, m)
	}
}

func (e *engine) finish() {
	if !e.over {
		e.over = true
		close(e.done)
	}
}
