package loadgen_test

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/loadgen"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

// TestRunRejectsBadOptions: Run uses the values it is given, so a zero it
// cannot run with is an error, not a default — and it is reported before
// anything is dialled.
func TestRunRejectsBadOptions(t *testing.T) {
	good := func() loadgen.Options {
		return loadgen.Options{
			Addrs:    map[ids.ID]string{member: "127.0.0.1:1"},
			Members:  []ids.ID{member},
			Clients:  1,
			Rate:     100,
			Duration: time.Second,
			Timeout:  time.Second,
		}
	}
	for name, mut := range map[string]func(*loadgen.Options){
		"zero rate":        func(o *loadgen.Options) { o.Rate = 0 },
		"empty cluster":    func(o *loadgen.Options) { o.Addrs, o.Members = nil, nil },
		"zero clients":     func(o *loadgen.Options) { o.Clients = 0 },
		"negative clients": func(o *loadgen.Options) { o.Clients = -1 },
		"negative warmup":  func(o *loadgen.Options) { o.Warmup = -time.Millisecond },
		"zero duration":    func(o *loadgen.Options) { o.Duration = 0 },
		"zero timeout":     func(o *loadgen.Options) { o.Timeout = 0 },
		"bad workload":     func(o *loadgen.Options) { o.Workload.ReadRatio = 2 },
	} {
		o := good()
		mut(&o)
		if _, err := loadgen.Run(o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	o := good()
	if err := o.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestOpenLoopAgainstRealCluster drives a real 3-node TCP paxos cluster at
// a comfortable rate and checks the accounting: goodput tracks offered
// load, latency percentiles are populated, and nothing times out.
func TestOpenLoopAgainstRealCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	c, err := cluster.StartInProc(3, 1, protocol.Spec{Kind: protocol.Paxos})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := cluster.WaitReady(c.Addrs, c.Members, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(loadgen.Options{
		Addrs:    c.Addrs,
		Members:  c.Members,
		Clients:  4,
		Rate:     400,
		Warmup:   300 * time.Millisecond,
		Duration: 1500 * time.Millisecond,
		Timeout:  2 * time.Second,
		Workload: workload.Config{Keys: 64},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("result: %v", res)
	if res.Offered == 0 || res.Completed == 0 {
		t.Fatalf("no traffic measured: %+v", res)
	}
	// Poisson at 400/s over 1.5s: offered ≈ 600 with stddev ≈ 24.5; a
	// ±25% band is ~6 sigma on a seeded run.
	if res.Offered < 450 || res.Offered > 750 {
		t.Errorf("offered %d, want ≈ 600", res.Offered)
	}
	if res.Timeouts > 0 {
		t.Errorf("healthy cluster timed out %d ops", res.Timeouts)
	}
	if got := float64(res.Completed) / float64(res.Offered); got < 0.95 {
		t.Errorf("goodput/offered = %.2f, want ≥ 0.95", got)
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 ||
		res.Latency.P999 < res.Latency.P99 {
		t.Errorf("implausible latency digest: %v", res.Latency)
	}
}

// member is the one member of a fakeMember "cluster".
var member = ids.NewID(1, 1)

// fakeMember serves the loadgen's node as a one-member cluster would: a
// frame-speaking TCP server that hands every request to answer and writes
// the reply it returns after the delay it returns.
func fakeMember(t *testing.T, answer func(wire.Request) (wire.Msg, time.Duration)) map[ids.ID]string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var mu sync.Mutex // replies leave from timer goroutines
				br := bufio.NewReader(conn)
				for {
					_, m, err := transport.ReadFrame(br)
					if err != nil {
						return
					}
					req, ok := m.(wire.Request)
					if !ok {
						continue
					}
					reply, after := answer(req)
					time.AfterFunc(after, func() {
						mu.Lock()
						defer mu.Unlock()
						transport.WriteFrame(conn, member, reply) // a closed connection ends the run anyway
					})
				}
			}(conn)
		}
	}()
	return map[ids.ID]string{member: ln.Addr().String()}
}

// TestOpenLoopShedsAtInFlightCap offers one client more than its in-flight
// cap, sessions.Window, can carry against a member that answers every
// request 100ms late — at most Window per 100ms, 2,560 ops/s — and checks
// the engine sheds instead of blocking the arrival clock (the open-loop
// property).
func TestOpenLoopShedsAtInFlightCap(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP")
	}
	addrs := fakeMember(t, func(req wire.Request) (wire.Msg, time.Duration) {
		return wire.Reply{ClientID: req.Cmd.ClientID, Seq: req.Cmd.Seq, OK: true, Leader: member}, 100 * time.Millisecond
	})
	res, err := loadgen.Run(loadgen.Options{
		Addrs:    addrs,
		Members:  []ids.ID{member},
		Clients:  1,
		Rate:     4000,
		Warmup:   200 * time.Millisecond,
		Duration: time.Second,
		Timeout:  time.Second,
		Workload: workload.Config{Keys: 64},
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("result: %v", res)
	if res.Shed == 0 {
		t.Errorf("rate 4000 against a cap carrying 2,560 ops/s must shed, got %+v", res)
	}
	// The run must still have made real progress under overload.
	if res.Completed == 0 {
		t.Errorf("no completions under overload: %+v", res)
	}
}

// TestBusyRetryAfterHonored runs the engine against a fake member that
// rejects the first delivery of every command with wire.Busy (retry-after
// 20ms) and serves the second. Every op must complete exactly one hinted
// retry later — Busy counted per in-window op, nothing shed, nothing timed
// out, and the 20ms pause visible in the open-loop latency.
func TestBusyRetryAfterHonored(t *testing.T) {
	const hint = 20 * time.Millisecond
	var mu sync.Mutex
	seen := make(map[[2]uint64]bool)
	addrs := fakeMember(t, func(req wire.Request) (wire.Msg, time.Duration) {
		key := [2]uint64{req.Cmd.ClientID, req.Cmd.Seq}
		mu.Lock()
		first := !seen[key]
		seen[key] = true
		mu.Unlock()
		if first {
			return wire.Busy{ClientID: req.Cmd.ClientID, Seq: req.Cmd.Seq, Leader: member, RetryAfter: hint}, 0
		}
		return wire.Reply{ClientID: req.Cmd.ClientID, Seq: req.Cmd.Seq, OK: true, Leader: member}, 0
	})

	res, err := loadgen.Run(loadgen.Options{
		Addrs:    addrs,
		Members:  []ids.ID{member},
		Clients:  2,
		Rate:     200,
		Warmup:   200 * time.Millisecond,
		Duration: time.Second,
		Timeout:  2 * time.Second,
		Workload: workload.Config{Keys: 16},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("result: %v", res)
	if res.Offered == 0 {
		t.Fatal("no in-window arrivals")
	}
	if res.Busy != res.Offered {
		t.Errorf("busy = %d, want one per offered op (%d)", res.Busy, res.Offered)
	}
	if res.Completed != res.Offered {
		t.Errorf("completed = %d of %d — Busy is backpressure, every retry must land", res.Completed, res.Offered)
	}
	if res.Shed != 0 || res.Timeouts != 0 {
		t.Errorf("busy ops leaked into shed (%d) or timeouts (%d)", res.Shed, res.Timeouts)
	}
	// Scheduled-arrival→completion latency includes the hinted pause.
	if res.Latency.P50 < hint {
		t.Errorf("p50 %v below the %v retry-after hint", res.Latency.P50, hint)
	}
}
