// End-to-end tests for the real stack: actual TCPNodes on ephemeral
// localhost ports, the framed wire protocol, per-peer writer goroutines —
// everything the simulator abstracts away. Skipped under -short; CI runs
// them with -race in the bench-tcp job.
package integration

import (
	"bufio"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/loadgen"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

// TestTCPClusterEndToEnd brings up a real 3-node cluster per protocol and
// runs the full client path over sockets: put, get, delete, and a
// follower-first op that must traverse a leader redirect.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	for _, kind := range []protocol.Kind{protocol.Paxos, protocol.PigPaxos} {
		t.Run(strings.ToLower(kind.String()), func(t *testing.T) {
			c, err := cluster.StartInProc(3, 1, protocol.Spec{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := cluster.WaitReady(c.Addrs, c.Members, 10*time.Second); err != nil {
				t.Fatal(err)
			}

			// Leader-directed traffic.
			cl := cluster.NewSyncClient(c.Addrs, c.Members[0], 1, 5*time.Second)
			defer cl.Close()
			for k := uint64(0); k < 20; k++ {
				rep, err := cl.Put(k, []byte{byte(k)})
				if err != nil || !rep.OK {
					t.Fatalf("put %d: %v %+v", k, err, rep)
				}
			}
			for k := uint64(0); k < 20; k++ {
				rep, err := cl.Get(k)
				if err != nil || !rep.OK || !rep.Exists || rep.Value[0] != byte(k) {
					t.Fatalf("get %d: %v %+v", k, err, rep)
				}
			}
			rep, err := cl.Delete(7)
			if err != nil || !rep.OK {
				t.Fatalf("delete: %v %+v", err, rep)
			}
			if rep, err = cl.Get(7); err != nil || !rep.OK || rep.Exists {
				t.Fatalf("get after delete: %v %+v", err, rep)
			}

			// Follower-directed traffic must redirect, then stick.
			fc := cluster.NewSyncClient(c.Addrs, c.Members[2], 2, 5*time.Second)
			defer fc.Close()
			if rep, err = fc.Get(3); err != nil || !rep.OK || !rep.Exists {
				t.Fatalf("follower get: %v %+v", err, rep)
			}
			if fc.Redirects == 0 {
				t.Error("follower-first op served without a redirect")
			}
			if fc.Target() != c.Members[0] {
				t.Errorf("client should stick to leader, targets %v", fc.Target())
			}

			// A pipelined burst, long enough on an unloaded host to carry
			// every member past its first log compactions. Nothing failed
			// and nobody fell behind, so no member may have shipped a
			// snapshot: one sent here answers a duplicate, not a laggard.
			res, err := loadgen.Run(loadgen.Options{
				Addrs:    c.Addrs,
				Members:  c.Members,
				Clients:  4,
				Rate:     8000,
				Warmup:   200 * time.Millisecond,
				Duration: 2 * time.Second,
				Timeout:  2 * time.Second,
				Workload: workload.Config{Keys: 64},
				Seed:     5,
			})
			if err != nil || res.Completed == 0 {
				t.Fatalf("burst: %v %v", err, res)
			}
			for _, id := range c.Members {
				st, ok := c.Stats(id)
				if !ok {
					t.Fatalf("%v: no stats", id)
				}
				if st.SnapSends != 0 {
					t.Errorf("%v shipped %d snapshots on a fault-free run (%d executed)", id, st.SnapSends, st.Executions)
				}
			}
		})
	}
}

// TestTCPLeaderKillFailover runs open-loop load against a real cluster,
// kills the leader's transport mid-window, and asserts the cluster fails
// over: load keeps completing afterwards and the availability gap stays
// bounded by a few election timeouts.
func TestTCPLeaderKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	const electTO = 400 * time.Millisecond
	c, err := cluster.StartInProc(3, 1, protocol.Spec{
		Kind:  protocol.Paxos,
		Paxos: paxos.Config{ElectionTimeout: electTO},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := cluster.WaitReady(c.Addrs, c.Members, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	leader := c.Members[0]
	killed := make(chan struct{})
	go func() {
		time.Sleep(1500 * time.Millisecond) // warmup + 0.5s of steady state
		c.Stop(leader)
		close(killed)
	}()
	res, err := loadgen.Run(loadgen.Options{
		Addrs:    c.Addrs,
		Members:  c.Members,
		Clients:  4,
		Rate:     400,
		Warmup:   time.Second,
		Duration: 4 * time.Second,
		Timeout:  2 * time.Second,
		Workload: workload.Config{Keys: 64},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	t.Logf("failover run: %v", res)
	if res.Completed == 0 {
		t.Fatal("no completions at all")
	}
	// The window is 4s and the leader dies 0.5s in; substantial traffic
	// must complete AFTER failover, not just before the kill.
	if float64(res.Completed) < 0.5*float64(res.Offered) {
		t.Errorf("only %d/%d ops completed; failover did not restore service",
			res.Completed, res.Offered)
	}
	// The sessions move to the new leader together and in order: almost
	// nothing is lost on the way, and nothing is sent over and over.
	if res.Timeouts*100 > res.Offered {
		t.Errorf("%d of %d ops timed out, want at most 1%%", res.Timeouts, res.Offered)
	}
	if res.Resends > 10*res.Offered {
		t.Errorf("%d re-sends for %d ops, want at most 10 each", res.Resends, res.Offered)
	}
	// Bounded gap: election (randomized ×[1,2)) + client retry sweeps.
	// 6× election timeout + 1s of retry slack is generous but still
	// catches a cluster that never re-elects (gap would be ≈ 3.5s).
	if maxAllowed := 6*electTO + time.Second; res.MaxGap > maxAllowed {
		t.Errorf("availability gap %v exceeds %v", res.MaxGap, maxAllowed)
	}
}

// TestTCPGracefulLeaderDrain covers the SIGTERM path pigserver takes,
// Member.Shutdown: the dying leader flushes and drains what it already
// queued, the remaining nodes elect, and a fresh client commits against the
// new leader.
func TestTCPGracefulLeaderDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	c, err := cluster.StartInProc(3, 1, protocol.Spec{
		Kind:  protocol.Paxos,
		Paxos: paxos.Config{ElectionTimeout: 400 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := cluster.WaitReady(c.Addrs, c.Members, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewSyncClient(c.Addrs, c.Members[0], 1, 5*time.Second)
	defer cl.Close()
	if rep, err := cl.Put(1, []byte("before")); err != nil || !rep.OK {
		t.Fatalf("put before drain: %v %+v", err, rep)
	}

	leader := c.Members[0]
	if err := c.Member(leader).Shutdown(2 * time.Second); err != nil {
		t.Errorf("leader shutdown while idle: %v", err)
	}

	// A new client (fresh session, no stale conn) must find the new
	// leader and commit; readiness on the survivors proves the election.
	survivors := c.Members[1:]
	if err := cluster.WaitReady(c.Addrs, survivors, 10*time.Second); err != nil {
		t.Fatalf("survivors never elected: %v", err)
	}
	nc := cluster.NewSyncClient(c.Addrs, survivors[0], 9, 5*time.Second)
	defer nc.Close()
	rep, err := nc.Get(1)
	if err != nil || !rep.OK || !rep.Exists || string(rep.Value) != "before" {
		t.Fatalf("pre-drain write lost after leader handoff: %v %+v", err, rep)
	}
	if rep, err = nc.Put(2, []byte("after")); err != nil || !rep.OK {
		t.Fatalf("put after handoff: %v %+v", err, rep)
	}
}

// TestTCPCompactedLogReleasesInboundMemory: decoded messages own the read
// chunks they alias, and a replica keeps decoded command batches in its log.
// The log is compacted in slot order (every 4096 executions here), so it
// must let go of the chunks as it goes: after 200 MB of 1 KiB writes through
// a 3-node cluster the live heap is a few compaction windows, not the
// traffic.
func TestTCPCompactedLogReleasesInboundMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test skipped under -short")
	}
	c, err := cluster.StartInProc(3, 1, protocol.Spec{Kind: protocol.Paxos})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := cluster.WaitReady(c.Addrs, c.Members, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", c.Addrs[c.Members[0]])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// 64 sessions, one write outstanding each, multiplexed over the one
	// connection: a reply sends its session's next write.
	const writes, sessions = 200 << 10, 64
	me := ids.NewID(900, 1)
	w, r := bufio.NewWriter(conn), bufio.NewReader(conn)
	value := make([]byte, 1024)
	next := make([]uint64, sessions) // last sequence number sent, per session
	sent := 0
	put := func(s uint64) {
		next[s]++
		sent++
		cmd := kvstore.Command{Op: kvstore.Put, Key: s, Value: value, ClientID: 100 + s, Seq: next[s]}
		if err := transport.WriteFrame(w, me, wire.Request{Cmd: cmd}); err != nil {
			t.Fatal(err)
		}
	}
	for s := uint64(0); s < sessions; s++ {
		put(s)
	}
	conn.SetDeadline(time.Now().Add(2 * time.Minute))
	for acked := 0; acked < writes; acked++ {
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		_, m, err := transport.ReadFrame(r)
		if err != nil {
			t.Fatalf("after %d acks: %v", acked, err)
		}
		rep, ok := m.(wire.Reply)
		if !ok || !rep.OK || rep.Seq != next[rep.ClientID-100] {
			t.Fatalf("after %d acks: %+v", acked, m)
		}
		if sent < writes {
			put(rep.ClientID - 100)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Three logs of at most two compaction windows of 1 KiB commands, the
	// chunks those pin, and the followers' backlog: tens of MB. Retaining
	// the traffic would be 600 MB.
	const limit = 160 << 20
	if ms.HeapAlloc > limit {
		t.Errorf("live heap %d MB after %d MB of writes, want < %d MB: compacted slots still pin their read chunks",
			ms.HeapAlloc>>20, writes>>10, limit>>20)
	}
	t.Logf("live heap %d MB after %d MB of writes", ms.HeapAlloc>>20, writes>>10)
}
