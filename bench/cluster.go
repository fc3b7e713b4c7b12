package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// replica is what the benchmark needs from either protocol's replica.
type replica struct {
	node.Handler
	Start func()
	core  func() *paxos.Replica
}

func members(n int) []ids.ID {
	out := make([]ids.ID, n)
	for i := range out {
		out[i] = ids.NewID(1, i+1)
	}
	return out
}

// buildReplica configures a replica the way cmd/pigserver does with its
// default flags plus the workload's -protocol/-groups/-batch/-inflight and
// -wal-dir, on whatever context and storage the caller owns.
func buildReplica(w spec, cc config.Cluster, id ids.ID, ctx node.Context, st wal.Storage) replica {
	base := paxos.Config{
		Cluster: cc, ID: id, InitialLeader: cc.Nodes[0],
		// No workload on this plane injects a fault, so two of pigserver's
		// defaults would only turn a host stall into failed operations: a
		// 2 s election timeout deposes a leader whose fsync hung that long
		// (the generator talks to node 1 only), and the ingress bound derived
		// from the window (4*4*16 = 256) answers Busy once the open loop has
		// queued a third of a second of arrivals behind such a stall.
		ElectionTimeout: 2 * patience,
		MaxPending:      -1,
		RetryTimeout:    250 * time.Millisecond,
		CompactEvery:    4096,
		Storage:         st,
		SnapshotEvery:   4096,
		MaxBatchSize:    w.batch,
		MaxInFlight:     w.inflight,
	}
	if w.pig {
		r := pigpaxos.New(ctx, pigpaxos.Config{Paxos: base, NumGroups: w.groups, RelayTimeout: 50 * time.Millisecond})
		return replica{Handler: r, Start: r.Start, core: r.Core}
	}
	r := paxos.New(ctx, base, nil)
	return replica{Handler: r, Start: r.Start, core: func() *paxos.Replica { return r }}
}

// handlerProxy lets the transport exist before the replica it will feed.
type handlerProxy struct{ h node.Handler }

func (p *handlerProxy) OnMessage(from ids.ID, m wire.Msg) {
	if p.h != nil {
		p.h.OnMessage(from, m)
	}
}

// tcpCluster is one workload's replicas on loopback TCP, all in this
// process. The only message delay is the loopback's.
type tcpCluster struct {
	w      spec
	nodes  []*transport.TCPNode
	reps   []replica
	stores []*wal.FileStorage
	dir    string
}

// startCluster builds the cluster from public pieces exactly as cmd/pigserver
// does: transport.ListenTCP on 127.0.0.1:0, paxos.New or pigpaxos.New,
// wal.OpenFile where durable. With a tracer, the handler, context and
// storage handed over are the benchmark's wrappers.
func startCluster(w spec, tr *tracer) (*tcpCluster, error) {
	c := &tcpCluster{w: w}
	cc := config.Cluster{Nodes: members(w.n)}
	if w.durable {
		dir, err := os.MkdirTemp("", "pigbench-wal-")
		if err != nil {
			return nil, err
		}
		c.dir = dir
	}
	addrs := make(map[ids.ID]string)
	for i, id := range cc.Nodes {
		proxy := &handlerProxy{}
		// Every node gets its own address map: TCPNode guards it with the
		// node's own mutex.
		tn, err := transport.ListenTCP(id, "127.0.0.1:0", make(map[ids.ID]string), proxy)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, tn)
		addrs[id] = tn.Addr()
		var st wal.Storage
		if w.durable {
			fs, err := wal.OpenFile(filepath.Join(c.dir, fmt.Sprintf("node%d", i+1)))
			if err != nil {
				c.close()
				return nil, err
			}
			c.stores = append(c.stores, fs)
			st = fs
		}
		var ctx node.Context = tn
		if tr != nil {
			ctx = &tracedCtx{Context: tn, nt: tr.nodes[i]}
			if st != nil {
				st = &tracedStorage{Storage: st, nt: tr.nodes[i]}
			}
		}
		rep := buildReplica(w, cc, id, ctx, st)
		c.reps = append(c.reps, rep)
		proxy.h = rep
		if tr != nil {
			proxy.h = &tracedHandler{inner: rep, nt: tr.nodes[i]}
		}
	}
	for i, tn := range c.nodes {
		for id, a := range addrs {
			tn.RegisterAddr(id, a)
		}
		tn.After(0, c.reps[i].Start) // on the node's event loop
	}
	return c, nil
}

func (c *tcpCluster) leaderAddr() string { return c.nodes[0].Addr() }

// onLoop runs fn on node i's event loop and waits for it.
func (c *tcpCluster) onLoop(i int, fn func()) bool {
	done := make(chan struct{})
	c.nodes[i].After(0, func() { fn(); close(done) })
	select {
	case <-done:
		return true
	case <-time.After(patience):
		return false
	}
}

// converge waits until every replica's state machine reports the same
// checksum and applied count, read on each node's own event loop.
func (c *tcpCluster) converge(timeout time.Duration) (applied uint64, err error) {
	deadline := time.Now().Add(timeout)
	for {
		sums := make([]uint64, len(c.nodes))
		counts := make([]uint64, len(c.nodes))
		leaders := 0
		for i := range c.nodes {
			i := i
			if !c.onLoop(i, func() {
				st := c.reps[i].core().Store()
				sums[i], counts[i] = st.Checksum(), st.Applied()
				if c.reps[i].core().IsLeader() {
					leaders++
				}
			}) {
				return 0, fmt.Errorf("node %d: event loop did not answer", i+1)
			}
		}
		same := true
		for i := range sums {
			if sums[i] != sums[0] || counts[i] != counts[0] {
				same = false
			}
		}
		if same && leaders == 1 {
			return counts[0], nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replicas did not converge in %v: applied %v, checksums %x, leaders %d",
				timeout, counts, sums, leaders)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *tcpCluster) close() {
	for _, tn := range c.nodes {
		tn.Close()
	}
	for _, st := range c.stores {
		st.Close() // event loops have exited; nothing races the close
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// fsName names the filesystem holding path: a durable workload's numbers are
// that disk's.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs (fsync is free)"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("type %#x", uint32(st.Type))
}
