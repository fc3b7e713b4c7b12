package integration

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wal"
)

// durableCluster is a 3-node cluster on loopback TCP whose members journal
// to file WALs under dir, built the way cmd/pigserver builds one node.
type durableCluster struct {
	members []ids.ID
	addrs   map[ids.ID]string
	nodes   []*transport.TCPNode
	cores   []*paxos.Replica
	stores  []*wal.FileStorage
}

func startDurable(t *testing.T, kind protocol.Kind, dir string) *durableCluster {
	t.Helper()
	c := &durableCluster{members: cluster.Members(3), addrs: make(map[ids.ID]string)}
	cc := config.Cluster{Nodes: c.members}
	for i, id := range c.members {
		late := &protocol.Late{}
		tn, err := transport.ListenTCP(id, "127.0.0.1:0", make(map[ids.ID]string), late)
		if err != nil {
			t.Fatal(err)
		}
		st, err := wal.OpenFile(filepath.Join(dir, fmt.Sprintf("node%d", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		base := paxos.Config{Cluster: cc, ID: id, InitialLeader: c.members[0], Storage: st, SnapshotEvery: 64, MaxBatchSize: 4, MaxInFlight: 2}
		m := protocol.Build(tn, protocol.Spec{Kind: kind, Paxos: base, Pig: pigpaxos.Config{Paxos: base, NumGroups: 1}})
		late.Bind(m.Handler)
		c.nodes, c.cores, c.stores = append(c.nodes, tn), append(c.cores, m.Core), append(c.stores, st)
		c.addrs[id] = tn.Addr()
		tn.After(0, m.Start)
	}
	for _, tn := range c.nodes {
		for id, a := range c.addrs {
			tn.RegisterAddr(id, a)
		}
	}
	if err := cluster.WaitReady(c.addrs, c.members, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// stop is cmd/pigserver's shutdown: flush and wait on each event loop, close
// the transports, then close the journals.
func (c *durableCluster) stop(t *testing.T) {
	t.Helper()
	for i, tn := range c.nodes {
		flushed := make(chan error, 1)
		core := c.cores[i]
		tn.After(0, func() { flushed <- core.FlushJournal() })
		select {
		case err := <-flushed:
			if err != nil {
				t.Errorf("node %d: flush: %v", i+1, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d: event loop did not flush", i+1)
		}
	}
	for _, tn := range c.nodes {
		tn.Close()
	}
	for i, st := range c.stores {
		if err := st.Close(); err != nil {
			t.Errorf("node %d: close journal: %v", i+1, err)
		}
	}
}

// TestTCPDurablePipelineSurvivesRestart runs the durability pipeline on the
// real stack — file WAL, syncer goroutine, completions posted to the TCP
// event loop — then stops every process and boots a fresh cluster from the
// directories alone: everything acknowledged must still be there.
func TestTCPDurablePipelineSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	for _, kind := range []protocol.Kind{protocol.Paxos, protocol.PigPaxos} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			c := startDurable(t, kind, dir)
			cl := cluster.NewSyncClient(c.addrs, c.members[0], 1, 5*time.Second)
			const keys = 150 // past two snapshots
			for k := uint64(0); k < keys; k++ {
				rep, err := cl.Put(k, []byte{byte(k), byte(k >> 8)})
				if err != nil || !rep.OK {
					t.Fatalf("put %d: %v %+v", k, err, rep)
				}
			}
			cl.Close()
			var syncs uint64
			for _, st := range c.stores {
				syncs += st.Syncs()
			}
			if syncs == 0 {
				t.Fatal("no journal flush on a durable run")
			}
			c.stop(t)

			c = startDurable(t, kind, dir)
			defer c.stop(t)
			cl = cluster.NewSyncClient(c.addrs, c.members[0], 2, 5*time.Second)
			defer cl.Close()
			for k := uint64(0); k < keys; k++ {
				rep, err := cl.Get(k)
				if err != nil || !rep.OK || !rep.Exists || len(rep.Value) != 2 || rep.Value[0] != byte(k) {
					t.Fatalf("get %d after restart: %v %+v", k, err, rep)
				}
			}
		})
	}
}
