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
	"pigpaxos/internal/shard"
)

// startDurable boots a 3-node cluster on loopback TCP whose members journal
// to file WALs under dir, one cluster.Member each, as pigserver -wal-dir
// runs one.
func startDurable(t *testing.T, kind protocol.Kind, dir string) (map[ids.ID]string, []*cluster.Member) {
	t.Helper()
	members := cluster.Members(3)
	addrs, err := cluster.FreePorts(members)
	if err != nil {
		t.Fatal(err)
	}
	plan := shard.Plan(config.Cluster{Nodes: members}, 1)
	base := paxos.Config{SnapshotEvery: 64, MaxBatchSize: 4, MaxInFlight: 2}
	tmpl := protocol.Spec{Kind: kind, Paxos: base, Pig: pigpaxos.Config{Paxos: base, NumGroups: 1}}
	var ms []*cluster.Member
	for i, id := range members {
		m, err := cluster.NewMember(id, addrs[id], addrs, plan, tmpl, nodeDir(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		ms = append(ms, m)
	}
	if err := cluster.WaitReady(addrs, members, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return addrs, ms
}

func nodeDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("node%d", i+1)) }

// shutdown is pigserver's SIGTERM path on every member.
func shutdown(t *testing.T, ms []*cluster.Member) {
	t.Helper()
	for i, m := range ms {
		if err := m.Shutdown(10 * time.Second); err != nil {
			t.Errorf("node %d: %v", i+1, err)
		}
	}
}

// TestTCPDurablePipelineSurvivesRestart runs the durability pipeline on the
// real stack — file WAL, syncer goroutine, completions posted to the TCP
// event loop — then shuts every member down and boots a fresh cluster from
// the directories alone: everything acknowledged must still be there. Each
// member journals directly in its directory, the layout pigserver -wal-dir
// has always written, so an existing directory still recovers.
func TestTCPDurablePipelineSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	for _, kind := range []protocol.Kind{protocol.Paxos, protocol.PigPaxos} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			addrs, ms := startDurable(t, kind, dir)
			cl := cluster.NewSyncClient(addrs, cluster.Members(3)[0], 1, 5*time.Second)
			const keys = 150 // past two snapshots
			for k := uint64(0); k < keys; k++ {
				rep, err := cl.Put(k, []byte{byte(k), byte(k >> 8)})
				if err != nil || !rep.OK {
					t.Fatalf("put %d: %v %+v", k, err, rep)
				}
			}
			cl.Close()
			shutdown(t, ms)
			var syncs uint64
			for i, m := range ms {
				syncs += m.Replica(0).Core.Stats().WALSyncs // the loop has exited
				if segs, _ := filepath.Glob(filepath.Join(nodeDir(dir, i), "wal-*.seg")); len(segs) == 0 {
					t.Fatalf("node %d: no journal segment directly in its WAL directory", i+1)
				}
			}
			if syncs == 0 {
				t.Fatal("no journal flush on a durable run")
			}

			addrs, ms = startDurable(t, kind, dir)
			defer shutdown(t, ms)
			cl = cluster.NewSyncClient(addrs, cluster.Members(3)[0], 2, 5*time.Second)
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
