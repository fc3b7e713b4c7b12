// Command pigserver runs one replica of a PigPaxos (or Paxos/EPaxos)
// cluster over TCP: flag parsing around one cluster.Member, the assembly
// the in-process cluster and the integration tests run too, so the server
// also answers Paxos Quorum Reads (§4.3).
//
// Usage (3-node cluster on one machine):
//
//	pigserver -id 1.1 -cluster 1.1=:7001,1.2=:7002,1.3=:7003 &
//	pigserver -id 1.2 -cluster 1.1=:7001,1.2=:7002,1.3=:7003 &
//	pigserver -id 1.3 -cluster 1.1=:7001,1.2=:7002,1.3=:7003 &
//
// The node whose ID sorts first is the initial leader. Use -protocol to
// select paxos/epaxos, -groups for PigPaxos relay groups, -wal-dir for a
// durable journal that survives crash-restart (Paxos and PigPaxos only:
// EPaxos has no journal, and asking it for one is an error).
//
// On SIGTERM/SIGINT the server shuts down gracefully (Member.Shutdown): it
// flushes the WAL on the event loop, drains queued outbound frames so peers
// see its last messages, then closes the transport and the WAL. A second
// signal aborts immediately.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/config"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/shard"
)

func main() {
	var base paxos.Config   // the replica's settings; NewMember fills in the rest
	var pig pigpaxos.Config // base plus the relay plane's
	var (
		idStr      = flag.String("id", "", "this node's ID (zone.node)")
		clusterStr = flag.String("cluster", "", "comma-separated id=host:port list for every member")
		protoName  = flag.String("protocol", "pigpaxos", "pigpaxos | paxos | epaxos")
		readMode   = flag.String("reads", "log", "read path: log | lease (paxos/pigpaxos)")
		walDir     = flag.String("wal-dir", "", "directory for a durable write-ahead log (empty = in-memory only)")
		drainTO    = flag.Duration("drain-timeout", time.Second, "graceful-shutdown budget for flushing outbound frames")
	)
	flag.IntVar(&pig.NumGroups, "groups", 2, "PigPaxos relay groups")
	flag.DurationVar(&pig.RelayTimeout, "relay-timeout", 50*time.Millisecond, "relay aggregation timeout")
	flag.DurationVar(&base.ElectionTimeout, "election-timeout", 2*time.Second, "leader failover timeout (0 disables)")
	flag.DurationVar(&base.HeartbeatInterval, "hb", 0, "leader heartbeat interval (0 = library default)")
	flag.DurationVar(&base.RetryTimeout, "retry-timeout", 250*time.Millisecond, "leader P2a retransmit; on pigpaxos this is the Figure-5b timeout, the retransmit going out through freshly drawn relays (0: off on paxos, 2×relay-timeout+10ms on pigpaxos)")
	flag.IntVar(&base.SnapshotEvery, "snapshot-every", 4096, "with -wal-dir, checkpoint the state machine every N commits")

	flag.IntVar(&base.MaxBatchSize, "batch", 0, "leader batch size (commands per slot, 0 = unbatched)")
	flag.DurationVar(&base.BatchDelay, "batch-delay", 0, "max wait for an under-full batch (0 = flush immediately)")
	flag.IntVar(&base.MaxInFlight, "inflight", 0, "leader pipelining window in slots (0 = unbounded)")
	flag.IntVar(&base.MaxPending, "max-pending", 0, "leader ingress queue bound; excess requests get Busy (0 derives 4*inflight*batch, negative = unbounded)")
	flag.DurationVar(&base.QueueTTL, "queue-ttl", 0, "drop queued commands older than this at flush time (0 = never)")
	flag.DurationVar(&base.OverloadLatency, "overload-latency", 0, "shed with Busy while the commit-latency EWMA exceeds this (0 disables)")
	flag.Parse()
	if *idStr == "" || *clusterStr == "" {
		fmt.Fprintln(os.Stderr, "usage: pigserver -id 1.1 -cluster 1.1=:7001,1.2=:7002,...")
		os.Exit(2)
	}
	self, err := cluster.ParseID(*idStr)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := protocol.Parse(*protoName)
	if err != nil {
		log.Fatal(err)
	}
	addrs, members, err := cluster.ParseAddrs(*clusterStr)
	if err != nil {
		log.Fatal(err)
	}
	selfAddr, ok := addrs[self]
	if !ok {
		log.Fatalf("node %v is not in the cluster list", self)
	}
	cc := config.Cluster{Nodes: members}
	if err := cc.Validate(); err != nil {
		log.Fatal(err)
	}
	switch *readMode {
	case "log":
		base.ReadMode = paxos.ReadLog
	case "lease":
		base.ReadMode = paxos.ReadLease
	default:
		log.Fatalf("unknown read mode %q (log|lease)", *readMode)
	}
	pig.Paxos = base
	plan := shard.Plan(cc, 1)
	m, err := cluster.NewMember(self, selfAddr, addrs, plan, protocol.Spec{Kind: kind, Paxos: base, Pig: pig}, *walDir)
	if err != nil {
		log.Fatal(err)
	}
	m.Start()
	log.Printf("%s node %v serving on %s (leader: %v, %d members)",
		*protoName, self, m.Node.Addr(), plan.Shards[0].Leader, len(members))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down: flushing wal, draining transport")
	go func() { // a second signal aborts the graceful path
		<-sig
		log.Printf("second signal: aborting")
		os.Exit(1)
	}()
	if err := m.Shutdown(*drainTO); err != nil {
		log.Print(err)
	}
	log.Printf("bye")
}
