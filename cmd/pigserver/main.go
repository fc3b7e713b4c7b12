// Command pigserver runs one replica of a PigPaxos (or Paxos/EPaxos)
// cluster over TCP.
//
// Usage (3-node cluster on one machine):
//
//	pigserver -id 1.1 -cluster 1.1=:7001,1.2=:7002,1.3=:7003 &
//	pigserver -id 1.2 -cluster 1.1=:7001,1.2=:7002,1.3=:7003 &
//	pigserver -id 1.3 -cluster 1.1=:7001,1.2=:7002,1.3=:7003 &
//
// The node whose ID sorts first is the initial leader. Use -protocol to
// select paxos/epaxos, -groups for PigPaxos relay groups, -wal-dir for a
// durable journal that survives crash-restart.
//
// On SIGTERM/SIGINT the server shuts down gracefully: it flushes the WAL
// on the event loop, drains queued outbound frames so peers see its last
// messages, then closes the transport. A second signal aborts immediately.
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
	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wal"
)

func main() {
	var (
		idStr      = flag.String("id", "", "this node's ID (zone.node)")
		clusterStr = flag.String("cluster", "", "comma-separated id=host:port list for every member")
		protoName  = flag.String("protocol", "pigpaxos", "pigpaxos | paxos | epaxos")
		groups     = flag.Int("groups", 2, "PigPaxos relay groups")
		relayTO    = flag.Duration("relay-timeout", 50*time.Millisecond, "relay aggregation timeout")
		electTO    = flag.Duration("election-timeout", 2*time.Second, "leader failover timeout (0 disables)")
		hb         = flag.Duration("hb", 0, "leader heartbeat interval (0 = library default)")
		readMode   = flag.String("reads", "log", "read path: log | lease (paxos/pigpaxos)")
		retryTO    = flag.Duration("retry-timeout", 250*time.Millisecond, "leader P2a retransmit; on pigpaxos this is the Figure-5b timeout, the retransmit going out through freshly drawn relays (0: off on paxos, 2×relay-timeout+10ms on pigpaxos)")
		walDir     = flag.String("wal-dir", "", "directory for a durable write-ahead log (empty = in-memory only)")
		snapEvery  = flag.Int("snapshot-every", 4096, "with -wal-dir, checkpoint the state machine every N commits")
		drainTO    = flag.Duration("drain-timeout", time.Second, "graceful-shutdown budget for flushing outbound frames")

		batch       = flag.Int("batch", 0, "leader batch size (commands per slot, 0 = unbatched)")
		batchDelay  = flag.Duration("batch-delay", 0, "max wait for an under-full batch (0 = flush immediately)")
		inflight    = flag.Int("inflight", 0, "leader pipelining window in slots (0 = unbounded)")
		maxPending  = flag.Int("max-pending", 0, "leader ingress queue bound; excess requests get Busy (0 derives 4*inflight*batch, negative = unbounded)")
		queueTTL    = flag.Duration("queue-ttl", 0, "drop queued commands older than this at flush time (0 = never)")
		overloadLat = flag.Duration("overload-latency", 0, "shed with Busy while the commit-latency EWMA exceeds this (0 disables)")
	)
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
	cc := config.Cluster{Nodes: members, Addrs: addrs}
	if err := cc.Validate(); err != nil {
		log.Fatal(err)
	}
	var rm paxos.ReadMode
	switch *readMode {
	case "log":
		rm = paxos.ReadLog
	case "lease":
		rm = paxos.ReadLease
	default:
		log.Fatalf("unknown read mode %q (log|lease)", *readMode)
	}
	var st wal.Storage
	if *walDir != "" {
		fs, err := wal.OpenFile(*walDir)
		if err != nil {
			log.Fatalf("open wal: %v", err)
		}
		st = fs
	}
	base := paxos.Config{
		Cluster: cc, ID: self, InitialLeader: members[0],
		ElectionTimeout:   *electTO,
		HeartbeatInterval: *hb,
		ReadMode:          rm,
		RetryTimeout:      *retryTO,
		CompactEvery:      4096, // bound memory on long-running servers
		Storage:           st,
		SnapshotEvery:     *snapEvery,
		MaxBatchSize:      *batch,
		BatchDelay:        *batchDelay,
		MaxInFlight:       *inflight,
		MaxPending:        *maxPending,
		QueueTTL:          *queueTTL,
		OverloadLatency:   *overloadLat,
	}

	// The listener accepts before the replica exists; the shim's atomic
	// bind orders the handler against the node's event loop.
	late := &protocol.Late{}
	tn, err := transport.ListenTCP(self, selfAddr, addrs, late)
	if err != nil {
		log.Fatal(err)
	}
	leader := members[0]
	m := protocol.Build(tn, protocol.Spec{
		Kind:   kind,
		Paxos:  base,
		Pig:    pigpaxos.Config{Paxos: base, NumGroups: *groups, RelayTimeout: *relayTO},
		EPaxos: epaxos.Config{Cluster: cc, ID: self},
	})
	late.Bind(m.Handler)

	// Run Start on the node's event loop to respect single-threading.
	tn.After(0, m.Start)
	log.Printf("%s node %v serving on %s (leader: %v, %d members)",
		*protoName, self, tn.Addr(), leader, len(members))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down: flushing wal, draining transport")
	go func() { // a second signal aborts the graceful path
		<-sig
		log.Printf("second signal: aborting")
		os.Exit(1)
	}()

	// Flush the WAL on the event loop, where the replica appends, so the
	// final sync serializes after every accepted record — and let the votes
	// parked behind it go, so the drain below carries them out.
	if st != nil && m.Core != nil {
		flushed := make(chan struct{})
		tn.After(0, func() {
			if err := m.Core.FlushJournal(); err != nil {
				log.Printf("wal flush: %v", err)
			}
			close(flushed)
		})
		select {
		case <-flushed:
		case <-time.After(*drainTO):
			log.Printf("wal flush timed out")
		}
	}
	// Drain queued outbound frames so peers receive our last protocol
	// messages (votes, acks) before the sockets die.
	if !tn.Drain(*drainTO) {
		log.Printf("transport drain timed out; closing anyway")
	}
	tn.Close()
	if st != nil {
		// The event loop has exited; closing the storage races nothing.
		if err := st.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	log.Printf("bye")
}
