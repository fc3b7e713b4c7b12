// Command pigclient is an interactive client for a pigserver cluster.
//
// Usage:
//
//	pigclient -server 127.0.0.1:7001 put mykey myvalue
//	pigclient -server 127.0.0.1:7001 get mykey
//	pigclient -server 127.0.0.1:7001 del mykey
//	pigclient -server 127.0.0.1:7001 -n 1000 bench
//
// Keys are hashed to the 64-bit key space with FNV-1a. Redirects (when the
// contacted node is a follower) are followed automatically if the leader's
// address is in -cluster; otherwise the redirect target is reported.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// nominalServer is the address-book entry for -server: the transport routes
// by connection, so the ID only has to differ from every real member's.
var nominalServer = ids.NewID(998, 1)

// do runs one command through the cluster's synchronous client — which owns
// redirect following, Busy backoff and reply matching — and turns a redirect
// it could not follow into an error that says how to fix it.
func do(sc *cluster.SyncClient, addrs map[ids.ID]string, cmd kvstore.Command) (wire.Reply, error) {
	rep, err := sc.Do(cmd)
	if err == nil && !rep.OK && !rep.Leader.IsZero() {
		if _, known := addrs[rep.Leader]; !known {
			return rep, fmt.Errorf(
				"redirected to leader %v but its address is unknown; pass -cluster", rep.Leader)
		}
	}
	return rep, err
}

func main() {
	var (
		server     = flag.String("server", "127.0.0.1:7001", "any cluster member's address")
		clusterStr = flag.String("cluster", "", "optional id=host:port list for redirect following")
		n          = flag.Int("n", 1000, "operations for the bench subcommand")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pigclient [-server addr] put k v | get k | del k | bench")
		os.Exit(2)
	}

	addrs := map[ids.ID]string{}
	if *clusterStr != "" {
		var err error
		if addrs, _, err = cluster.ParseAddrs(*clusterStr); err != nil {
			log.Fatal(err)
		}
	}
	addrs[nominalServer] = *server
	// The client ID must be unique per invocation: the cluster's
	// at-most-once session table is keyed on (ClientID, Seq), so a reused
	// identity would be answered from the previous invocation's cached
	// replies instead of executing.
	id := uint64(time.Now().UnixNano())<<8 | uint64(os.Getpid()&0xff)
	sc := cluster.NewSyncClient(addrs, nominalServer, id, 5*time.Second)
	defer sc.Close()

	switch args[0] {
	case "put":
		if len(args) != 3 {
			log.Fatal("put needs key and value")
		}
		rep, err := do(sc, addrs, kvstore.Command{Op: kvstore.Put, Key: hashKey(args[1]), Value: []byte(args[2])})
		exitOn(err, rep)
		fmt.Printf("OK (slot %d)\n", rep.Slot)
	case "get":
		if len(args) != 2 {
			log.Fatal("get needs a key")
		}
		rep, err := do(sc, addrs, kvstore.Command{Op: kvstore.Get, Key: hashKey(args[1])})
		exitOn(err, rep)
		if !rep.Exists {
			fmt.Println("(not found)")
			return
		}
		fmt.Printf("%s\n", rep.Value)
	case "del":
		if len(args) != 2 {
			log.Fatal("del needs a key")
		}
		rep, err := do(sc, addrs, kvstore.Command{Op: kvstore.Delete, Key: hashKey(args[1])})
		exitOn(err, rep)
		fmt.Printf("deleted=%v\n", rep.Exists)
	case "bench":
		start := time.Now()
		for i := 0; i < *n; i++ {
			_, err := do(sc, addrs, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i % 1000), Value: []byte("benchvalue"),
			})
			if err != nil {
				log.Fatalf("op %d: %v", i, err)
			}
		}
		el := time.Since(start)
		fmt.Printf("%d ops in %v: %.0f op/s, %.2fms mean\n",
			*n, el.Round(time.Millisecond), float64(*n)/el.Seconds(),
			el.Seconds()*1000/float64(*n))
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

func exitOn(err error, rep wire.Reply) {
	if err != nil {
		log.Fatal(err)
	}
	if !rep.OK {
		log.Fatalf("request failed; leader hint: %v", rep.Leader)
	}
}
