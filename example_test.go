package pigpaxos_test

import (
	"fmt"
	"time"

	"pigpaxos"
)

// ExampleNewCluster shows the minimal embedded-cluster workflow: start five
// replicas, write, read, shut down.
func ExampleNewCluster() {
	cluster, err := pigpaxos.NewCluster(pigpaxos.Options{
		N:           5,
		Protocol:    pigpaxos.ProtocolPigPaxos,
		RelayGroups: 2,
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	client, err := cluster.Client()
	if err != nil {
		panic(err)
	}
	if err := client.Put(1, []byte("hello")); err != nil {
		panic(err)
	}
	v, found, err := client.Get(1)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(v), found)
	// Output: hello true
}

// ExampleClient_QuorumRead reads through the Paxos-Quorum-Read path, which
// probes a majority of replicas and never touches the leader.
func ExampleClient_QuorumRead() {
	cluster, err := pigpaxos.NewCluster(pigpaxos.Options{N: 3})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	client, _ := cluster.Client()
	if err := client.Put(7, []byte("leaderless read")); err != nil {
		panic(err)
	}
	// Commit watermarks propagate on heartbeats; wait for a majority of
	// stores to hold the write.
	var v []byte
	var found bool
	for i := 0; i < 300; i++ {
		v, found, err = client.QuorumRead(7)
		if err == nil && found {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println(string(v), found)
	// Output: leaderless read true
}
