package pigpaxos

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestClusterPutGetDelete(t *testing.T) {
	for _, p := range []Protocol{ProtocolPigPaxos, ProtocolPaxos, ProtocolEPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			c, err := NewCluster(Options{N: 5, Protocol: p, RelayGroups: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cl, err := c.Client()
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Put(1, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := cl.Get(1)
			if err != nil || !ok || string(v) != "hello" {
				t.Fatalf("get: %q %v %v", v, ok, err)
			}
			found, err := cl.Delete(1)
			if err != nil || !found {
				t.Fatalf("delete: %v %v", found, err)
			}
			_, ok, err = cl.Get(1)
			if err != nil || ok {
				t.Fatalf("get after delete: %v %v", ok, err)
			}
		})
	}
}

func TestClusterGetMissing(t *testing.T) {
	c, err := NewCluster(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	_, ok, err := cl.Get(424242)
	if err != nil || ok {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	c, err := NewCluster(Options{N: 5, RelayGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := c.Client()
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 25; i++ {
				key := uint64(g*1000 + i)
				if err := cl.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					errs <- err
					return
				}
				if _, ok, err := cl.Get(key); err != nil || !ok {
					errs <- fmt.Errorf("get %d: ok=%v err=%v", key, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClusterReplicasConverge(t *testing.T) {
	c, err := NewCluster(Options{N: 5, RelayGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	for i := 0; i < 30; i++ {
		if err := cl.Put(uint64(i%5), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Commit watermarks ride on heartbeats; allow them to flush.
	deadline := time.Now().Add(3 * time.Second)
	for {
		applied := c.StoreApplied()
		all := true
		for _, a := range applied {
			if a != applied[0] {
				all = false
			}
		}
		if all && applied[0] >= 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %v", applied)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sums := c.StoreChecksums()
	for _, s := range sums[1:] {
		if s != sums[0] {
			t.Fatalf("replica state diverged: %v", sums)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Options{N: 3, RelayGroups: 3}); err == nil {
		t.Error("relay groups ≥ N must be rejected")
	}
}

func TestParseProtocol(t *testing.T) {
	for s, want := range map[string]Protocol{
		"pigpaxos": ProtocolPigPaxos, "pig": ProtocolPigPaxos,
		"paxos": ProtocolPaxos, "multipaxos": ProtocolPaxos,
		"epaxos": ProtocolEPaxos,
	} {
		got, err := ParseProtocol(s)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseProtocol("raft"); err == nil {
		t.Error("unknown protocol must error")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolPigPaxos.String() != "pigpaxos" || ProtocolPaxos.String() != "paxos" || ProtocolEPaxos.String() != "epaxos" {
		t.Error("protocol names wrong")
	}
}

func TestClusterLeaderFailover(t *testing.T) {
	c, err := NewCluster(Options{
		N: 5, RelayGroups: 2,
		ElectionTimeout: 150 * time.Millisecond,
		RelayTimeout:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	cl.SetTimeout(10 * time.Second)
	if err := cl.Put(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := c.StopNode(c.Leader()); err != nil {
		t.Fatal(err)
	}
	// The next operation must succeed via the newly elected leader.
	if err := cl.Put(2, []byte("after")); err != nil {
		t.Fatalf("put after leader crash: %v", err)
	}
	v, ok, err := cl.Get(2)
	if err != nil || !ok || string(v) != "after" {
		t.Fatalf("get after failover: %q %v %v", v, ok, err)
	}
}

func TestClusterQuorumRead(t *testing.T) {
	c, err := NewCluster(Options{N: 5, RelayGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	if err := cl.Put(7, []byte("pqr-value")); err != nil {
		t.Fatal(err)
	}
	// Commit watermarks need a heartbeat to reach a majority of stores.
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, ok, err := cl.QuorumRead(7)
		if err == nil && ok && string(v) == "pqr-value" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quorum read: %q %v %v", v, ok, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Missing keys read cleanly too.
	_, ok, err := cl.QuorumRead(424242)
	if err != nil || ok {
		t.Fatalf("missing quorum read: ok=%v err=%v", ok, err)
	}
}

// A quorum read that timed out must not hand its late result to the next
// one: each read waits on its own result.
func TestClusterQuorumReadAfterTimeout(t *testing.T) {
	c, err := NewCluster(Options{N: 5, RelayGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	if err := cl.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // commit watermarks reach the followers
	cl.SetTimeout(time.Nanosecond)
	if _, _, err := cl.QuorumRead(1); err == nil {
		t.Fatal("a quorum read under a 1 ns timeout succeeded")
	}
	time.Sleep(200 * time.Millisecond) // the timed-out read completes meanwhile
	cl.SetTimeout(5 * time.Second)
	v, ok, err := cl.QuorumRead(2)
	if err != nil || !ok || string(v) != "two" {
		t.Fatalf("quorum read of key 2: %q %v %v", v, ok, err)
	}
}

func TestClusterLeaseReads(t *testing.T) {
	c, err := NewCluster(Options{N: 5, RelayGroups: 2, ReadMode: ReadLease})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	if err := cl.Put(3, []byte("leased")); err != nil {
		t.Fatal(err)
	}
	// Heartbeat acks establish the lease within ~2 intervals.
	time.Sleep(100 * time.Millisecond)
	v, ok, err := cl.Get(3)
	if err != nil || !ok || string(v) != "leased" {
		t.Fatalf("lease read: %q %v %v", v, ok, err)
	}
}

// Leader must report the actual current leader, not a hardcoded node: after
// crashing it, polling must converge on a different live node (the
// regression test for the old `return 1` stub).
func TestClusterLeaderTracksFailover(t *testing.T) {
	c, err := NewCluster(Options{
		N: 5, RelayGroups: 2,
		ElectionTimeout: 150 * time.Millisecond,
		RelayTimeout:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// NewCluster waits for every Start() to run, not for the first election
	// to finish: poll for the first leader.
	old := c.Leader()
	for deadline := time.Now().Add(5 * time.Second); old == 0 && time.Now().Before(deadline); old = c.Leader() {
		time.Sleep(5 * time.Millisecond)
	}
	if old == 0 {
		t.Fatal("no leader reported on a healthy cluster")
	}
	if err := c.StopNode(old); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l := c.Leader(); l != 0 && l != old {
			return // a different live node took over
		}
		if time.Now().After(deadline) {
			t.Fatalf("Leader() still reports %d after crashing it", c.Leader())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// EPaxos has no leader: Leader names a live member that accepts commands,
// never a stopped one.
func TestClusterEPaxosLeaderIsLive(t *testing.T) {
	c, err := NewCluster(Options{N: 5, Protocol: ProtocolEPaxos})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := c.Leader()
	if first == 0 {
		t.Fatal("no stand-in leader on a healthy EPaxos cluster")
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() { // Leader may be asked while a node stops
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				c.Leader()
			}
		}
	}()
	err = c.StopNode(first)
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	if l := c.Leader(); l == 0 || l == first {
		t.Fatalf("Leader() = %d after stopping node %d", l, first)
	}
}

// Close must stop every goroutine the cluster and its clients started.
func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := NewCluster(Options{N: 5, RelayGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := cl.Put(1, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewCluster", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Client after Close must fail rather than hand out a client whose node
// nobody closes: it would leak its goroutines and wait out every timeout.
func TestClusterClientAfterCloseFails(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := NewCluster(Options{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Client(); err == nil {
		t.Fatal("Client() after Close returned no error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close and Client, %d before NewCluster", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// SetTimeout(0) restores the default timeout: a client whose leader dies
// must leave it for the new leader instead of waiting on it forever.
func TestClientZeroTimeoutFailsOver(t *testing.T) {
	c, err := NewCluster(Options{N: 3, ElectionTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	if err := cl.Put(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	cl.SetTimeout(0)
	if err := c.StopNode(c.Leader()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Put(2, []byte("after")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("put after leader crash: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("put after leader crash under SetTimeout(0) has not returned after 8s")
	}
}

// A sharded cluster must serve the full KV surface, routing by key across
// independent groups, each with its own leader.
func TestShardedClusterPutGetDelete(t *testing.T) {
	for _, p := range []Protocol{ProtocolPigPaxos, ProtocolPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			c, err := NewCluster(Options{N: 12, Protocol: p, Shards: 4, RelayGroups: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Shards() != 4 {
				t.Fatalf("Shards() = %d, want 4", c.Shards())
			}
			cl, err := c.Client()
			if err != nil {
				t.Fatal(err)
			}
			// Enough keys to hit every shard with overwhelming probability.
			for k := uint64(0); k < 32; k++ {
				if err := cl.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
					t.Fatalf("put %d: %v", k, err)
				}
			}
			for k := uint64(0); k < 32; k++ {
				v, ok, err := cl.Get(k)
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", k) {
					t.Fatalf("get %d: %q %v %v", k, v, ok, err)
				}
			}
			found, err := cl.Delete(5)
			if err != nil || !found {
				t.Fatalf("delete: %v %v", found, err)
			}
			if _, ok, _ := cl.Get(5); ok {
				t.Fatal("key survived delete")
			}
			// Every shard must report a leader; leaders must cover more
			// than one distinct node.
			distinct := map[int]bool{}
			for k := 0; k < c.Shards(); k++ {
				l := c.ShardLeader(k)
				if l == 0 {
					t.Fatalf("shard %d has no leader", k)
				}
				distinct[l] = true
			}
			if len(distinct) < 2 {
				t.Fatalf("all shards led by one node: %v", distinct)
			}
		})
	}
}

// Crashing one shard's leader must not disturb the other shards, and the
// touched shard must fail over.
func TestShardedClusterLeaderFailover(t *testing.T) {
	c, err := NewCluster(Options{
		N: 12, Shards: 4, RelayGroups: 2,
		ElectionTimeout: 150 * time.Millisecond,
		RelayTimeout:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	cl.SetTimeout(10 * time.Second)
	for k := uint64(0); k < 16; k++ {
		if err := cl.Put(k, []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.ShardLeader(2)
	if victim == 0 {
		t.Fatal("shard 2 has no leader")
	}
	others := map[int]int{}
	for k := 0; k < 4; k++ {
		if k != 2 {
			others[k] = c.ShardLeader(k)
		}
	}
	if err := c.StopNode(victim); err != nil {
		t.Fatal(err)
	}
	// All keys must still be writable — shard 2 via its new leader.
	for k := uint64(0); k < 16; k++ {
		if err := cl.Put(k, []byte("after")); err != nil {
			t.Fatalf("put %d after shard-leader crash: %v", k, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l := c.ShardLeader(2); l != 0 && l != victim {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 2 still led by crashed node %d", victim)
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Untouched shards keep their leaders.
	for k, want := range others {
		if got := c.ShardLeader(k); got != want {
			t.Errorf("shard %d leader moved %d -> %d though its leader never crashed", k, want, got)
		}
	}
}

// Quorum reads route to the owning shard's members.
func TestShardedClusterQuorumRead(t *testing.T) {
	c, err := NewCluster(Options{N: 12, Shards: 4, RelayGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	for k := uint64(0); k < 8; k++ {
		if err := cl.Put(k, []byte(fmt.Sprintf("q%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 8; k++ {
		deadline := time.Now().Add(3 * time.Second)
		for {
			v, ok, err := cl.QuorumRead(k)
			if err == nil && ok && string(v) == fmt.Sprintf("q%d", k) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("quorum read %d: %q %v %v", k, v, ok, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// Per-shard convergence: each shard's members agree on their store.
func TestShardedClusterConverges(t *testing.T) {
	c, err := NewCluster(Options{N: 12, Shards: 4, RelayGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.Client()
	for i := 0; i < 40; i++ {
		if err := cl.Put(uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for k := 0; k < c.Shards(); k++ {
		for {
			sums := c.ShardStoreChecksums(k)
			same := true
			for _, s := range sums[1:] {
				if s != sums[0] {
					same = false
				}
			}
			if same {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d replicas diverged: %v", k, sums)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// Sharding requires a leader; EPaxos must be rejected.
func TestShardedClusterValidation(t *testing.T) {
	if _, err := NewCluster(Options{N: 12, Shards: 4, Protocol: ProtocolEPaxos}); err == nil {
		t.Error("sharded EPaxos must be rejected")
	}
	// RelayGroups larger than a shard's group is clamped, not an error.
	c, err := NewCluster(Options{N: 12, Shards: 4, RelayGroups: 5})
	if err != nil {
		t.Fatalf("clampable relay groups rejected: %v", err)
	}
	c.Close()
}
