package cluster

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
)

func TestParseAddrsRoundTrip(t *testing.T) {
	in := "1.1=127.0.0.1:7001,1.2=127.0.0.1:7002,1.3=127.0.0.1:7003"
	addrs, members, err := ParseAddrs(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 || members[0] != ids.NewID(1, 1) || members[2] != ids.NewID(1, 3) {
		t.Fatalf("members = %v", members)
	}
	if got := FormatAddrs(addrs); got != in {
		t.Fatalf("round trip: %q != %q", got, in)
	}
}

func TestParseAddrsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "1.1", "x=127.0.0.1:7001", "1.1=a,1.1=b"} {
		if _, _, err := ParseAddrs(bad); err == nil {
			t.Errorf("ParseAddrs(%q) accepted garbage", bad)
		}
	}
}

func TestFreePortsDistinct(t *testing.T) {
	ports, err := FreePorts(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range ports {
		if p <= 0 || seen[p] {
			t.Fatalf("bad port set %v", ports)
		}
		seen[p] = true
	}
}

// TestInProcPutGetRedirect boots a real 3-node TCP paxos cluster in-process,
// waits for readiness, and runs the client path against a follower first so
// the redirect machinery is exercised.
func TestInProcPutGetRedirect(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	c, err := StartInProc(InProcSpec{N: 3, Protocol: "paxos"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := WaitReady(c.Addrs, c.Members, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Aim at the highest ID: a follower, so the first op must redirect.
	cl := NewSyncClient(c.Addrs, c.Members[2], 1, 5*time.Second)
	defer cl.Close()
	rep, err := cl.Put(7, []byte("metal"))
	if err != nil || !rep.OK {
		t.Fatalf("put: %v %+v", err, rep)
	}
	if cl.Redirects == 0 {
		t.Error("follower-targeted put did not traverse a redirect")
	}
	if cl.Target() != c.Members[0] {
		t.Errorf("client should now stick to the leader, targets %v", cl.Target())
	}
	rep, err = cl.Get(7)
	if err != nil || !rep.OK || !rep.Exists || string(rep.Value) != "metal" {
		t.Fatalf("get: %v %+v", err, rep)
	}
	rep, err = cl.Delete(7)
	if err != nil || !rep.OK {
		t.Fatalf("delete: %v %+v", err, rep)
	}
	rep, err = cl.Get(7)
	if err != nil || !rep.OK || rep.Exists {
		t.Fatalf("get after delete: %v %+v", err, rep)
	}
}

// TestInProcFirstElectionWins: every member knows every address before any
// replica starts, so the initial leader's first phase 1 reaches its peers
// and no re-bid is needed.
func TestInProcFirstElectionWins(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	for i := 0; i < 5; i++ {
		c, err := StartInProc(InProcSpec{N: 5, Protocol: "paxos"})
		if err != nil {
			t.Fatal(err)
		}
		if err := WaitReady(c.Addrs, c.Members, 10*time.Second); err != nil {
			c.Close()
			t.Fatal(err)
		}
		st, ok := c.Stats(c.Members[0])
		c.Close()
		if !ok {
			t.Fatal("no stats from the leader")
		}
		if st.Elections != 1 {
			t.Fatalf("cluster %d: the initial leader ran %d elections, want 1", i, st.Elections)
		}
	}
}
