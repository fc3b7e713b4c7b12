package main

import (
	"strings"
	"testing"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/protocol"
)

// TestDoFollowsRedirectFromFollower aims the client's first request at a
// follower of a real TCP cluster and checks the redirect is followed, the
// op commits, and later ops go straight to the leader (stickiness).
func TestDoFollowsRedirectFromFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	c, err := cluster.StartInProc(3, 1, protocol.Spec{Kind: protocol.Paxos})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := cluster.WaitReady(c.Addrs, c.Members, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	follower := c.Members[2]
	sc := cluster.NewSyncClient(c.Addrs, follower, 51, 5*time.Second)
	defer sc.Close()

	rep, err := do(sc, c.Addrs, kvstore.Command{Op: kvstore.Put, Key: hashKey("k"), Value: []byte("v")})
	if err != nil || !rep.OK {
		t.Fatalf("put via follower: %v %+v", err, rep)
	}
	if sc.Redirects == 0 {
		t.Error("put against a follower committed without a redirect")
	}
	if sc.Target() != c.Members[0] {
		t.Errorf("client should stick to the leader %v, targets %v", c.Members[0], sc.Target())
	}

	before := sc.Redirects
	rep, err = do(sc, c.Addrs, kvstore.Command{Op: kvstore.Get, Key: hashKey("k")})
	if err != nil || !rep.OK || string(rep.Value) != "v" {
		t.Fatalf("get after redirect: %v %+v", err, rep)
	}
	if sc.Redirects != before {
		t.Errorf("sticky leader still redirected (%d → %d)", before, sc.Redirects)
	}
}

// TestDoErrorsOnUnknownLeaderAddr strips the leader from the client's
// address book: the redirect must surface as an error naming the leader,
// not a silent 5s timeout.
func TestDoErrorsOnUnknownLeaderAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	c, err := cluster.StartInProc(3, 1, protocol.Spec{Kind: protocol.Paxos})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := cluster.WaitReady(c.Addrs, c.Members, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	partial := map[ids.ID]string{} // follower only — no leader route
	follower := c.Members[2]
	partial[follower] = c.Addrs[follower]
	sc := cluster.NewSyncClient(partial, follower, 52, 5*time.Second)
	defer sc.Close()

	start := time.Now()
	_, err = do(sc, partial, kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("v")})
	if err == nil {
		t.Fatal("put with unroutable leader must fail")
	}
	if msg := err.Error(); !strings.Contains(msg, c.Members[0].String()) || !strings.Contains(msg, "-cluster") {
		t.Errorf("error %q should name the leader %v and the -cluster flag", msg, c.Members[0])
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("unknown-leader error took %v; must fail fast, not time out", time.Since(start))
	}
}
