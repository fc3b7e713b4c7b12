package cluster

import (
	"maps"
	"slices"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/shard"
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

// TestParseFlagsRejectBadInput: the -id and -cluster flags reject IDs out of
// range, the reserved zero ID, trailing junk and addresses without a port.
func TestParseFlagsRejectBadInput(t *testing.T) {
	for _, id := range []string{"-1.70000", "0.0", "1.2x"} {
		if _, err := ParseID(id); err == nil {
			t.Errorf("ParseID(%q) accepted bad input", id)
		}
		if _, _, err := ParseAddrs(id + "=127.0.0.1:7001"); err == nil {
			t.Errorf("ParseAddrs(%q) accepted bad input", id+"=127.0.0.1:7001")
		}
	}
	for _, addr := range []string{"", "127.0.0.1"} {
		if _, _, err := ParseAddrs("1.1=" + addr); err == nil {
			t.Errorf("ParseAddrs(%q) accepted bad input", "1.1="+addr)
		}
	}
}

// FuzzParseAddrs: no -cluster argument panics the parser, and a list it
// accepts comes back unchanged through FormatAddrs and a second parse.
func FuzzParseAddrs(f *testing.F) {
	for _, s := range []string{
		"1.1=127.0.0.1:7001,1.2=127.0.0.1:7002", "1.1=:7001", "-1.70000=x",
		"0.0=127.0.0.1:7001", "1.2x=127.0.0.1:7001", "1.1=", " 1.1=[::1]:7001 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		addrs, members, err := ParseAddrs(s)
		if err != nil {
			return
		}
		out := FormatAddrs(addrs)
		addrs2, members2, err := ParseAddrs(out)
		if err != nil {
			t.Fatalf("ParseAddrs(%q) accepted, its FormatAddrs %q rejected: %v", s, out, err)
		}
		if !maps.Equal(addrs, addrs2) || !slices.Equal(members, members2) {
			t.Fatalf("round trip of %q through %q: %v %v, want %v %v", s, out, addrs2, members2, addrs, members)
		}
	})
}

func TestFreePortsDistinct(t *testing.T) {
	addrs, err := FreePorts(Members(5))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("bad address set %v", addrs)
		}
		seen[a] = true
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
		c, err := StartInProc(5, 1, protocol.Spec{Kind: protocol.Paxos})
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

// TestMemberPigserverBootAnswersQuorumReads boots members the way pigserver
// processes come up: every address is known before any member exists, and
// each starts as soon as it is built. The cluster must then serve writes,
// reads through the log, and Paxos Quorum Reads (§4.3), which need every
// member's responder.
func TestMemberPigserverBootAnswersQuorumReads(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster")
	}
	members := Members(3)
	addrs, err := FreePorts(members)
	if err != nil {
		t.Fatal(err)
	}
	plan := shard.Plan(config.Cluster{Nodes: members}, 1)
	tmpl := protocol.Spec{Kind: protocol.PigPaxos, Pig: pigpaxos.Config{NumGroups: 2}}
	for _, id := range members {
		m, err := NewMember(id, addrs[id], addrs, plan, tmpl, "")
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown(time.Second)
		m.Start()
	}
	if err := WaitReady(addrs, members, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cl := NewSyncClient(addrs, members[0], 1, 5*time.Second)
	defer cl.Close()
	if rep, err := cl.Put(7, []byte("metal")); err != nil || !rep.OK {
		t.Fatalf("put: %v %+v", err, rep)
	}
	if rep, err := cl.Get(7); err != nil || !rep.OK || string(rep.Value) != "metal" {
		t.Fatalf("get: %v %+v", err, rep)
	}
	if r, err := cl.QuorumRead(7); err != nil || !r.Exists || string(r.Value) != "metal" {
		t.Fatalf("quorum read: %v %+v", err, r)
	}
}

// TestMemberRejectsWALItCannotKeep: a member refuses a WAL directory it
// would leave unwritten (EPaxos has no journal) or could not lay out the way
// pigserver -wal-dir always has (one shard's journal per directory).
func TestMemberRejectsWALItCannotKeep(t *testing.T) {
	cc := config.Cluster{Nodes: Members(3)}
	for _, c := range []struct {
		kind   protocol.Kind
		shards int
	}{{protocol.EPaxos, 1}, {protocol.Paxos, 2}} {
		plan := shard.Plan(cc, c.shards)
		if _, err := NewMember(cc.Nodes[0], "127.0.0.1:0", nil, plan, protocol.Spec{Kind: c.kind}, t.TempDir()); err == nil {
			t.Errorf("%v over %d shards accepted a WAL directory", c.kind, c.shards)
		}
	}
}
