package chaos

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
)

// shardRes is a StaticResolver that also answers shard placements.
type shardRes struct {
	StaticResolver
	campaigned []int // shards asked to flip
	standby    ids.ID
}

func (s *shardRes) CampaignShardFrom(shard, zone int) ids.ID {
	s.campaigned = append(s.campaigned, shard)
	return s.standby
}

func TestInjectorCrashShardLeader(t *testing.T) {
	sim, net, cc := testNet(6, 1)
	res := &shardRes{StaticResolver: StaticResolver{Leaders: []ids.ID{cc.Nodes[0], cc.Nodes[3]}}}
	in := Apply(sim, net, ShardLeaderCrash(1, 5*time.Millisecond, 10*time.Millisecond), res)
	sim.Run(8 * time.Millisecond)
	if !net.Crashed(cc.Nodes[3]) {
		t.Fatal("shard 1's leader not crashed")
	}
	if net.Crashed(cc.Nodes[0]) {
		t.Fatal("shard 0's leader crashed — wrong shard resolved")
	}
	sim.Run(30 * time.Millisecond)
	if net.Crashed(cc.Nodes[3]) {
		t.Fatal("victim not recovered")
	}
	log := in.Log()
	if len(log) != 2 || log[0].Kind != CrashShardLeader || log[1].Kind != Recover {
		t.Fatalf("fault log = %v", log)
	}
	if log[0].Shard != 1 || log[1].Shard != 1 {
		t.Fatalf("fault log must attribute shard 1: %v", log)
	}
	if log[0].Target != cc.Nodes[3] {
		t.Fatalf("fault log target = %v, want %v", log[0].Target, cc.Nodes[3])
	}
}

func TestInjectorSkipsShardCrashWithoutResolver(t *testing.T) {
	sim, net, _ := testNet(3, 1)
	// A resolver that knows no shard leader cannot answer.
	in := Apply(sim, net, ShardLeaderCrash(0, time.Millisecond, time.Millisecond), StaticResolver{})
	sim.RunUntilIdle()
	if len(in.Log()) != 0 {
		t.Fatalf("unresolvable shard crash executed: %v", in.Log())
	}
}

func TestInjectorShardFlip(t *testing.T) {
	sim, net, cc := testNet(6, 1)
	res := &shardRes{standby: cc.Nodes[4]}
	in := Apply(sim, net, ShardFlip(2, 0, time.Millisecond), res)
	sim.RunUntilIdle()
	if len(res.campaigned) != 1 || res.campaigned[0] != 2 {
		t.Fatalf("campaigned shards = %v, want [2]", res.campaigned)
	}
	log := in.Log()
	if len(log) != 1 || log[0].Kind != ShardPlacementFlip || log[0].Shard != 2 || log[0].Target != cc.Nodes[4] {
		t.Fatalf("fault log = %v", log)
	}
}

func TestNonShardActionsLogShardMinusOne(t *testing.T) {
	sim, net, cc := testNet(3, 1)
	in := Apply(sim, net, NodeCrash(cc.Nodes[0], time.Millisecond, time.Millisecond), nil)
	sim.RunUntilIdle()
	for _, a := range in.Log() {
		if a.Shard != -1 {
			t.Fatalf("non-shard action logged shard %d, want -1: %v", a.Shard, a)
		}
	}
}

func TestValidateShardLeaderCrash(t *testing.T) {
	// Self-healing shard crashes are bounded crashes.
	if err := Validate(ShardLeaderCrash(1, 10*time.Millisecond, 20*time.Millisecond), config.NewLAN(5), time.Second); err != nil {
		t.Fatalf("bounded shard crash rejected: %v", err)
	}
	// Dynamic targets must self-heal.
	if err := Validate(Schedule{{At: 0, Action: Action{Kind: CrashShardLeader, Shard: 1}}}, config.NewLAN(5), time.Second); err == nil {
		t.Fatal("non-healing shard crash accepted")
	}
}
