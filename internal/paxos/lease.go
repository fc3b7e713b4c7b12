package paxos

import (
	"time"

	"pigpaxos/internal/wire"
)

// leaseDuration is how long a majority of heartbeat acks entitles the leader
// to serve local reads under ReadLease. Followers refuse to campaign within
// their promise window, so a partitioned old leader's lease always expires
// before a new leader can commit writes.
func (c *Config) leaseDuration() time.Duration { return 4 * c.HeartbeatInterval }

// leaseValid (the leader's half of the lease; the follower's promise is in
// OnHeartbeat) reports whether a majority of the cluster (counting this
// leader) acknowledged a heartbeat within the lease window.
func (r *Replica) leaseValid() bool {
	if !r.active {
		return false
	}
	now := r.ctx.Now()
	fresh := 1 // self
	for _, at := range r.ackTimes {
		if now-at < r.cfg.leaseDuration() {
			fresh++
		}
	}
	return fresh >= r.majority
}

// OnHeartbeatAck records a follower's lease acknowledgment.
func (r *Replica) OnHeartbeatAck(m wire.HeartbeatAck) {
	if m.Ballot != r.ballot || !r.active {
		return
	}
	r.ackTimes[m.From] = r.ctx.Now()
}
