package harness

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/pqr"
	"pigpaxos/internal/wire"
)

// readingClient writes through a client.Session and reads through a
// pqr.Reader, both on one simulated endpoint.
type readingClient struct {
	client.Session
	reader *pqr.Reader
}

// OnMessage implements node.Handler.
func (c *readingClient) OnMessage(from ids.ID, m wire.Msg) {
	if rep, ok := m.(wire.QReadReply); ok {
		c.reader.OnReply(rep)
		return
	}
	c.Session.OnMessage(from, m)
}

// Paxos Quorum Reads (§4.3) on the simulator: every simulated replica
// answers version probes, so a quorum read issued after each acknowledged
// write returns that write, with every replica up and with a follower
// crashed halfway through. Followers hold a probe back until they executed
// the write, which they learn from the leader's next heartbeat when no later
// write carries the watermark (the leader is idle meanwhile), so each read
// completes within a heartbeat interval plus two round trips.
func TestQuorumReadsOnSimulator(t *testing.T) {
	const writes, key = 40, 7
	const hb = 20 * time.Millisecond
	for _, crash := range []bool{false, true} {
		o := short(t)
		o.Protocol = PigPaxos
		o.N = 5
		o.MutPig = func(c *pigpaxos.Config) { c.Paxos.HeartbeatInterval = hb }
		o.applyDefaults()
		d := deploy(&o, nil, nil)
		g := d.groups[0]
		c := &readingClient{}
		ep := d.net.Register(ids.NewID(d.cc.ZoneOf(g.Leader), 1000), c, true)
		c.Session = client.Session{Ctx: ep, ClientID: 1, Targets: g.targets, Target: g.targets[0], Window: 1}
		c.reader = pqr.New(ep, g.Members)

		acked, read := 0, 0
		var lat []time.Duration
		write := func() {
			c.Issue(kvstore.Command{Op: kvstore.Put, Key: key, Value: []byte(fmt.Sprint(acked))}, ep.Now())
		}
		c.Done = func(client.Op, wire.Reply) {
			acked++
			if crash && acked == writes/2 {
				d.net.Crash(g.Members[len(g.Members)-1])
			}
			issued := ep.Now()
			c.reader.Read(key, func(r pqr.Result) {
				read++
				lat = append(lat, ep.Now()-issued)
				if want := fmt.Sprint(acked - 1); r.Failed || !r.Exists || string(r.Value) != want {
					t.Errorf("crash=%v: read after write %d returned %+v, want value %q", crash, acked, r, want)
				}
				if acked < writes {
					write()
				}
			})
		}
		d.start()
		d.sim.Schedule(10*time.Millisecond, write)
		d.sim.Run(5 * time.Second)
		if read != writes {
			t.Errorf("crash=%v: %d of %d writes acknowledged and read back", crash, read, writes)
		}
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		bound := hb + 4*d.cc.OneWay(g.Leader, g.Members[1])
		if worst := lat[len(lat)-1]; worst > bound {
			t.Errorf("crash=%v: slowest read after its write's ack took %v, want ≤ %v (p50 %v)", crash, worst, bound, lat[len(lat)/2])
		}
	}
}
