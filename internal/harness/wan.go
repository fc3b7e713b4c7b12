// WAN scenario configuration: the Figure 9 deployment (three regions,
// zone-aligned relay groups, clients homed in every region) packaged as a
// ScenarioOptions builder with timeouts scaled to WAN round trips. The
// pigbench WAN suite and the multi-region chaos tests both start from here,
// so "the Figure 9 cluster" means one thing across the repository.
package harness

import (
	"time"

	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
)

// WANScenario builds the Figure-9 scenario configuration: n nodes spread
// round-robin over Virginia/California/Oregon, one relay group per region,
// clientsPerRegion closed-loop clients homed in each region, and every
// timeout re-derived from WAN scale — LAN defaults (100ms client retries,
// 150ms elections) misfire when a commit costs a 62ms round trip before any
// queueing.
//
// The per-message CPU costs are raised from the LAN calibration's 10µs to
// 25µs (the paper's WAN instances are smaller than the m5a.large used for
// the LAN fleet), which is what separates the protocols at load: a 9-node
// Paxos leader pays 2(N−1) message costs per slot against PigPaxos's 2r, so
// the same offered load that saturates the Paxos leader leaves the PigPaxos
// leader headroom — Figure 9's latency gap.
func WANScenario(p Protocol, n, clientsPerRegion, opsPerClient int, seed int64) ScenarioOptions {
	o := ScenarioOptions{}
	o.Protocol = p
	o.N = n
	o.WAN = true
	o.ZoneGroups = true
	o.NumGroups = 3
	o.RegionClients = true
	o.Clients = 3 * clientsPerRegion
	o.OpsPerClient = opsPerClient
	o.ThinkTime = -1 // closed loop: Figure 9 measures under offered load
	o.Warmup = 500 * time.Millisecond
	o.Measure = 2 * time.Second
	o.Seed = seed
	o.Net = netsim.DefaultOptions()
	o.Net.SendCost = 25 * time.Microsecond
	o.Net.RecvCost = 25 * time.Microsecond

	// WAN-scale failure handling: retries and elections must sit well above
	// a loaded commit round trip or they fire on healthy slow paths.
	o.ClientRetry = 600 * time.Millisecond
	o.ElectionTimeout = 400 * time.Millisecond
	o.MutPaxos = func(c *paxos.Config) {
		c.RetryTimeout = 500 * time.Millisecond
	}
	o.MutPig = func(c *pigpaxos.Config) {
		// Relays wait on intra-region peers only (sub-millisecond), but
		// the leader's re-fan-out deadline spans two WAN hops.
		c.RelayTimeout = 50 * time.Millisecond
		c.Paxos.RetryTimeout = 400 * time.Millisecond
	}
	o.MutEPaxos = func(c *epaxos.Config) {
		// Retransmits and Explicit Prepare takeovers must sit above a
		// loaded WAN commit round trip, or they fire on healthy slow
		// paths and churn ballots.
		c.RetryTimeout = 400 * time.Millisecond
		c.RecoverTimeout = 800 * time.Millisecond
		c.SweepInterval = 100 * time.Millisecond
	}
	return o
}
