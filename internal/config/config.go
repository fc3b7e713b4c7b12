// Package config describes cluster membership and network topology for both
// the simulated and live substrates: which nodes exist, which zone (region)
// each lives in, inter-zone latencies, and how PigPaxos relay groups are laid
// out over the membership.
package config

import (
	"fmt"
	"sort"
	"time"

	"pigpaxos/internal/ids"
)

// Cluster describes a deployment's membership and topology.
type Cluster struct {
	// Nodes lists every member in a stable order.
	Nodes []ids.ID
	// Zones maps each node to its zone; defaults to ID.Zone() when nil.
	Zones map[ids.ID]int
	// Latency models the one-way network delay between two zones.
	Latency LatencyModel
	// Addrs maps node IDs to host:port addresses for the live TCP
	// transport. Unused by the simulator.
	Addrs map[ids.ID]string
	// Shards is the number of independent consensus groups the key space
	// is partitioned across. Zero and one both mean a single unsharded
	// group; above one, chaos.Validate holds each shard of
	// shard.Plan(c, Shards) to its own majority.
	Shards int
}

// LatencyModel yields the one-way delay between two zones.
type LatencyModel interface {
	OneWay(fromZone, toZone int) time.Duration
}

// LinkProfile describes one zone pair's link beyond propagation delay: the
// jitter and loss real WAN paths carry. The zero value is a perfect link.
type LinkProfile struct {
	// OneWay, when positive, overrides the latency model's propagation
	// delay for the pair.
	OneWay time.Duration
	// Jitter adds uniform random [0, Jitter) to each message's delay,
	// drawn from the simulation RNG.
	Jitter time.Duration
	// Loss drops each message with this probability (0..1).
	Loss float64
}

// ProfileModel is an optional LatencyModel extension carrying per-zone-pair
// link profiles. The network simulator consults it so WAN jitter and loss
// are properties of the topology, not global knobs.
type ProfileModel interface {
	Profile(fromZone, toZone int) LinkProfile
}

// UniformLatency is a LAN-style model: a single one-way delay between any
// two distinct nodes and a near-zero loopback.
type UniformLatency struct {
	Delay time.Duration
}

// OneWay implements LatencyModel.
func (u UniformLatency) OneWay(a, b int) time.Duration { return u.Delay }

// ZoneMatrixLatency is a WAN model: a symmetric matrix of one-way delays
// between zones, with an intra-zone delay for node pairs sharing a zone.
type ZoneMatrixLatency struct {
	IntraZone time.Duration
	// InterZone[a][b] is the one-way delay from zone a to zone b; zones
	// are 1-based, missing entries fall back to Default.
	InterZone map[int]map[int]time.Duration
	Default   time.Duration
	// Profiles[a][b] optionally attaches jitter/loss to the a→b pair, with
	// the same symmetric fallback as InterZone. Intra carries the
	// intra-zone profile. Absent entries mean perfect links, so a matrix
	// without profiles behaves exactly as before they existed.
	Profiles map[int]map[int]LinkProfile
	Intra    LinkProfile
}

// OneWay implements LatencyModel.
func (z ZoneMatrixLatency) OneWay(a, b int) time.Duration {
	if a == b {
		return z.IntraZone
	}
	if m, ok := z.InterZone[a]; ok {
		if d, ok := m[b]; ok {
			return d
		}
	}
	if m, ok := z.InterZone[b]; ok { // symmetric fallback
		if d, ok := m[a]; ok {
			return d
		}
	}
	return z.Default
}

// Profile implements ProfileModel with the same asymmetric-entry lookup and
// symmetric fallback as OneWay.
func (z ZoneMatrixLatency) Profile(a, b int) LinkProfile {
	if a == b {
		return z.Intra
	}
	if m, ok := z.Profiles[a]; ok {
		if p, ok := m[b]; ok {
			return p
		}
	}
	if m, ok := z.Profiles[b]; ok { // symmetric fallback
		if p, ok := m[a]; ok {
			return p
		}
	}
	return LinkProfile{}
}

// NewLAN builds an n-node single-zone cluster with the paper's LAN profile
// (EC2 same-AZ one-way delay ≈ 125µs, i.e. 0.25ms RTT).
func NewLAN(n int) Cluster {
	nodes := make([]ids.ID, 0, n)
	for i := 1; i <= n; i++ {
		nodes = append(nodes, ids.NewID(1, i))
	}
	return Cluster{
		Nodes:   nodes,
		Latency: UniformLatency{Delay: 125 * time.Microsecond},
	}
}

// WAN region indices for NewWAN3, mirroring the paper's Figure 9 deployment.
const (
	ZoneVirginia   = 1
	ZoneCalifornia = 2
	ZoneOregon     = 3
)

// NewWAN3 builds a cluster of n nodes spread round-robin over three zones
// (Virginia, California, Oregon) with representative one-way inter-region
// delays: Virginia↔California ≈ 31ms, Virginia↔Oregon ≈ 35ms,
// California↔Oregon ≈ 10ms (one-way halves of typical RTTs).
func NewWAN3(n int) Cluster {
	nodes := make([]ids.ID, 0, n)
	perZone := make(map[int]int)
	for i := 0; i < n; i++ {
		zone := i%3 + 1
		perZone[zone]++
		nodes = append(nodes, ids.NewID(zone, perZone[zone]))
	}
	return Cluster{
		Nodes: nodes,
		Latency: ZoneMatrixLatency{
			IntraZone: 125 * time.Microsecond,
			InterZone: map[int]map[int]time.Duration{
				ZoneVirginia: {
					ZoneCalifornia: 31 * time.Millisecond,
					ZoneOregon:     35 * time.Millisecond,
				},
				ZoneCalifornia: {
					ZoneOregon: 10 * time.Millisecond,
				},
			},
			Default: 40 * time.Millisecond,
		},
	}
}

// NewWAN3Lossy is NewWAN3 with imperfect links: every inter-region pair
// carries representative jitter and loss (long-haul paths wobble by a couple
// of milliseconds and drop a fraction of a percent of packets), intra-zone
// paths a much smaller dose. Protocol retransmits and client retries must
// mask the losses, so only fault-tolerant scenarios should use it.
func NewWAN3Lossy(n int) Cluster {
	c := NewWAN3(n)
	m := c.Latency.(ZoneMatrixLatency)
	m.Profiles = map[int]map[int]LinkProfile{
		ZoneVirginia: {
			ZoneCalifornia: {Jitter: 2 * time.Millisecond, Loss: 0.003},
			ZoneOregon:     {Jitter: 2500 * time.Microsecond, Loss: 0.004},
		},
		ZoneCalifornia: {
			ZoneOregon: {Jitter: time.Millisecond, Loss: 0.002},
		},
	}
	m.Intra = LinkProfile{Jitter: 50 * time.Microsecond, Loss: 0.0005}
	c.Latency = m
	return c
}

// N returns the cluster size.
func (c Cluster) N() int { return len(c.Nodes) }

// ZoneOf returns the zone a node belongs to.
func (c Cluster) ZoneOf(id ids.ID) int {
	if c.Zones != nil {
		if z, ok := c.Zones[id]; ok {
			return z
		}
	}
	return id.Zone()
}

// OneWay returns the modeled one-way delay between two nodes.
func (c Cluster) OneWay(from, to ids.ID) time.Duration {
	if c.Latency == nil {
		return 0
	}
	return c.Latency.OneWay(c.ZoneOf(from), c.ZoneOf(to))
}

// LinkProfileBetween returns the link profile between two nodes' zones, or
// the zero profile when the latency model carries none.
func (c Cluster) LinkProfileBetween(from, to ids.ID) LinkProfile {
	if pm, ok := c.Latency.(ProfileModel); ok {
		return pm.Profile(c.ZoneOf(from), c.ZoneOf(to))
	}
	return LinkProfile{}
}

// ZoneList returns the distinct zones of the membership in ascending order.
func (c Cluster) ZoneList() []int {
	seen := make(map[int]bool)
	var out []int
	for _, n := range c.Nodes {
		if z := c.ZoneOf(n); !seen[z] {
			seen[z] = true
			out = append(out, z)
		}
	}
	sort.Ints(out)
	return out
}

// ZoneNodes returns the members of zone z in membership order.
func (c Cluster) ZoneNodes(z int) []ids.ID {
	var out []ids.ID
	for _, n := range c.Nodes {
		if c.ZoneOf(n) == z {
			out = append(out, n)
		}
	}
	return out
}

// RegionSides splits the membership into (zone z, everyone else) — the two
// sides of a region partition.
func (c Cluster) RegionSides(z int) (in, out []ids.ID) {
	for _, n := range c.Nodes {
		if c.ZoneOf(n) == z {
			in = append(in, n)
		} else {
			out = append(out, n)
		}
	}
	return in, out
}

// Peers returns every node except self.
func (c Cluster) Peers(self ids.ID) []ids.ID {
	out := make([]ids.ID, 0, len(c.Nodes)-1)
	for _, n := range c.Nodes {
		if n != self {
			out = append(out, n)
		}
	}
	return out
}

// Contains reports whether id is a member.
func (c Cluster) Contains(id ids.ID) bool {
	for _, n := range c.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// Validate checks the configuration for internal consistency.
func (c Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("config: empty cluster")
	}
	if c.Shards < 0 {
		return fmt.Errorf("config: negative shard count %d", c.Shards)
	}
	seen := make(map[ids.ID]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.IsZero() {
			return fmt.Errorf("config: zero node ID")
		}
		if seen[n] {
			return fmt.Errorf("config: duplicate node %v", n)
		}
		seen[n] = true
	}
	return nil
}

// GroupLayout partitions a leader's followers into PigPaxos relay groups.
type GroupLayout struct {
	// Groups[i] lists the followers in relay group i. Groups are disjoint
	// and together cover all followers.
	Groups [][]ids.ID
}

// NumGroups returns the number of relay groups.
func (g GroupLayout) NumGroups() int { return len(g.Groups) }

// GroupOf returns the index of the group containing id, or -1.
func (g GroupLayout) GroupOf(id ids.ID) int {
	for i, grp := range g.Groups {
		for _, m := range grp {
			if m == id {
				return i
			}
		}
	}
	return -1
}

// Validate checks that groups are non-empty, disjoint, and exactly cover
// the given follower set.
func (g GroupLayout) Validate(followers []ids.ID) error {
	want := make(map[ids.ID]bool, len(followers))
	for _, f := range followers {
		want[f] = true
	}
	seen := make(map[ids.ID]bool)
	for i, grp := range g.Groups {
		if len(grp) == 0 {
			return fmt.Errorf("config: relay group %d is empty", i)
		}
		for _, m := range grp {
			if !want[m] {
				return fmt.Errorf("config: node %v in group %d is not a follower", m, i)
			}
			if seen[m] {
				return fmt.Errorf("config: node %v appears in multiple groups", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("config: groups cover %d of %d followers", len(seen), len(want))
	}
	return nil
}

// EvenGroups partitions followers into r groups of near-equal size,
// preserving follower order (a hash-like static grouping, §3.2).
func EvenGroups(followers []ids.ID, r int) (GroupLayout, error) {
	if r <= 0 || r > len(followers) {
		return GroupLayout{}, fmt.Errorf("config: cannot split %d followers into %d groups", len(followers), r)
	}
	groups := make([][]ids.ID, r)
	base, extra := len(followers)/r, len(followers)%r
	idx := 0
	for i := 0; i < r; i++ {
		sz := base
		if i < extra {
			sz++
		}
		groups[i] = append([]ids.ID(nil), followers[idx:idx+sz]...)
		idx += sz
	}
	return GroupLayout{Groups: groups}, nil
}

// ZoneGroups partitions followers into one relay group per zone (§6.4: in
// geo-distributed setups a natural grouping assigns all nodes of a region to
// one relay group, so only one message crosses the WAN per region). Groups
// come out in ascending zone order, each in follower order.
func ZoneGroups(c Cluster, followers []ids.ID) GroupLayout {
	byZone := make(map[int][]ids.ID)
	var order []int
	for _, f := range followers {
		z := c.ZoneOf(f)
		if _, ok := byZone[z]; !ok {
			order = append(order, z)
		}
		byZone[z] = append(byZone[z], f)
	}
	sort.Ints(order)
	groups := make([][]ids.ID, 0, len(order))
	for _, z := range order {
		groups = append(groups, byZone[z])
	}
	return GroupLayout{Groups: groups}
}
