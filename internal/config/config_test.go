package config

import (
	"testing"
	"testing/quick"
	"time"

	"pigpaxos/internal/ids"
)

func TestNewLAN(t *testing.T) {
	c := NewLAN(5)
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	d := c.OneWay(c.Nodes[0], c.Nodes[1])
	if d != 125*time.Microsecond {
		t.Errorf("LAN one-way = %v", d)
	}
}

func TestNewWAN3ZoneSpread(t *testing.T) {
	c := NewWAN3(15)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	zones := map[int]int{}
	for _, n := range c.Nodes {
		zones[c.ZoneOf(n)]++
	}
	if len(zones) != 3 {
		t.Fatalf("zones = %v, want 3 zones", zones)
	}
	for z, cnt := range zones {
		if cnt != 5 {
			t.Errorf("zone %d has %d nodes, want 5", z, cnt)
		}
	}
}

func TestWANLatencies(t *testing.T) {
	c := NewWAN3(6)
	va := ids.NewID(ZoneVirginia, 1)
	ca := ids.NewID(ZoneCalifornia, 1)
	or := ids.NewID(ZoneOregon, 1)
	va2 := ids.NewID(ZoneVirginia, 2)
	if d := c.OneWay(va, ca); d != 31*time.Millisecond {
		t.Errorf("VA→CA = %v", d)
	}
	if d := c.OneWay(ca, va); d != 31*time.Millisecond {
		t.Errorf("CA→VA must be symmetric, got %v", d)
	}
	if d := c.OneWay(or, ca); d != 10*time.Millisecond {
		t.Errorf("OR→CA = %v", d)
	}
	if d := c.OneWay(va, va2); d != 125*time.Microsecond {
		t.Errorf("intra-zone = %v", d)
	}
}

func TestZoneMatrixDefault(t *testing.T) {
	m := ZoneMatrixLatency{Default: time.Second}
	if m.OneWay(7, 9) != time.Second {
		t.Error("missing pair should use default")
	}
}

func TestPeers(t *testing.T) {
	c := NewLAN(4)
	p := c.Peers(c.Nodes[0])
	if len(p) != 3 {
		t.Fatalf("peers = %v", p)
	}
	for _, id := range p {
		if id == c.Nodes[0] {
			t.Error("self in peers")
		}
	}
}

func TestContains(t *testing.T) {
	c := NewLAN(3)
	if !c.Contains(c.Nodes[2]) {
		t.Error("member not found")
	}
	if c.Contains(ids.NewID(9, 9)) {
		t.Error("non-member found")
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	c := Cluster{Nodes: []ids.ID{ids.NewID(1, 1), ids.NewID(1, 1)}}
	if c.Validate() == nil {
		t.Error("duplicates must be rejected")
	}
	if (Cluster{}).Validate() == nil {
		t.Error("empty cluster must be rejected")
	}
	if (Cluster{Nodes: []ids.ID{0}}).Validate() == nil {
		t.Error("zero ID must be rejected")
	}
}

func TestEvenGroups(t *testing.T) {
	c := NewLAN(25)
	followers := c.Peers(c.Nodes[0]) // 24 followers
	g, err := EvenGroups(followers, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 3 {
		t.Fatalf("groups = %d", g.NumGroups())
	}
	for i, grp := range g.Groups {
		if len(grp) != 8 {
			t.Errorf("group %d has %d members, want 8", i, len(grp))
		}
	}
	if err := g.Validate(followers); err != nil {
		t.Error(err)
	}
}

func TestEvenGroupsUneven(t *testing.T) {
	c := NewLAN(10)
	followers := c.Peers(c.Nodes[0]) // 9 followers
	g, err := EvenGroups(followers, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, grp := range g.Groups {
		total += len(grp)
		if len(grp) < 2 || len(grp) > 3 {
			t.Errorf("group %d has %d members, not near-even", i, len(grp))
		}
	}
	if total != 9 {
		t.Errorf("total %d != 9", total)
	}
}

func TestEvenGroupsErrors(t *testing.T) {
	if _, err := EvenGroups([]ids.ID{1}, 2); err == nil {
		t.Error("more groups than followers must error")
	}
	if _, err := EvenGroups([]ids.ID{1, 2}, 0); err == nil {
		t.Error("zero groups must error")
	}
}

func TestGroupOf(t *testing.T) {
	g, _ := EvenGroups([]ids.ID{ids.NewID(1, 2), ids.NewID(1, 3), ids.NewID(1, 4)}, 2)
	if g.GroupOf(ids.NewID(1, 2)) != 0 {
		t.Error("1.2 should be in group 0")
	}
	if g.GroupOf(ids.NewID(9, 9)) != -1 {
		t.Error("non-member should be -1")
	}
}

func TestGroupLayoutValidateErrors(t *testing.T) {
	f := []ids.ID{ids.NewID(1, 2), ids.NewID(1, 3)}
	bad := GroupLayout{Groups: [][]ids.ID{{f[0]}, {}}}
	if bad.Validate(f) == nil {
		t.Error("empty group must be rejected")
	}
	dup := GroupLayout{Groups: [][]ids.ID{{f[0]}, {f[0]}}}
	if dup.Validate(f) == nil {
		t.Error("duplicated member must be rejected")
	}
	missing := GroupLayout{Groups: [][]ids.ID{{f[0]}}}
	if missing.Validate(f) == nil {
		t.Error("uncovered follower must be rejected")
	}
	alien := GroupLayout{Groups: [][]ids.ID{{ids.NewID(8, 8)}, {f[0], f[1]}}}
	if alien.Validate(f) == nil {
		t.Error("non-follower member must be rejected")
	}
}

func TestZoneGroups(t *testing.T) {
	c := NewWAN3(9)
	leader := c.Nodes[0]
	g := ZoneGroups(c, c.Peers(leader))
	if g.NumGroups() != 3 {
		t.Fatalf("zone groups = %d, want 3", g.NumGroups())
	}
	if err := g.Validate(c.Peers(leader)); err != nil {
		t.Error(err)
	}
	// Every group must be zone-pure.
	for i, grp := range g.Groups {
		z := c.ZoneOf(grp[0])
		for _, m := range grp {
			if c.ZoneOf(m) != z {
				t.Errorf("group %d mixes zones", i)
			}
		}
	}
}

// Property: EvenGroups always yields a valid partition whose sizes differ by
// at most one.
func TestEvenGroupsProperty(t *testing.T) {
	f := func(nRaw, rRaw uint8) bool {
		n := int(nRaw)%30 + 1
		r := int(rRaw)%n + 1
		c := NewLAN(n + 1)
		followers := c.Peers(c.Nodes[0])
		g, err := EvenGroups(followers, r)
		if err != nil {
			return false
		}
		if g.Validate(followers) != nil {
			return false
		}
		minS, maxS := len(g.Groups[0]), len(g.Groups[0])
		for _, grp := range g.Groups {
			s := len(grp)
			if s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
		}
		return maxS-minS <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Table-driven coverage of ZoneMatrixLatency's lookup rules: direct entries,
// the symmetric fallback for asymmetric matrices, the missing-pair default,
// and the intra-zone path.
func TestZoneMatrixLatencyLookupTable(t *testing.T) {
	m := ZoneMatrixLatency{
		IntraZone: 100 * time.Microsecond,
		InterZone: map[int]map[int]time.Duration{
			1: {2: 30 * time.Millisecond, 3: 35 * time.Millisecond},
			2: {3: 10 * time.Millisecond},
			4: {1: 70 * time.Millisecond}, // asymmetric: only 4→1 present
		},
		Default: 40 * time.Millisecond,
	}
	cases := []struct {
		name string
		a, b int
		want time.Duration
	}{
		{"direct entry", 1, 2, 30 * time.Millisecond},
		{"symmetric fallback", 2, 1, 30 * time.Millisecond},
		{"direct second row", 2, 3, 10 * time.Millisecond},
		{"symmetric fallback second row", 3, 2, 10 * time.Millisecond},
		{"asymmetric entry forward", 4, 1, 70 * time.Millisecond},
		{"asymmetric entry reversed", 1, 4, 70 * time.Millisecond},
		{"missing pair default", 3, 9, 40 * time.Millisecond},
		{"both zones unknown", 8, 9, 40 * time.Millisecond},
		{"intra-zone known", 1, 1, 100 * time.Microsecond},
		{"intra-zone unknown zone", 9, 9, 100 * time.Microsecond},
	}
	for _, tc := range cases {
		if got := m.OneWay(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: OneWay(%d,%d) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// Profile lookups follow the same rules as latencies: direct, symmetric
// fallback, zero-profile default, intra-zone.
func TestZoneMatrixProfileLookup(t *testing.T) {
	p12 := LinkProfile{Jitter: 2 * time.Millisecond, Loss: 0.01}
	m := ZoneMatrixLatency{
		Profiles: map[int]map[int]LinkProfile{1: {2: p12}},
		Intra:    LinkProfile{Jitter: 50 * time.Microsecond},
	}
	if got := m.Profile(1, 2); got != p12 {
		t.Errorf("direct profile = %+v", got)
	}
	if got := m.Profile(2, 1); got != p12 {
		t.Errorf("symmetric profile fallback = %+v", got)
	}
	if got := m.Profile(2, 3); got != (LinkProfile{}) {
		t.Errorf("missing pair should be the zero profile, got %+v", got)
	}
	if got := m.Profile(5, 5); got != m.Intra {
		t.Errorf("intra profile = %+v", got)
	}
}

func TestNewWAN3LossyProfiles(t *testing.T) {
	c := NewWAN3Lossy(9)
	va := ids.NewID(ZoneVirginia, 1)
	va2 := ids.NewID(ZoneVirginia, 2)
	or := ids.NewID(ZoneOregon, 1)
	p := c.LinkProfileBetween(va, or)
	if p.Loss <= 0 || p.Jitter <= 0 {
		t.Errorf("VA↔OR profile should be imperfect, got %+v", p)
	}
	if q := c.LinkProfileBetween(or, va); q != p {
		t.Errorf("profile must be symmetric: %+v vs %+v", p, q)
	}
	intra := c.LinkProfileBetween(va, va2)
	if intra.Loss >= p.Loss || intra.Jitter >= p.Jitter {
		t.Errorf("intra-zone profile %+v should be milder than WAN %+v", intra, p)
	}
	// Latencies are untouched relative to the clean topology.
	if d := c.OneWay(va, or); d != 35*time.Millisecond {
		t.Errorf("lossy VA→OR latency = %v", d)
	}
	// The clean builder must carry no profiles at all: its runs draw
	// nothing from the RNG and stay bit-identical to pre-profile code.
	if p := NewWAN3(9).LinkProfileBetween(va, or); p != (LinkProfile{}) {
		t.Errorf("NewWAN3 should have zero profiles, got %+v", p)
	}
}

func TestZoneListAndRegionSides(t *testing.T) {
	c := NewWAN3(8) // zones 1,2,3 hold 3,3,2 nodes
	if got := c.ZoneList(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("ZoneList = %v", got)
	}
	if got := c.ZoneNodes(ZoneOregon); len(got) != 2 {
		t.Errorf("Oregon nodes = %v", got)
	}
	in, out := c.RegionSides(ZoneVirginia)
	if len(in) != 3 || len(out) != 5 {
		t.Fatalf("RegionSides = %d in, %d out", len(in), len(out))
	}
	for _, n := range in {
		if c.ZoneOf(n) != ZoneVirginia {
			t.Errorf("node %v on the wrong side", n)
		}
	}
	if got := c.ZoneNodes(99); got != nil {
		t.Errorf("empty zone should be nil, got %v", got)
	}
}

// Zone groups come out ordered by ascending zone: group i covers zone i+1,
// so region-aware callers can map zones to group indices 1:1.
func TestZoneGroupsWithZonesSorted(t *testing.T) {
	c := NewWAN3(9)
	leader := c.Nodes[0] // zone 1
	g := ZoneGroups(c, c.Peers(leader))
	if g.NumGroups() != 3 {
		t.Fatalf("zone groups = %d, want 3", g.NumGroups())
	}
	if err := g.Validate(c.Peers(leader)); err != nil {
		t.Fatal(err)
	}
	for i, grp := range g.Groups {
		for _, m := range grp {
			if z := c.ZoneOf(m); z != i+1 {
				t.Errorf("group %d contains %v from zone %d, want zone %d", i, m, z, i+1)
			}
		}
	}
	// The leader's own zone still forms a group (its co-residents).
	if len(g.Groups[0]) != 2 {
		t.Errorf("leader-zone group has %d members, want 2", len(g.Groups[0]))
	}
}
