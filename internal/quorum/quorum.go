// Package quorum implements the quorum systems used by the protocols in this
// repository: simple majorities for Paxos and PigPaxos, flexible (Q1/Q2)
// quorums per Howard et al., fast-path super-majorities for EPaxos, and
// per-group threshold quorums for PigPaxos' partial response collection
// (§4.2 of the paper).
package quorum

import (
	"fmt"

	"pigpaxos/internal/ids"
)

// System is a vote accumulator for one phase of one consensus instance.
// Implementations are not safe for concurrent use; each instance owns one.
type System interface {
	// ACK records a positive vote from id. Duplicate ACKs are idempotent.
	ACK(id ids.ID)
	// NACK records a negative vote (rejection) from id.
	NACK(id ids.ID)
	// Satisfied reports whether enough ACKs have been collected.
	Satisfied() bool
	// Rejected reports whether the quorum can no longer be satisfied or a
	// rejection was observed (protocol-dependent; for majority systems any
	// NACK rejects, because a rejection proves a higher ballot exists).
	Rejected() bool
	// Size returns the number of distinct ACKs recorded.
	Size() int
	// Reset clears all recorded votes so the system can be reused.
	Reset()
}

// Majority is the classical ⌊N/2⌋+1 quorum over a fixed membership.
type Majority struct {
	n      int
	acks   map[ids.ID]bool
	nacked bool
}

// NewMajority creates a majority quorum over a cluster of n nodes.
func NewMajority(n int) *Majority {
	if n <= 0 {
		panic(fmt.Sprintf("quorum: invalid cluster size %d", n))
	}
	return &Majority{n: n, acks: make(map[ids.ID]bool, n)}
}

// ACK implements System.
func (m *Majority) ACK(id ids.ID) { m.acks[id] = true }

// NACK implements System.
func (m *Majority) NACK(ids.ID) { m.nacked = true }

// Satisfied implements System.
func (m *Majority) Satisfied() bool { return len(m.acks) > m.n/2 }

// Rejected implements System.
func (m *Majority) Rejected() bool { return m.nacked }

// Size implements System.
func (m *Majority) Size() int { return len(m.acks) }

// Reset implements System.
func (m *Majority) Reset() {
	m.acks = make(map[ids.ID]bool, m.n)
	m.nacked = false
}

// Threshold requires at least k distinct ACKs out of n possible voters.
// It generalizes Majority and backs flexible quorums (any Q1/Q2 split with
// q1+q2 > n intersects) and EPaxos' fast-path quorum.
type Threshold struct {
	n, k   int
	acks   map[ids.ID]bool
	nacks  map[ids.ID]bool
	reject bool
}

// NewThreshold creates a quorum needing k of n votes.
func NewThreshold(n, k int) *Threshold {
	if n <= 0 || k <= 0 || k > n {
		panic(fmt.Sprintf("quorum: invalid threshold %d of %d", k, n))
	}
	return &Threshold{
		n: n, k: k,
		acks:  make(map[ids.ID]bool, k),
		nacks: make(map[ids.ID]bool),
	}
}

// ACK implements System.
func (t *Threshold) ACK(id ids.ID) { t.acks[id] = true }

// NACK implements System.
func (t *Threshold) NACK(id ids.ID) {
	t.nacks[id] = true
	t.reject = true
}

// Satisfied implements System.
func (t *Threshold) Satisfied() bool { return len(t.acks) >= t.k }

// Rejected implements System. A threshold quorum is rejected on any NACK or
// when so many voters rejected that k ACKs can no longer be reached.
func (t *Threshold) Rejected() bool {
	return t.reject || t.n-len(t.nacks) < t.k
}

// Size implements System.
func (t *Threshold) Size() int { return len(t.acks) }

// Reset implements System.
func (t *Threshold) Reset() {
	t.acks = make(map[ids.ID]bool, t.k)
	t.nacks = make(map[ids.ID]bool)
	t.reject = false
}

// Tally is a vote set over a fixed membership, held by value: a replica that
// opens one per log slot embeds it in the slot's state instead of allocating
// a Threshold. Voters are named by their index in the membership list, so a
// vote from a non-member has no index and cannot be counted. The zero Tally
// is empty.
type Tally struct {
	lo    uint64   // members 0–63
	hi    []uint64 // members 64 and up, allocated only if one votes
	count int
}

// Add records a vote from member i; duplicates are idempotent, and a
// negative i (no such member) is ignored.
func (t *Tally) Add(i int) {
	if i < 0 {
		return
	}
	word, bit := &t.lo, uint64(1)<<(i%64)
	if i >= 64 {
		if missing := i/64 - len(t.hi); missing > 0 {
			t.hi = append(t.hi, make([]uint64, missing)...)
		}
		word = &t.hi[i/64-1]
	}
	if *word&bit == 0 {
		*word |= bit
		t.count++
	}
}

// Count returns the number of distinct votes recorded.
func (t *Tally) Count() int { return t.count }

// Flexible describes a flexible-quorum configuration per Howard et al.:
// phase-1 quorums of size Q1 and phase-2 quorums of size Q2 with
// Q1 + Q2 > N. It is a factory for per-phase threshold systems.
type Flexible struct {
	N, Q1, Q2 int
}

// NewFlexible validates and returns a flexible quorum configuration.
func NewFlexible(n, q1, q2 int) (Flexible, error) {
	if q1 <= 0 || q2 <= 0 || q1 > n || q2 > n {
		return Flexible{}, fmt.Errorf("quorum: Q1=%d Q2=%d out of range for N=%d", q1, q2, n)
	}
	if q1+q2 <= n {
		return Flexible{}, fmt.Errorf("quorum: Q1=%d and Q2=%d do not intersect for N=%d", q1, q2, n)
	}
	return Flexible{N: n, Q1: q1, Q2: q2}, nil
}

// Phase1 returns a fresh phase-1 vote accumulator.
func (f Flexible) Phase1() *Threshold { return NewThreshold(f.N, f.Q1) }

// Phase2 returns a fresh phase-2 vote accumulator.
func (f Flexible) Phase2() *Threshold { return NewThreshold(f.N, f.Q2) }

// FaultTolerance returns how many node failures the configuration masks:
// the system can lose nodes as long as both quorum sizes remain reachable.
func (f Flexible) FaultTolerance() int {
	maxQ := f.Q1
	if f.Q2 > maxQ {
		maxQ = f.Q2
	}
	return f.N - maxQ
}

// MajoritySize returns the classical majority size for an n-node cluster.
func MajoritySize(n int) int { return n/2 + 1 }

// FastQuorumSize returns the EPaxos fast-path quorum size for an n-node
// cluster (n = 2f+1): f + ⌊(f+1)/2⌋ voters in addition to the command
// leader itself.
func FastQuorumSize(n int) int {
	f := (n - 1) / 2
	return f + (f+1)/2
}

// GroupThresholds computes per-group ACK thresholds g_i for PigPaxos partial
// response collection (§4.2): given relay group sizes, choose the smallest
// g_i (distributed as evenly as possible) such that Σ g_i ≥ ⌊N/2⌋+1 where N
// counts the leader plus all followers. The leader's self-vote is accounted
// by the caller passing needed = MajoritySize(N) - 1.
func GroupThresholds(groupSizes []int, needed int) ([]int, error) {
	total := 0
	for _, s := range groupSizes {
		if s <= 0 {
			return nil, fmt.Errorf("quorum: empty relay group")
		}
		total += s
	}
	if needed > total {
		return nil, fmt.Errorf("quorum: need %d votes from %d followers", needed, total)
	}
	if needed < 0 {
		needed = 0
	}
	th := make([]int, len(groupSizes))
	// Distribute the requirement proportionally, then fix rounding by
	// raising thresholds round-robin until the sum covers `needed`.
	sum := 0
	for i, s := range groupSizes {
		th[i] = needed * s / total
		if th[i] > s {
			th[i] = s
		}
		sum += th[i]
	}
	for i := 0; sum < needed; i = (i + 1) % len(th) {
		if th[i] < groupSizes[i] {
			th[i]++
			sum++
		}
	}
	return th, nil
}
