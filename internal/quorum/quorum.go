// Package quorum holds the vote counting the protocols share: Threshold, a
// k-of-n accumulator with rejections (the Paxos campaign's phase-1 quorum);
// Tally, a by-value vote set a replica embeds in each log slot; and the
// majority size.
package quorum

import (
	"fmt"

	"pigpaxos/internal/ids"
)

// Threshold is a vote accumulator for one phase of one consensus instance:
// it requires at least k distinct ACKs out of n possible voters. A majority
// is k = ⌊n/2⌋+1. It is not safe for concurrent use.
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

// ACK records a positive vote from id. Duplicate ACKs are idempotent.
func (t *Threshold) ACK(id ids.ID) { t.acks[id] = true }

// NACK records a rejection from id.
func (t *Threshold) NACK(id ids.ID) {
	t.nacks[id] = true
	t.reject = true
}

// Satisfied reports whether enough ACKs have been collected.
func (t *Threshold) Satisfied() bool { return len(t.acks) >= t.k }

// Rejected reports whether the quorum is lost: on any NACK (a rejection
// proves a higher ballot exists), or when so many voters rejected that k
// ACKs can no longer be reached.
func (t *Threshold) Rejected() bool {
	return t.reject || t.n-len(t.nacks) < t.k
}

// Size returns the number of distinct ACKs recorded.
func (t *Threshold) Size() int { return len(t.acks) }

// Reset clears all recorded votes so the accumulator can be reused.
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

// MajoritySize returns the classical majority size for an n-node cluster.
func MajoritySize(n int) int { return n/2 + 1 }
