package quorum

import (
	"testing"
	"testing/quick"

	"pigpaxos/internal/ids"
)

func id(n int) ids.ID { return ids.NewID(1, n) }

func TestThreshold(t *testing.T) {
	q := NewThreshold(7, 3)
	q.ACK(id(1))
	q.ACK(id(2))
	if q.Satisfied() {
		t.Error("2 of 3 needed should not satisfy")
	}
	q.ACK(id(3))
	if !q.Satisfied() {
		t.Error("3 ACKs should satisfy threshold 3")
	}
}

func TestThresholdRejectedByNACKs(t *testing.T) {
	q := NewThreshold(5, 4)
	q.NACK(id(1))
	if !q.Rejected() {
		t.Error("NACK should reject")
	}
	q.Reset()
	if q.Rejected() {
		t.Error("reset should clear rejection")
	}
	// 2 NACKs leave only 3 possible voters < k=4.
	q2 := NewThreshold(5, 4)
	q2.NACK(id(1))
	q2.NACK(id(2))
	if !q2.Rejected() {
		t.Error("unreachable threshold should report rejected")
	}
}

func TestMajoritySize(t *testing.T) {
	cases := map[int]int{1: 1, 3: 2, 5: 3, 9: 5, 25: 13}
	for n, want := range cases {
		if got := MajoritySize(n); got != want {
			t.Errorf("MajoritySize(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: a threshold quorum is satisfied iff at least k distinct voters
// ACKed, regardless of ACK order and duplicates.
func TestThresholdProperty(t *testing.T) {
	f := func(voters []uint8, kRaw uint8) bool {
		n := 32
		k := int(kRaw)%n + 1
		q := NewThreshold(n, k)
		distinct := map[uint8]bool{}
		for _, v := range voters {
			v %= 32
			q.ACK(ids.NewID(1, int(v)+1))
			distinct[v] = true
		}
		return q.Satisfied() == (len(distinct) >= k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTally(t *testing.T) {
	var tl Tally
	for _, i := range []int{0, 3, 3, 63, 64, 200, 64, -1} {
		tl.Add(i)
	}
	if tl.Count() != 5 {
		t.Errorf("count = %d, want 5 (duplicates and the non-member ignored)", tl.Count())
	}
	small := Tally{}
	small.Add(1)
	copyOf := small // by value while every voter is below 64
	copyOf.Add(2)
	if small.Count() != 1 || copyOf.Count() != 2 {
		t.Errorf("value copy shares state: %d, %d", small.Count(), copyOf.Count())
	}
	if n := testing.AllocsPerRun(100, func() {
		var q Tally
		q.Add(0)
		q.Add(24)
		q.Add(63)
	}); n != 0 {
		t.Errorf("a tally over the first 64 members allocates %.0f times", n)
	}
}
