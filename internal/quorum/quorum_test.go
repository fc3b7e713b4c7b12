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

func TestGroupThresholds(t *testing.T) {
	// 25 nodes: leader + 24 followers in 3 groups of 8; majority 13 needs
	// 12 follower votes.
	th, err := GroupThresholds([]int{8, 8, 8}, 12)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, g := range th {
		if g > 8 || g < 0 {
			t.Errorf("threshold %d out of range: %d", i, g)
		}
		sum += g
	}
	if sum < 12 {
		t.Errorf("thresholds sum to %d, need ≥ 12", sum)
	}
}

func TestGroupThresholdsUneven(t *testing.T) {
	th, err := GroupThresholds([]int{1, 5, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, g := range th {
		if g > []int{1, 5, 2}[i] {
			t.Errorf("threshold exceeds group size at %d", i)
		}
		sum += g
	}
	if sum < 5 {
		t.Errorf("sum %d < needed 5", sum)
	}
}

func TestGroupThresholdsErrors(t *testing.T) {
	if _, err := GroupThresholds([]int{2, 0}, 1); err == nil {
		t.Error("empty group should error")
	}
	if _, err := GroupThresholds([]int{2, 2}, 5); err == nil {
		t.Error("impossible requirement should error")
	}
}

// Property: for any group layout and any achievable requirement the
// thresholds are within group bounds and cover the requirement.
func TestGroupThresholdsProperty(t *testing.T) {
	f := func(sizes []uint8, needRaw uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		gs := make([]int, 0, len(sizes))
		total := 0
		for _, s := range sizes {
			v := int(s%9) + 1 // 1..9
			gs = append(gs, v)
			total += v
		}
		need := int(needRaw) % (total + 1)
		th, err := GroupThresholds(gs, need)
		if err != nil {
			return false
		}
		sum := 0
		for i, g := range th {
			if g < 0 || g > gs[i] {
				return false
			}
			sum += g
		}
		return sum >= need
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
