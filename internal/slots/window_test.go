package slots

import (
	"math/rand"
	"testing"
)

func TestWindowZeroValue(t *testing.T) {
	var w Window[int]
	if w.At(0) != nil || w.At(7) != nil || w.Len() != 0 {
		t.Fatal("zero window must be empty")
	}
	w.Advance(5) // empty: just moves the base
	if w.Base() != 5 || w.End() != 5 {
		t.Fatalf("base/end = %d/%d, want 5/5", w.Base(), w.End())
	}
}

func TestWindowCoverBothEdges(t *testing.T) {
	var w Window[int]
	*w.Cover(100) = 1
	*w.Cover(103) = 4 // up
	*w.Cover(98) = -1 // down
	if w.Base() != 98 || w.End() != 104 {
		t.Fatalf("range [%d,%d), want [98,104)", w.Base(), w.End())
	}
	for s, want := range map[uint64]int{98: -1, 99: 0, 100: 1, 101: 0, 102: 0, 103: 4} {
		if got := *w.At(s); got != want {
			t.Errorf("slot %d = %d, want %d", s, got, want)
		}
	}
	if w.At(97) != nil || w.At(104) != nil {
		t.Error("slots outside the range must read nil")
	}
}

func TestWindowAdvanceZeroes(t *testing.T) {
	var w Window[*int]
	x := 1
	for s := uint64(10); s < 20; s++ {
		*w.Cover(s) = &x
	}
	w.Advance(15)
	if w.Base() != 15 || w.Len() != 5 || w.At(14) != nil {
		t.Fatalf("after Advance(15): base %d len %d", w.Base(), w.Len())
	}
	// The ring reuses the dropped cells for higher slots: they must read zero.
	for s := uint64(20); s < 26; s++ {
		if c := w.Cover(s); *c != nil {
			t.Fatalf("slot %d inherited a dropped cell", s)
		}
	}
	w.Advance(1000) // past everything
	if w.Len() != 0 || w.Base() != 1000 {
		t.Fatalf("after Advance past End: base %d len %d", w.Base(), w.Len())
	}
	if c := w.Cover(1000); *c != nil {
		t.Fatal("emptied window kept a stale cell")
	}
}

// TestWindowMatchesMap slides and grows a window at random next to a map and
// demands they agree on every covered slot — wrap-around and reallocation
// included.
func TestWindowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Window[uint64]
	ref := map[uint64]uint64{}
	lo, hi := uint64(500), uint64(500) // ref covers [lo, hi)
	for step := 0; step < 20000; step++ {
		switch rng.Intn(3) {
		case 0, 1:
			s := lo + uint64(rng.Intn(int(hi-lo)+40))
			if hi == lo && rng.Intn(2) == 0 && lo > 10 {
				s = lo - uint64(rng.Intn(10)) // empty: may restart lower
			}
			v := rng.Uint64() | 1
			*w.Cover(s) = v
			ref[s] = v
			if hi == lo {
				lo, hi = s, s+1
			}
			lo, hi = min(lo, s), max(hi, s+1)
		case 2:
			to := lo + uint64(rng.Intn(int(hi-lo)+3))
			w.Advance(to)
			for s := lo; s < to; s++ {
				delete(ref, s)
			}
			lo, hi = max(lo, to), max(hi, to)
		}
		if w.Len() > 0 && (w.Base() != lo || w.End() != hi) {
			t.Fatalf("step %d: range [%d,%d), want [%d,%d)", step, w.Base(), w.End(), lo, hi)
		}
		for s := lo; s < hi; s++ {
			if got := *w.At(s); got != ref[s] {
				t.Fatalf("step %d: slot %d = %d, want %d", step, s, got, ref[s])
			}
		}
	}
}
