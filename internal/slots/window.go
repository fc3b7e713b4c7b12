// Package slots holds per-slot state the way a replica actually uses it:
// log slots are dense and contiguous above a moving floor, so the state for
// slot s lives at index s−base of a ring, not behind a hash of s, and the
// per-slot timeouts share one armed substrate timer instead of one each.
//
// Window is the ring; Timers is the deadline queue built on it. The
// replicated log, the leader's in-flight proposals and the relay's
// aggregations are all Windows over different cell types.
package slots

// MaxAhead is how far above its floor a replica holds slots: the replicated
// log refuses slots this far above its execution cursor, and EPaxos drops
// messages naming instances this far above a row's GC floor. It bounds every
// window's memory against a slot number that is corrupt, hostile, or simply
// from a peer this replica has fallen hopelessly behind.
const MaxAhead = 1 << 20

// Window is a dense array of cells for the contiguous slot range
// [Base, End), stored as a ring so the range can slide upward without
// copying. Cells outside the range are always the zero T.
//
// Pointers returned by At and Cover alias the ring: they stay valid until
// the next Cover (which may reallocate) or an Advance past their slot.
// The zero Window is empty at base 0.
type Window[T any] struct {
	cells []T    // len is zero or a power of two; slot s lives at cells[s&mask]
	base  uint64 // lowest slot covered
	n     uint64 // slots covered
}

// Base returns the lowest slot the window covers.
func (w *Window[T]) Base() uint64 { return w.base }

// End returns the slot just past the highest one covered.
func (w *Window[T]) End() uint64 { return w.base + w.n }

// Len returns how many slots the window covers.
func (w *Window[T]) Len() int { return int(w.n) }

// At returns the cell for slot, or nil when slot is outside [Base, End).
func (w *Window[T]) At(slot uint64) *T {
	if slot-w.base >= w.n { // unsigned: also catches slot < base
		return nil
	}
	return &w.cells[slot&uint64(len(w.cells)-1)]
}

// Cover extends the window's nearer edge just far enough to include slot and
// returns its cell. The span becomes the distance between the lowest and
// highest slot covered, so callers bound what they pass in.
func (w *Window[T]) Cover(slot uint64) *T {
	base, n := w.base, w.n
	switch {
	case n == 0:
		base, n = slot, 1
	case slot < base:
		n += base - slot
		base = slot
	case slot >= base+n:
		n = slot - base + 1
	}
	if n > uint64(len(w.cells)) {
		size := uint64(16)
		for size < n {
			size *= 2
		}
		cells := make([]T, size)
		for s := w.base; s < w.base+w.n; s++ {
			cells[s&(size-1)] = w.cells[s&uint64(len(w.cells)-1)]
		}
		w.cells = cells
	}
	w.base, w.n = base, n
	return &w.cells[slot&uint64(len(w.cells)-1)]
}

// Advance slides the lower edge up to slot, zeroing every cell it passes so
// what they referenced can be collected. The window empties (at base slot)
// when slot is past End; a slot at or below Base is a no-op.
func (w *Window[T]) Advance(slot uint64) {
	if slot <= w.base {
		return
	}
	var zero T
	drop := min(slot-w.base, w.n)
	for s := w.base; s < w.base+drop; s++ {
		w.cells[s&uint64(len(w.cells)-1)] = zero
	}
	w.base, w.n = slot, w.n-drop
}
