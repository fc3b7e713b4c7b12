// Package linearizability checks recorded client histories against the
// linearizability of a single register per key — the correctness criterion
// the paper's protocols promise ("PigPaxos provides linearizability of all
// operations", §2.3).
//
// The checker implements the Wing & Gong / Lowe-style exhaustive search per
// key: find a total order of operations that (1) respects real-time order
// (an op that completed before another began must precede it) and (2) is
// legal for a read/write register. Histories are split by key first, since
// operations on different keys are independent; the search is exponential
// in the number of overlapping operations per key, so tests keep per-key
// concurrency modest.
package linearizability

import (
	"fmt"
	"sort"
	"time"
)

// OpKind is the operation type of a history event.
type OpKind uint8

// Operation kinds.
const (
	Read OpKind = iota
	Write
)

// Op is one completed client operation.
type Op struct {
	Kind   OpKind
	Key    uint64
	Input  string // value written (Write)
	Output string // value observed (Read); "" means key absent
	Start  time.Duration
	End    time.Duration
	Client uint64
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if o.Kind == Write {
		return fmt.Sprintf("W(k%d,%q)@[%v,%v]", o.Key, o.Input, o.Start, o.End)
	}
	return fmt.Sprintf("R(k%d)=%q@[%v,%v]", o.Key, o.Output, o.Start, o.End)
}

// History accumulates completed operations.
type History struct {
	ops []Op
}

// Add appends one completed operation.
func (h *History) Add(op Op) { h.ops = append(h.ops, op) }

// Len returns the number of recorded operations.
func (h *History) Len() int { return len(h.ops) }

// Result reports a linearizability check outcome.
type Result struct {
	OK       bool
	BadKey   uint64 // key whose sub-history failed (when !OK)
	Checked  int    // operations examined
	Explored int    // search states visited (cost indicator)
}

// Check verifies the whole history, key by key.
func (h *History) Check() Result {
	byKey := make(map[uint64][]Op)
	for _, op := range h.ops {
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	res := Result{OK: true, Checked: len(h.ops)}
	// Deterministic key order for reproducible failure reports.
	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		explored, ok := checkKey(byKey[k])
		res.Explored += explored
		if !ok {
			res.OK = false
			res.BadKey = k
			return res
		}
	}
	return res
}

// checkKey searches for a legal linearization of one key's operations.
func checkKey(ops []Op) (explored int, ok bool) {
	n := len(ops)
	if n == 0 {
		return 0, true
	}
	if n > 24 {
		// The bitmask search carries one uint32 per state; histories this
		// large should be split by the caller.
		panic("linearizability: per-key history too large (>24 ops)")
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })

	// precedes[i][j]: op i completed no later than op j started (real-time
	// edge). The boundary case End == Start counts as ordered: a client
	// that issues its next op upon receiving a reply produces exactly
	// that pattern on a discrete clock, and those ops are sequential.
	precedes := make([][]bool, n)
	for i := range precedes {
		precedes[i] = make([]bool, n)
		for j := range precedes[i] {
			precedes[i][j] = i != j && ops[i].End <= ops[j].Start
		}
	}

	type state struct {
		taken uint32 // bitmask of linearized ops
		value string // register value after the prefix
	}
	seen := make(map[state]bool)
	var dfs func(taken uint32, value string) bool
	dfs = func(taken uint32, value string) bool {
		if taken == uint32(1<<n)-1 {
			return true
		}
		st := state{taken, value}
		if seen[st] {
			return false
		}
		seen[st] = true
		explored++
		for i := 0; i < n; i++ {
			if taken&(1<<i) != 0 {
				continue
			}
			// Op i is eligible only if every op that must precede it (by
			// real time) is already linearized.
			eligible := true
			for j := 0; j < n; j++ {
				if j != i && taken&(1<<j) == 0 && precedes[j][i] {
					eligible = false
					break
				}
			}
			if !eligible {
				continue
			}
			op := ops[i]
			if op.Kind == Read {
				if op.Output != value {
					continue // illegal read here
				}
				if dfs(taken|1<<i, value) {
					return true
				}
			} else {
				if dfs(taken|1<<i, op.Input) {
					return true
				}
			}
		}
		return false
	}
	return explored, dfs(0, "")
}
