// Shrinker: fuzzer-style minimization of failing fault schedules. A sweep
// that surfaces a failure hands back a 3..N-action schedule whose faults
// overlap in ways that obscure which of them matters; Shrink greedily
// reduces it to the smallest schedule that still trips the failure
// predicate, so the persisted corpus entry names the fault sequence and
// nothing else.
package chaos

import (
	"time"

	"pigpaxos/internal/config"
)

// ShrinkOptions bound the minimizer.
type ShrinkOptions struct {
	// Cluster is the cluster candidates are checked against with Validate
	// before each re-run. Keeping candidates valid keeps the shrunk schedule
	// inside the bounds the scenario harness assumes.
	Cluster config.Cluster
	// HealBy is the validation deadline (every fault healed by then).
	HealBy time.Duration
	// MaxRuns bounds predicate invocations — the shrink's run budget
	// (default 256). Validation rejections are free; only candidates that
	// reach the predicate spend budget.
	MaxRuns int
}

// shrinkGrid is the coarse time grid fault times and durations snap to in
// the canonicalization pass. It also floors shortened fault windows, and
// being positive it lets Restart kinds keep the Duration their reboot fires
// on.
const shrinkGrid = 50 * time.Millisecond

func (o *ShrinkOptions) applyDefaults() {
	if o.MaxRuns == 0 {
		o.MaxRuns = 256
	}
}

// ShrinkResult is the minimizer's outcome.
type ShrinkResult struct {
	// Schedule is the smallest still-failing schedule found.
	Schedule Schedule
	// Runs is how many predicate invocations were spent.
	Runs int
	// Reductions counts accepted shrink steps (dropped actions, shortened
	// windows, snapped times).
	Reductions int
}

// cloneSchedule deep-copies a schedule's event slice (Action's own slices
// are never mutated by the shrinker, so a per-event copy suffices).
func cloneSchedule(s Schedule) Schedule {
	return append(Schedule(nil), s...)
}

// Shrink greedily minimizes a failing schedule: it drops actions (largest
// chunks first), halves fault durations, and snaps fault times to the
// coarse grid, re-validating every candidate with Validate
// and re-running the failure predicate after each step, within a bounded
// run budget. The input must already fail the predicate; Shrink never
// re-checks it, so a non-failing input just comes back unchanged.
//
// The whole procedure is deterministic — fixed pass order, fixed iteration
// order, no randomness — so the same (schedule, predicate, options) input
// always shrinks to the same output, and a corpus entry regenerated from
// its seed is bit-identical to the checked-in one.
func Shrink(s Schedule, failing func(Schedule) bool, opts ShrinkOptions) ShrinkResult {
	opts.applyDefaults()
	res := ShrinkResult{}
	// check is the gate every candidate passes through: still-valid, then
	// still-failing, charged against the run budget.
	check := func(c Schedule) bool {
		if res.Runs >= opts.MaxRuns || Validate(c, opts.Cluster, opts.HealBy) != nil {
			return false
		}
		res.Runs++
		return failing(c)
	}
	cur := cloneSchedule(s)

	// dropPass removes actions: non-overlapping chunks of half the
	// schedule, then quarters, down to single events. One accepted removal
	// retries the same position — the next chunk slid into it.
	dropPass := func() bool {
		improved := false
		first := len(cur) / 2
		if first < 1 {
			first = 1
		}
		for size := first; size >= 1; size /= 2 {
			for i := 0; i+size <= len(cur); {
				cand := append(cloneSchedule(cur[:i]), cur[i+size:]...)
				if len(cand) > 0 && check(cand) {
					cur = cand
					res.Reductions++
					improved = true
				} else {
					i += size
				}
			}
		}
		return improved
	}
	// durPass repeatedly halves self-heal windows (snapped down to the
	// grid) while the failure survives. Events healing via a separate
	// scheduled action (Duration == 0) are left alone.
	snapDur := func(d time.Duration) time.Duration {
		d -= d % shrinkGrid
		if d < shrinkGrid {
			d = shrinkGrid
		}
		return d
	}
	durPass := func() bool {
		improved := false
		for i := range cur {
			for cur[i].Action.Duration > shrinkGrid {
				nd := snapDur(cur[i].Action.Duration / 2)
				if nd >= cur[i].Action.Duration {
					break
				}
				cand := cloneSchedule(cur)
				cand[i].Action.Duration = nd
				if !check(cand) {
					break
				}
				cur = cand
				res.Reductions++
				improved = true
			}
		}
		return improved
	}
	// snapPass canonicalizes surviving events onto the coarse grid: fire
	// times round down, leftover off-grid durations round down (floored at
	// the grid) — so equivalent failures shrink to identical schedules
	// regardless of the exact times the explorer drew.
	snapPass := func() bool {
		improved := false
		for i := range cur {
			at := cur[i].At - cur[i].At%shrinkGrid
			d := cur[i].Action.Duration
			if d > 0 {
				d = snapDur(d)
			}
			if at == cur[i].At && d == cur[i].Action.Duration {
				continue
			}
			cand := cloneSchedule(cur)
			cand[i].At = at
			cand[i].Action.Duration = d
			cand.Sort()
			if check(cand) {
				cur = cand
				res.Reductions++
				improved = true
			}
		}
		return improved
	}

	for res.Runs < opts.MaxRuns {
		dropped := dropPass()
		shortened := durPass()
		snapped := snapPass()
		if !dropped && !shortened && !snapped {
			break
		}
	}
	cur.Sort()
	res.Schedule = cur
	return res
}
