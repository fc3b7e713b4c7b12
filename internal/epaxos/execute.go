package epaxos

import (
	"cmp"
	"slices"

	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// tryExecuteAll attempts to execute every committed instance awaiting its
// dependencies, walking the rows' unexecuted ranges in (replica, slot)
// order. An instance executes once its dependency closure is committed; the
// closure's strongly connected components execute in topological order,
// components internally ordered by (seq, instance id) — the EPaxos
// execution algorithm. Instances whose closure contains uncommitted
// dependencies stay committed-pending and are retried on the next commit or
// retry tick.
func (r *Replica) tryExecuteAll() {
	for i := range r.rows {
		rw := &r.rows[i]
		for slot := rw.cursor(); slot < rw.win.End(); slot++ {
			if in := rw.win.At(slot); in == nil || in.status != statusCommitted {
				continue // executed by an earlier closure this pass, or not committed
			}
			if !r.executeClosure(wire.InstRef{Replica: rw.id, Slot: slot}) {
				r.armRetry()
			}
		}
	}
}

func (r *Replica) armRetry() {
	if r.retryArmed {
		return
	}
	r.retryArmed = true
	wait := max(r.retryWait, execRetryInterval)
	r.retryWait = min(2*wait, 128*execRetryInterval)
	r.ctx.After(wait, func() {
		r.retryArmed = false
		r.tryExecuteAll()
	})
}

// tarjan is the scratch of one Tarjan SCC pass restricted to committed
// instances; the per-node marks live in the instances. Uncommitted
// instances do not abort the traversal: they are collected as blockers (and
// treated as sinks) so one failed execution attempt surfaces every missing
// dependency at once; the components are only executed when no blocker was
// found.
type tarjan struct {
	pass     uint64 // stamps the instances this pass indexed
	next     int
	stack    []wire.InstRef
	comps    []wire.InstRef // the components, back to back, in completion order
	ends     []int          // comps[ends[i-1]:ends[i]] is component i
	blockers []wire.InstRef // may repeat: noteBlocked is idempotent
}

// executeClosure runs Tarjan's SCC over the committed dependency graph
// reachable from root and executes finished components. It returns false
// if uncommitted dependencies block the closure — noting every blocker it
// can reach for the recovery sweep, so a deep chain of missing instances
// is recovered in parallel rather than one discovery per timeout.
func (r *Replica) executeClosure(root wire.InstRef) bool {
	t := &r.scc
	t.pass++
	t.next = 0
	t.stack, t.comps, t.ends, t.blockers = t.stack[:0], t.comps[:0], t.ends[:0], t.blockers[:0]
	r.strongConnect(root)
	if len(t.blockers) > 0 {
		r.stats.Blocked++
		for _, b := range t.blockers {
			// The blocker may be unknown here: its cell carries the clock
			// either way.
			if c := r.cell(b); c != nil {
				c.noteBlocked(r.ctx.Now())
			}
		}
		return false
	}
	start := 0
	for _, end := range t.ends {
		comp := t.comps[start:end]
		start = end
		// Within a component, (seq, replica, slot) order: the deterministic
		// tie-break every replica applies identically.
		slices.SortFunc(comp, func(a, b wire.InstRef) int {
			return cmp.Or(cmp.Compare(r.lookup(a).seq, r.lookup(b).seq), compareRefs(a, b))
		})
		for _, ref := range comp {
			if in := r.lookup(ref); in.status != statusExecuted {
				r.execute(ref, in)
			}
		}
	}
	return true
}

// execute applies in (ref's instance) and answers its client; GC may then
// collect it, so in is not valid afterwards.
func (r *Replica) execute(ref wire.InstRef, in *instance) {
	r.retryWait = 0
	in.status = statusExecuted
	r.live--
	r.stats.Executions++
	r.ctx.Work(execWork)
	r.apply(ref, in)
	r.execSinceGC++
	if r.execSinceGC >= r.cfg.gcEvery {
		r.execSinceGC = 0
		r.gc()
	}
}

func (r *Replica) apply(ref wire.InstRef, in *instance) {
	if in.cmd.Empty() {
		// No-op anchored by recovery: nothing to apply, nobody to answer.
		r.stats.Noops++
		in.hasClient = false
		return
	}
	cached, fresh := r.sessions.Execute(in.cmd.ClientID, in.cmd.Seq)
	if !fresh {
		// A duplicate instance of an already-executed command (client
		// retry through another command leader): at-most-once suppresses
		// the second apply — identically on every replica, since the
		// execution order of the two interfering instances is the same
		// everywhere. The retry's route is answered from the cache.
		r.stats.Duplicates++
		if in.hasClient {
			in.hasClient = false
			if cached != nil {
				r.ctx.Send(in.client, *cached)
			}
		}
		return
	}
	res := r.store.Apply(in.cmd)
	rep := wire.Reply{ClientID: in.cmd.ClientID, Seq: in.cmd.Seq, OK: true, Exists: res.Exists, Value: res.Value,
		Leader: r.cfg.ID, Slot: ref.Slot}
	if cached != nil {
		*cached = rep
	}
	if in.hasClient {
		in.hasClient = false
		r.ctx.Send(in.client, rep)
	}
}

func (r *Replica) strongConnect(v wire.InstRef) {
	t := &r.scc
	in := r.lookup(v)
	if in == nil {
		if rw := r.row(v.Replica); rw != nil && v.Slot <= rw.floor() {
			return // collected ⇒ executed long ago: a sink
		}
		t.blockers = append(t.blockers, v) // unknown dependency blocks execution
		return
	}
	if in.status < statusCommitted {
		t.blockers = append(t.blockers, v) // uncommitted dependency blocks execution
		return
	}
	r.stats.ExecVisits++
	r.ctx.Work(execVisitWork)
	if in.status == statusExecuted {
		return // executed nodes are sinks; no edges out matter
	}
	in.pass, in.index, in.low = t.pass, t.next, t.next
	t.next++
	t.stack = append(t.stack, v)
	in.onStack = true

	// in stays valid through the recursion: the traversal only looks
	// cells up, so the rings do not move.
	for _, w := range in.deps {
		win := r.lookup(w)
		switch {
		case win != nil && win.status == statusExecuted:
		case win == nil || win.pass != t.pass:
			r.strongConnect(w)
			if win != nil && win.pass == t.pass && win.low < in.low {
				in.low = win.low
			}
		case win.onStack && win.index < in.low:
			in.low = win.index
		}
	}

	if in.low == in.index {
		for {
			n := len(t.stack) - 1
			w := t.stack[n]
			t.stack = t.stack[:n]
			r.lookup(w).onStack = false
			t.comps = append(t.comps, w)
			if w == v {
				break
			}
		}
		t.ends = append(t.ends, len(t.comps))
	}
}

// gc collects every row's executed prefix: the window slides up to the
// row's lowest unexecuted slot, raising the floor below which dependency
// checks treat slots as executed. A hole stops it (some older instance is
// still live). The store borrowed the collected commands' values; they are
// returned to it here (see kvstore).
func (r *Replica) gc() {
	for i := range r.rows {
		rw := &r.rows[i]
		cur := rw.cursor()
		r.store.Return(func(yield func(kvstore.Command) bool) {
			for s := rw.win.Base(); s < cur; s++ {
				if !yield(rw.win.At(s).cmd) { // every cell below cur executed
					return
				}
			}
		})
		rw.win.Advance(cur)
	}
	r.stats.GCs++
}
