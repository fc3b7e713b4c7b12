package client

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/wire"
)

var (
	n1 = ids.NewID(1, 1)
	n2 = ids.NewID(1, 2)
	n3 = ids.NewID(1, 3)
)

const (
	testTimeout = 2 * time.Second
	testRetry   = 250 * time.Millisecond
)

// rig is a session on a recording context with a held clock: three members,
// a window of four, and a log of how operations ended.
type rig struct {
	*nodetest.Loop
	s     Session
	ended []string // "done 3", "abandoned 1", "refused 2"
	seen  int      // events already returned by sent
}

func newRig() *rig {
	r := &rig{Loop: nodetest.NewLoop(ids.NewID(9, 1))}
	r.s = Session{
		Ctx: r.Loop, ClientID: 7,
		Targets: []ids.ID{n1, n2, n3}, Target: n1,
		Window: 4, Timeout: testTimeout, Retry: testRetry,
		Done:      func(op Op, _ wire.Reply) { r.ended = append(r.ended, fmt.Sprint("done ", op.Cmd.Seq)) },
		Abandoned: func(op Op) { r.ended = append(r.ended, fmt.Sprint("abandoned ", op.Cmd.Seq)) },
	}
	return r
}

func (r *rig) issue(n int) {
	for i := 0; i < n; i++ {
		r.s.Issue(kvstore.Command{Op: kvstore.Put, Key: 1}, r.Now())
	}
}

// sent returns the requests sent since the last call, as "target:seq".
func (r *rig) sent() []string {
	var out []string
	for _, e := range r.Events[r.seen:] {
		out = append(out, fmt.Sprintf("%v:%d", e.To, e.Msg.(wire.Request).Cmd.Seq))
	}
	r.seen = len(r.Events)
	return out
}

func (r *rig) reply(seq uint64, ok bool, leader ids.ID) {
	r.s.OnMessage(r.s.Target, wire.Reply{ClientID: 7, Seq: seq, OK: ok, Leader: leader})
}

func (r *rig) busy(seq uint64, hint time.Duration) {
	r.s.OnMessage(r.s.Target, wire.Busy{ClientID: 7, Seq: seq, Leader: r.s.Target, RetryAfter: hint})
}

func want(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestSession(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"a full window refuses and consumes no sequence number", func(t *testing.T, r *rig) {
			r.issue(4)
			if r.s.Issue(kvstore.Command{}, 0) {
				t.Error("fifth operation accepted past a window of 4")
			}
			r.sent()
			r.reply(2, true, n1)
			r.issue(1)
			want(t, "after the refusal", r.sent(), []string{"1.1:5"})
		}},
		{"a redirect re-aims, and the ninth for one operation is not followed", func(t *testing.T, r *rig) {
			r.issue(1)
			r.sent()
			for hop := 1; hop <= maxHops; hop++ {
				to := []ids.ID{n1, n2}[hop%2]
				r.reply(1, false, to)
				want(t, fmt.Sprint("hop ", hop), r.sent(), []string{fmt.Sprintf("%v:1", to)})
			}
			r.reply(1, false, n2)
			want(t, "past the cap", r.sent(), []string(nil))
			want(t, "target", r.s.Target, n1)
			want(t, "redirects", r.s.Redirects, uint64(maxHops))
		}},
		{"after the sweep starts a new chain, a redirect is followed again", func(t *testing.T, r *rig) {
			r.issue(1)
			r.sent()
			for hop := 1; hop <= maxHops; hop++ {
				r.reply(1, false, []ids.ID{n1, n2}[hop%2])
			}
			r.sent()
			r.reply(1, false, n3) // past the cap: a refusal, so an answer
			r.Advance(testRetry)
			want(t, "the sweep keeps the answering target", r.sent(), []string{"1.1:1"})
			r.reply(1, false, n3)
			want(t, "a new chain", r.sent(), []string{"1.3:1"})
			want(t, "target", r.s.Target, n3)
		}},
		{"a hint naming the current target re-sends that one operation", func(t *testing.T, r *rig) {
			r.issue(2)
			r.reply(1, false, n2)
			r.sent()
			r.reply(2, false, n2) // the old target's answer to the second
			want(t, "sent", r.sent(), []string{"1.2:2"})
			want(t, "redirects", r.s.Redirects, uint64(1))
		}},
		{"a retarget's lost send goes again when another node names the target", func(t *testing.T, r *rig) {
			r.issue(1)
			r.sent()
			r.reply(1, false, n2)
			want(t, "the retarget (lost)", r.sent(), []string{"1.2:1"})
			r.Advance(time.Millisecond)
			r.reply(1, false, n2) // n1 steps down, naming n2
			want(t, "at once, not a sweep later", r.sent(), []string{"1.2:1"})
			want(t, "redirects", r.s.Redirects, uint64(1))
		}},
		{"Busy backoff doubles to the cap and re-sends the same sequence number", func(t *testing.T, r *rig) {
			r.issue(1)
			r.sent()
			for _, wait := range []time.Duration{40, 80, 160, 250, 250} {
				wait *= time.Millisecond
				r.busy(1, 40*time.Millisecond)
				r.Advance(wait - time.Millisecond)
				want(t, fmt.Sprint("before ", wait), r.sent(), []string(nil))
				r.Advance(time.Millisecond)
				want(t, fmt.Sprint("after ", wait), r.sent(), []string{"1.1:1"})
			}
			r.reply(1, true, n1)
			want(t, "ended", r.ended, []string{"done 1"})
		}},
		{"a Busy leaves room for what the leader still holds, and a parked operation waits for it", func(t *testing.T, r *rig) {
			r.s.Window = 32 // never narrowed below 2
			r.issue(6)
			r.sent()
			r.busy(1, time.Millisecond)
			r.busy(2, time.Millisecond)
			want(t, "the leader holds 4 of 4", r.s.Full(), true)
			r.Advance(time.Millisecond)
			want(t, "backoff over, no room yet", r.sent(), []string(nil))
			r.reply(3, true, n1)
			want(t, "room for one", r.s.Full(), false)
			r.Advance(time.Millisecond)
			want(t, "the room goes to a parked operation", r.sent(), []string{"1.1:1"})
			for _, seq := range []uint64{4, 5, 6} {
				r.reply(seq, true, n1) // with 3's, a window's worth of acks: it grows to 5
			}
			r.issue(3) // 1 and these three at the leader
			want(t, "4 at the leader of 5", r.s.Full(), false)
			r.issue(1)
			want(t, "5 at the leader of 5", r.s.Full(), true)
		}},
		{"Timeout abandons once, counted from the arrival", func(t *testing.T, r *rig) {
			r.Advance(time.Second)
			r.s.Retry = 0 // no sweep: only the abandonment is armed
			r.s.Issue(kvstore.Command{}, r.Now()-500*time.Millisecond)
			r.Advance(testTimeout - 500*time.Millisecond - time.Millisecond)
			want(t, "early", r.ended, []string(nil))
			r.Advance(time.Millisecond)
			r.reply(1, true, n1) // too late
			r.Advance(2 * testTimeout)
			want(t, "ended", r.ended, []string{"abandoned 1"})
			want(t, "pending", r.s.pending, 0)
		}},
		{"a target that answered since the last sweep is kept, a silent one is left", func(t *testing.T, r *rig) {
			r.issue(3)
			r.sent()
			r.Advance(100 * time.Millisecond)
			r.reply(2, true, n1)
			r.Advance(testRetry - 100*time.Millisecond)
			want(t, "first sweep: it answered, the silent operations go again", r.sent(), []string{"1.1:1", "1.1:3"})
			r.Advance(testRetry)
			want(t, "second sweep: not a word, on to the next", r.sent(), []string{"1.2:1", "1.2:3"})
			r.reply(1, false, 0) // mid-election: no leader to name, but an answer
			r.Advance(testRetry)
			want(t, "third sweep", r.sent(), []string{"1.2:1", "1.2:3"})
			want(t, "ended", r.ended, []string{"done 2"})
		}},
		{"silence is measured from the send, whatever came before", func(t *testing.T, r *rig) {
			r.issue(1)
			r.reply(1, true, n1)
			r.Advance(testRetry / 2)
			r.issue(1)
			r.sent()
			r.Advance(testRetry - time.Millisecond)
			r.reply(2, true, n1)
			r.Advance(10 * testRetry) // idle
			want(t, "answered in time", r.sent(), []string(nil))
			r.issue(1)
			r.sent()
			r.Advance(testRetry - time.Millisecond)
			want(t, "not yet a whole period", r.sent(), []string(nil))
			r.Advance(time.Millisecond)
			want(t, "a whole period", r.sent(), []string{"1.2:3"})
		}},
		{"a retarget re-sends everything pending at once, oldest first", func(t *testing.T, r *rig) {
			r.issue(4)
			r.reply(2, true, n1)
			r.sent()
			r.reply(3, false, n3)
			want(t, "sent", r.sent(), []string{"1.3:1", "1.3:3", "1.3:4"})
			want(t, "resends", r.s.Resends, uint64(3))
			r.Advance(testRetry - time.Millisecond)
			want(t, "the new target gets a whole period", r.sent(), []string(nil))
			r.Advance(time.Millisecond)
			want(t, "then it is left in turn", r.sent(), []string{"1.1:1", "1.1:3", "1.1:4"})
		}},
		{"a refusal naming no usable leader stays pending without a Refused callback", func(t *testing.T, r *rig) {
			r.issue(1)
			r.reply(1, false, 0)
			r.reply(1, false, ids.NewID(5, 5)) // not a member
			want(t, "pending", r.s.pending, 1)
			want(t, "ended", r.ended, []string(nil))
		}},
		{"a refusal naming no usable leader goes to Refused when set", func(t *testing.T, r *rig) {
			r.s.Refused = func(op Op, rep wire.Reply) {
				r.ended = append(r.ended, fmt.Sprintf("refused %d for %v", op.Cmd.Seq, rep.Leader))
			}
			r.issue(2)
			r.reply(1, false, ids.NewID(5, 5))
			r.reply(2, false, 0)
			want(t, "pending", r.s.pending, 0)
			want(t, "ended", r.ended, []string{"refused 1 for 5.5", "refused 2 for 0.0"})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, newRig()) })
	}
}

// A closed-loop session — window of one, nothing to abandon, no sweep —
// allocates only the boxed request per operation: the simulator's clients
// issue millions of them.
func TestSessionSteadyStateAllocs(t *testing.T) {
	const runs = 1000
	ctx := nodetest.New(ids.NewID(9, 1))
	s := Session{Ctx: ctx, ClientID: 7, Targets: []ids.ID{n1, n2, n3}, Target: n1, Window: 1,
		Done: func(Op, wire.Reply) {}}
	replies := make([]wire.Msg, runs+2) // boxed ahead: the leader's allocation, not the client's
	for i := range replies {
		replies[i] = wire.Reply{ClientID: 7, Seq: uint64(i + 1), OK: true}
	}
	cmd := kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("v")}
	op := func() {
		s.Issue(cmd, ctx.Now())
		s.OnMessage(n1, replies[s.Issued()-1])
	}
	op() // the first sizes the operations array
	if got := testing.AllocsPerRun(runs, op); got > 1 {
		t.Errorf("%v allocations per operation, want at most 1 (the boxed request)", got)
	}
}
