package admission

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

// cmd is the command client id sends at now on the test's clock.
func cmd(id uint64, now time.Duration) Cmd {
	return Cmd{From: ids.NewID(9, 1), Cmd: kvstore.Command{Op: kvstore.Put, Key: id, ClientID: id, Seq: 1}, At: now}
}

// TestBoundSheds: the FIFO takes MaxPending commands, sheds the next, and
// admits again once a proposal drains it; 0 is unbounded.
func TestBoundSheds(t *testing.T) {
	q := New(2, 0, 0)
	for i := uint64(1); i <= 2; i++ {
		if q.Shed() {
			t.Fatalf("shed with %d of 2 queued", q.Len())
		}
		q.Push(cmd(i, 0))
	}
	if !q.Shed() {
		t.Fatal("a full FIFO admitted a third command")
	}
	q.Drop(1)
	if q.Shed() {
		t.Fatal("still shedding after a command left the FIFO")
	}
	if got := q.Items()[0].Cmd.ClientID; got != 2 {
		t.Fatalf("head is client %d after dropping the oldest, want 2", got)
	}

	unbounded := New(0, 0, 0)
	for i := uint64(0); i < 1000; i++ {
		unbounded.Push(cmd(i, 0))
	}
	if unbounded.Shed() {
		t.Fatal("an unbounded FIFO shed")
	}
}

// TestHoldBound: the campaign hold shares the bound, and Release hands the
// held commands back in arrival order.
func TestHoldBound(t *testing.T) {
	q := New(2, 0, 0)
	if !q.Hold(cmd(1, 0)) || !q.Hold(cmd(2, 0)) {
		t.Fatal("the hold refused a command below its bound")
	}
	if q.Hold(cmd(3, 0)) {
		t.Fatal("the hold took a command past its bound")
	}
	held := q.Release()
	if len(held) != 2 || held[0].Cmd.ClientID != 1 || held[1].Cmd.ClientID != 2 {
		t.Fatalf("released %+v, want clients 1 and 2 in order", held)
	}
	if len(q.Release()) != 0 || !q.Hold(cmd(3, 0)) {
		t.Fatal("Release did not empty the hold")
	}
}

// TestCommitLatencyEWMA: the first sample seeds the average, each later one
// moves it by an eighth of the difference.
func TestCommitLatencyEWMA(t *testing.T) {
	var q Queue
	for _, step := range []struct{ sample, want time.Duration }{
		{8 * time.Millisecond, 8 * time.Millisecond},
		{16 * time.Millisecond, 9 * time.Millisecond},
		{time.Millisecond, 8 * time.Millisecond},
		{8 * time.Millisecond, 8 * time.Millisecond},
	} {
		q.Committed(step.sample)
		if q.ewma != step.want {
			t.Fatalf("after a %v sample the EWMA is %v, want %v", step.sample, q.ewma, step.want)
		}
	}
}

// TestOverloadSheds: the EWMA sheds once it is above OverloadLatency, admits
// at the threshold itself, and never sheds with the threshold off.
func TestOverloadSheds(t *testing.T) {
	q := New(0, 0, 10*time.Millisecond)
	q.Committed(10 * time.Millisecond)
	if q.Shed() {
		t.Fatal("shed with the EWMA at the threshold")
	}
	q.Committed(18 * time.Millisecond) // 10 + 8/8 = 11ms
	if !q.Shed() {
		t.Fatalf("EWMA %v above the 10ms threshold did not shed", q.ewma)
	}
	for range 40 {
		q.Committed(time.Millisecond)
	}
	if q.Shed() {
		t.Fatalf("EWMA %v decayed below the threshold still sheds", q.ewma)
	}
	off := New(0, 0, 0)
	off.Committed(time.Hour)
	if off.Shed() {
		t.Fatal("shed on latency with OverloadLatency 0")
	}
}

// TestTTLExpiresPrefix: the commands older than the TTL are counted from the
// head, a command exactly TTL old is kept, and a TTL of 0 expires nothing.
func TestTTLExpiresPrefix(t *testing.T) {
	q := New(0, 20*time.Millisecond, 0)
	for i, at := range []time.Duration{0, 5 * time.Millisecond, 6 * time.Millisecond, 30 * time.Millisecond} {
		q.Push(cmd(uint64(i), at))
	}
	if n := q.Expired(26 * time.Millisecond); n != 2 {
		t.Fatalf("at 26ms %d commands expired, want 2 (admitted at 0 and 5ms)", n)
	}
	q.Drop(2)
	if n := q.Expired(26 * time.Millisecond); n != 0 {
		t.Fatal("the command admitted at 6ms expired at 26ms, exactly one TTL later")
	}
	if n := q.Expired(time.Second); n != 2 {
		t.Fatalf("at 1s %d commands expired, want 2", n)
	}
	off := New(0, 0, 0)
	off.Push(cmd(1, 0))
	if off.Expired(time.Hour) != 0 {
		t.Fatal("a TTL of 0 expired a command")
	}
}

// TestRetryAfterClamped: the hint is one EWMA, clamped to [1ms, 100ms].
func TestRetryAfterClamped(t *testing.T) {
	for _, c := range []struct{ ewma, want time.Duration }{
		{0, time.Millisecond},
		{300 * time.Microsecond, time.Millisecond},
		{40 * time.Millisecond, 40 * time.Millisecond},
		{time.Second, 100 * time.Millisecond},
	} {
		q := Queue{ewma: c.ewma}
		if got := q.RetryAfter(); got != c.want {
			t.Errorf("EWMA %v: retry-after %v, want %v", c.ewma, got, c.want)
		}
	}
}

// TestHighWaterCountsHold: the high-water mark is the FIFO and the campaign
// hold together, and it only rises.
func TestHighWaterCountsHold(t *testing.T) {
	var q Queue
	for i := uint64(0); i < 3; i++ {
		q.Hold(cmd(i, 0))
	}
	q.Push(cmd(3, 0))
	q.Push(cmd(4, 0))
	if got := q.HighWater(); got != 5 {
		t.Fatalf("high-water %d with 3 held and 2 queued, want 5", got)
	}
	q.Release()
	q.Drop(2)
	q.Push(cmd(5, 0))
	if got := q.HighWater(); got != 5 {
		t.Fatalf("high-water fell to %d", got)
	}
}

// TestSteadyStateAllocs: once the FIFO's array has grown to the standing
// depth, a push and a pop allocate nothing — the array is reused, not
// regrown behind a moving head.
func TestSteadyStateAllocs(t *testing.T) {
	q := New(64, time.Second, time.Second)
	for i := uint64(0); i < 8; i++ {
		q.Push(cmd(i, 0))
	}
	c := cmd(99, 0)
	if n := testing.AllocsPerRun(10000, func() {
		q.Push(c)
		q.Drop(1)
	}); n != 0 {
		t.Fatalf("%v allocations per push and pop, want 0", n)
	}
	if q.Len() != 8 {
		t.Fatalf("depth %d after balanced pushes and pops, want 8", q.Len())
	}
}

// BenchmarkAdmit is the leader's per-command ingress work: the shed check,
// the push, the expiry scan and the pop into a slot.
func BenchmarkAdmit(b *testing.B) {
	q := New(256, time.Second, time.Second)
	for i := uint64(0); i < 8; i++ {
		q.Push(cmd(i, 0))
	}
	c := cmd(99, 0)
	b.ReportAllocs()
	for b.Loop() {
		if !q.Shed() {
			q.Push(c)
		}
		q.Drop(q.Expired(0) + 1)
	}
}
