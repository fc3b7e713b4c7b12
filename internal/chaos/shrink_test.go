package chaos

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
)

// shrinkInput is a deliberately noisy failing schedule: one event that
// matters (the 400ms crash of node 3) buried under four that don't.
func shrinkInput() Schedule {
	n3 := ids.NewID(1, 3)
	n4 := ids.NewID(1, 4)
	s := Schedule{
		{At: 210 * time.Millisecond, Action: Action{Kind: Sluggish, Node: n4, Factor: 3, Duration: 700 * time.Millisecond}},
		{At: 300 * time.Millisecond, Action: Action{Kind: Crash, Node: n3, Duration: 400 * time.Millisecond}},
		{At: 350 * time.Millisecond, Action: Action{Kind: LinkFault, Duration: 500 * time.Millisecond}},
		{At: 900 * time.Millisecond, Action: Action{Kind: Crash, Node: n4, Duration: 200 * time.Millisecond}},
		{At: 1200 * time.Millisecond, Action: Action{Kind: Sluggish, Node: n3, Factor: 2, Duration: 300 * time.Millisecond}},
	}
	s[2].Action.Faults.Loss = 0.02
	s.Sort()
	return s
}

// crashesNode3 is the synthetic failure predicate: the run "fails"
// whenever any surviving event crashes node 1.3, regardless of timing.
func crashesNode3(s Schedule) bool {
	for _, ev := range s {
		if ev.Action.Kind == Crash && ev.Action.Node == ids.NewID(1, 3) {
			return true
		}
	}
	return false
}

func TestShrinkMinimizesToSingleEvent(t *testing.T) {
	res := Shrink(shrinkInput(), crashesNode3, ShrinkOptions{Cluster: config.NewLAN(5), HealBy: 2 * time.Second})
	if len(res.Schedule) != 1 {
		t.Fatalf("shrunk to %d events, want 1: %+v", len(res.Schedule), res.Schedule)
	}
	ev := res.Schedule[0]
	if ev.Action.Kind != Crash || ev.Action.Node != ids.NewID(1, 3) {
		t.Fatalf("kept the wrong event: %+v", ev)
	}
	// The duration pass should have collapsed the 400ms window to the
	// 50ms default floor, and the snap pass kept At on the grid.
	if ev.Action.Duration != 50*time.Millisecond {
		t.Fatalf("duration = %v, want 50ms floor", ev.Action.Duration)
	}
	if ev.At%(50*time.Millisecond) != 0 {
		t.Fatalf("At = %v not grid-aligned", ev.At)
	}
	if err := Validate(res.Schedule, config.NewLAN(5), 2*time.Second); err != nil {
		t.Fatalf("shrunk schedule invalid: %v", err)
	}
	if res.Reductions == 0 {
		t.Fatal("no reductions recorded")
	}
}

func TestShrinkDeterministic(t *testing.T) {
	a := Shrink(shrinkInput(), crashesNode3, ShrinkOptions{Cluster: config.NewLAN(5), HealBy: 2 * time.Second})
	b := Shrink(shrinkInput(), crashesNode3, ShrinkOptions{Cluster: config.NewLAN(5), HealBy: 2 * time.Second})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same input shrank differently:\n%+v\nvs\n%+v", a, b)
	}
}

func TestShrinkRespectsRunBudget(t *testing.T) {
	runs := 0
	res := Shrink(shrinkInput(), func(s Schedule) bool {
		runs++
		return crashesNode3(s)
	}, ShrinkOptions{Cluster: config.NewLAN(5), HealBy: 2 * time.Second, MaxRuns: 3})
	if runs > 3 || res.Runs > 3 {
		t.Fatalf("predicate ran %d times (res.Runs=%d), budget was 3", runs, res.Runs)
	}
	// Even a tiny budget must return a still-failing schedule.
	if !crashesNode3(res.Schedule) {
		t.Fatalf("budget-limited shrink returned a non-failing schedule: %+v", res.Schedule)
	}
}

func TestShrinkKeepsCandidatesValid(t *testing.T) {
	// Predicate that fails for ANY schedule — shrinking is then gated only
	// by validity, so every accepted step (and the final result) must pass
	// Validate. With N=3 the input's two overlapping crash events can
	// never both survive a drop into a still-valid candidate... but the
	// shrinker must not return an invalid one either way.
	n1, n2 := ids.NewID(1, 1), ids.NewID(1, 2)
	in := Schedule{
		{At: 200 * time.Millisecond, Action: Action{Kind: Crash, Node: n1, Duration: 300 * time.Millisecond}},
		{At: 600 * time.Millisecond, Action: Action{Kind: Crash, Node: n2, Duration: 300 * time.Millisecond}},
	}
	res := Shrink(in, func(Schedule) bool { return true }, ShrinkOptions{Cluster: config.NewLAN(3), HealBy: 2 * time.Second})
	if err := Validate(res.Schedule, config.NewLAN(3), 2*time.Second); err != nil {
		t.Fatalf("shrunk schedule invalid: %v", err)
	}
	if len(res.Schedule) != 1 {
		t.Fatalf("always-failing predicate should shrink to one event, got %d", len(res.Schedule))
	}
}
