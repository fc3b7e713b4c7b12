package harness

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/chaos"
)

// TestRunScenariosParallelBitIdentical is the tentpole's acceptance
// check: the parallel runner must produce results positionally
// bit-identical to the serial path — every run is an isolated sim, and
// results are collected by index. Every run must also come out clean.
func TestRunScenariosParallelBitIdentical(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos, EPaxos} {
		opts := scenShort(t, p)
		opts.Seed = 42
		scheds := ExploreSchedules(opts, chaos.ExplorerOpts{Scenarios: 4})

		serial := opts
		serial.Jobs = 1
		parallel := opts
		parallel.Jobs = 4

		a := RunScenarios(serial, scheds)
		b := RunScenarios(parallel, scheds)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: jobs=1 and jobs=4 results differ", p)
		}
		requireClean(t, a)
	}
}

// requireClean fails the test for every result with a failure verdict.
func requireClean(t *testing.T, results []ScenarioResult) {
	t.Helper()
	for i, r := range results {
		if f := r.Failure(); f != "" {
			t.Errorf("%v schedule %d: %s (faults %v)", r.Protocol, i, f, r.FaultLog)
		}
	}
}

// TestExploreScenariosMatchesSchedulePath pins the refactor: the one-call
// ExploreScenarios and the split ExploreSchedules+RunScenarios paths are
// the same computation.
func TestExploreScenariosMatchesSchedulePath(t *testing.T) {
	opts := scenShort(t, PigPaxos)
	opts.Seed = 7
	ex := chaos.ExplorerOpts{Scenarios: 3}
	a := ExploreScenarios(opts, ex)
	b := RunScenarios(opts, ExploreSchedules(opts, ex))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ExploreScenarios diverged from ExploreSchedules+RunScenarios")
	}
	requireClean(t, a)
}

// TestShrinkScenarioMinimizesDeterministically shrinks a real explored
// failure (an injected availability-gap predicate over live sim re-runs)
// twice and requires identical minimal schedules. Every re-run the shrinker
// makes must otherwise come out clean.
func TestShrinkScenarioMinimizesDeterministically(t *testing.T) {
	opts := scenShort(t, PigPaxos)
	opts.Seed = 42
	scheds := ExploreSchedules(opts, chaos.ExplorerOpts{Scenarios: 6})
	results := RunScenarios(opts, scheds)

	const gap = 150 * time.Millisecond
	pick := -1
	for i, r := range results {
		if r.Failure() == "" && r.AvailabilityGap > gap {
			pick = i
			break
		}
	}
	if pick < 0 {
		t.Fatal("no explored schedule opened a gap > 150ms at seed 42 — pick a different seed")
	}
	failing := func(r ScenarioResult) bool {
		requireClean(t, []ScenarioResult{r})
		return r.AvailabilityGap > gap
	}

	a := ShrinkScenario(opts, scheds[pick], failing, 40)
	b := ShrinkScenario(opts, scheds[pick], failing, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shrink is nondeterministic:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Schedule) == 0 || len(a.Schedule) > len(scheds[pick]) {
		t.Fatalf("shrunk schedule has %d events (input %d)", len(a.Schedule), len(scheds[pick]))
	}
	if !failing(RunScenario(opts, a.Schedule)) {
		t.Fatal("shrunk schedule no longer fails the predicate")
	}
}

// TestScenarioResultFailureClassification pins the verdict→kind mapping.
func TestScenarioResultFailureClassification(t *testing.T) {
	r := ScenarioResult{Linearizable: true, AllComplete: true, Converged: true}
	if got := r.Failure(); got != "" {
		t.Fatalf("clean result classified %q", got)
	}
	r.Unrecovered = 2
	if got := r.Failure(); got != FailUnrecovered {
		t.Fatalf("got %q, want %q", got, FailUnrecovered)
	}
	r.Converged = false
	if got := r.Failure(); got != FailDiverged {
		t.Fatalf("got %q, want %q", got, FailDiverged)
	}
	r.AllComplete = false
	if got := r.Failure(); got != FailIncomplete {
		t.Fatalf("got %q, want %q", got, FailIncomplete)
	}
	r.Linearizable = false
	if got := r.Failure(); got != FailLinearizability {
		t.Fatalf("got %q, want %q", got, FailLinearizability)
	}
}

// TestCorpusReplayClean replays every checked-in regression corpus entry
// through a full protocol sim: once-shrunk failures must stay fixed, so
// each replay must come back with no failure verdict.
func TestCorpusReplayClean(t *testing.T) {
	entries, err := chaos.LoadCorpusDir("../chaos/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("checked-in corpus is empty")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			opts, err := CorpusOptions(e)
			if err != nil {
				t.Fatal(err)
			}
			r := RunScenario(opts, e.Schedule)
			if f := r.Failure(); f != "" {
				t.Fatalf("replay failed with %q (entry origin: %s)", f, e.Origin)
			}
		})
	}
}

// TestCorpusOptionsRoundTrip pins that a snapshot taken with
// CorpusEntryFor rebuilds into equivalent options via CorpusOptions.
func TestCorpusOptionsRoundTrip(t *testing.T) {
	opts := scenShort(t, EPaxos)
	opts.Seed = 99
	sched := chaos.Schedule{
		{At: 300 * time.Millisecond, Action: chaos.Action{Kind: chaos.CrashLeader, Duration: 200 * time.Millisecond}},
	}
	e := CorpusEntryFor(opts, sched, "rt", "test", "")
	got, err := CorpusOptions(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Protocol != EPaxos || got.N != opts.N || got.Seed != 99 ||
		got.Clients != opts.Clients || got.OpsPerClient != 24 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	a := RunScenario(opts, sched)
	b := RunScenario(got, sched)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rebuilt options do not reproduce the original run")
	}
}
