// Sweep support: failure classification for explored scenarios, schedule
// shrinking against live scenario re-runs, and replay of the checked-in
// regression corpus. The chaos package owns the minimizer and the codec;
// this file is the glue that lets them drive full protocol sims.
package harness

import (
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/protocol"
)

// Failure kinds reported by ScenarioResult.Failure and recorded in corpus
// entries.
const (
	FailLinearizability = "linearizability"
	FailIncomplete      = "incomplete"
	FailDiverged        = "diverged"
	FailUnrecovered     = "unrecovered"
)

// Failure classifies the result: the first failed verdict's kind, or ""
// when the run is clean. Order matches severity — a linearizability
// violation outranks an unfinished client script.
func (r ScenarioResult) Failure() string {
	switch {
	case !r.Linearizable:
		return FailLinearizability
	case !r.AllComplete:
		return FailIncomplete
	case !r.Converged:
		return FailDiverged
	case r.Unrecovered > 0:
		return FailUnrecovered
	}
	return ""
}

// shrinkOptionsFor builds the chaos.ShrinkOptions matching a scenario:
// candidates stay valid for the scenario's cluster and must heal by the
// end of its measurement window.
func shrinkOptionsFor(opts ScenarioOptions, budget int) chaos.ShrinkOptions {
	opts.applyDefaults()
	return chaos.ShrinkOptions{
		Cluster: opts.cluster(),
		HealBy:  opts.Warmup + opts.Measure,
		MaxRuns: budget,
	}
}

// ShrinkScenario minimizes a failing schedule against live scenario
// re-runs: the predicate sees the full ScenarioResult of each candidate
// run, so any verdict (or metric threshold) can define "still failing".
// budget bounds re-runs (<=0 uses the chaos default). The input schedule
// is assumed failing; see chaos.Shrink for the guarantees.
func ShrinkScenario(opts ScenarioOptions, sched chaos.Schedule, failing func(ScenarioResult) bool, budget int) chaos.ShrinkResult {
	return chaos.Shrink(sched, func(c chaos.Schedule) bool {
		return failing(RunScenario(opts, c))
	}, shrinkOptionsFor(opts, budget))
}

// CorpusOptions rebuilds the ScenarioOptions a corpus entry was recorded
// under, so replaying entry.Schedule reproduces the original run exactly.
func CorpusOptions(e chaos.CorpusEntry) (ScenarioOptions, error) {
	proto, err := protocol.Parse(e.Protocol)
	if err != nil {
		return ScenarioOptions{}, err
	}
	opts := ScenarioOptions{
		Options: Options{
			Protocol:  proto,
			N:         e.N,
			NumGroups: e.Groups,
			Clients:   e.Clients,
			Seed:      e.Seed,
			Warmup:    time.Duration(e.Warmup),
			Measure:   time.Duration(e.Measure),
			WAN:       e.WAN,
		},
		OpsPerClient: e.OpsPerClient,
		Durable:      e.Durable,
	}
	return opts, nil
}

// CorpusEntryFor snapshots the scenario configuration alongside a (shrunk)
// schedule for persistence via chaos.WriteCorpusEntry.
func CorpusEntryFor(opts ScenarioOptions, sched chaos.Schedule, name, origin, failure string) chaos.CorpusEntry {
	opts.applyDefaults()
	return chaos.CorpusEntry{
		Version:      chaos.CodecVersion,
		Name:         name,
		Origin:       origin,
		Failure:      failure,
		Protocol:     opts.Protocol.String(),
		N:            opts.N,
		Clients:      opts.Clients,
		OpsPerClient: opts.OpsPerClient,
		Groups:       opts.NumGroups,
		Seed:         opts.Seed,
		Warmup:       chaos.Dur(opts.Warmup),
		Measure:      chaos.Dur(opts.Measure),
		WAN:          opts.WAN,
		Durable:      opts.Durable,
		Schedule:     sched,
	}
}
