package harness

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/paxos"
)

// durShort is scenShort plus durability: every replica journals through a
// wal.MemStorage, snapshots every 32 executions, pays 400µs per fsync.
func durShort(t *testing.T, p Protocol) ScenarioOptions {
	t.Helper()
	o := scenShort(t, p)
	o.Durable = true
	o.SnapshotEvery = 32
	return o
}

// Honest restart of the leader: the node reboots with a FRESH process image
// rebuilt from snapshot + WAL tail (not the retained-memory Recover path),
// and the cluster stays linearizable, complete and converged — for both
// communication planes, with bit-identical reruns.
func TestScenarioRestartLeaderDurable(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := durShort(t, p)
			sched := chaos.LeaderRestart(o.Warmup+300*time.Millisecond, 400*time.Millisecond)
			r := RunScenario(o, sched)
			requireHealthy(t, r)
			if r.Reboots != 1 {
				t.Fatalf("fault log %v: want exactly 1 reboot", r.FaultLog)
			}
			if r.WALSyncs == 0 {
				t.Error("durable run performed no journal fsyncs")
			}
			// The restarted node must have rebuilt from a snapshot, not by
			// replaying the full log from slot 1: with SnapshotEvery=32 and
			// ~190 committed slots before the crash, a checkpoint existed.
			if r.SnapRestores == 0 {
				t.Error("reboot did not restore from a snapshot")
			}
			if again := RunScenario(o, sched); !reflect.DeepEqual(r, again) {
				t.Errorf("same seed diverged:\n%v\n%v", r, again)
			}
		})
	}
}

// Rolling reboot: every follower restarts from disk in turn. All recoveries
// must replay snapshot + tail and rejoin without harming the history.
func TestScenarioRollingRebootDurable(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := durShort(t, p)
			cc := o.cluster()
			victims := cc.Nodes[len(cc.Nodes)-3:] // three followers
			sched := chaos.RollingReboot(victims, o.Warmup+200*time.Millisecond,
				150*time.Millisecond, 300*time.Millisecond)
			r := RunScenario(o, sched)
			requireHealthy(t, r)
			if r.Reboots != len(victims) {
				t.Errorf("%d reboots, want %d (log %v)", r.Reboots, len(victims), r.FaultLog)
			}
			if again := RunScenario(o, sched); !reflect.DeepEqual(r, again) {
				t.Errorf("same seed diverged:\n%v\n%v", r, again)
			}
		})
	}
}

// Torn tail: the crash interrupts the journal's final write mid-frame. The
// reboot must truncate the torn frame, recover everything that was actually
// fsynced, and rejoin — losing a synced suffix would surface as divergence
// or a broken history.
func TestScenarioTornTailRestart(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := durShort(t, p)
			cc := o.cluster()
			victim := cc.Nodes[len(cc.Nodes)-1]
			sched := chaos.TornRestart(victim, o.Warmup+300*time.Millisecond, 200*time.Millisecond)
			r := RunScenario(o, sched)
			requireHealthy(t, r)
			if r.Reboots != 1 {
				t.Fatalf("fault log %v: want exactly 1 reboot", r.FaultLog)
			}
			if again := RunScenario(o, sched); !reflect.DeepEqual(r, again) {
				t.Errorf("same seed diverged:\n%v\n%v", r, again)
			}
		})
	}
}

// A slow disk window on the leader throttles every commit (sync-before-vote
// holds the batch until the fsync clears) but must not break anything.
func TestScenarioDiskSlowLeader(t *testing.T) {
	o := durShort(t, Paxos)
	cc := o.cluster()
	sched := chaos.DiskSlowWindow(cc.Nodes[0], 5*time.Millisecond,
		o.Warmup+200*time.Millisecond, 400*time.Millisecond)
	r := RunScenario(o, sched)
	requireHealthy(t, r)
	var kinds []chaos.Kind
	for _, a := range r.FaultLog {
		kinds = append(kinds, a.Kind)
	}
	if !reflect.DeepEqual(kinds, []chaos.Kind{chaos.DiskSlow, chaos.DiskRestore}) {
		t.Errorf("fault log %v, want disk-slow then disk-restore", r.FaultLog)
	}
}

// A leader whose every flush takes twice the election timeout keeps leading:
// the flush is off its event loop, so it goes on heartbeating and fanning
// out, followers with healthy disks form the quorum without its self-vote,
// and nobody campaigns. (When Sync blocked the loop, the first such flush
// silenced the leader for an election timeout and cost it its ballot.)
// The leader snapshots through the window too: a snapshot is a job of the
// next flush, so the loop that captured it goes on answering while the slow
// disk writes it. (When the save blocked the loop, so did each snapshot.)
func TestSlowLeaderDiskCostsNoElection(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := durShort(t, p)
			o.applyDefaults()
			leader := o.cluster().Nodes[0]
			sched := chaos.DiskSlowWindow(leader, 2*o.ElectionTimeout,
				o.Warmup+100*time.Millisecond, 600*time.Millisecond)
			sr := runScenario(&o, nil, sched)
			if !sr.allDone() || !sr.d.groups[0].converged() {
				t.Fatalf("scripts done %v, converged %v", sr.allDone(), sr.d.groups[0].converged())
			}
			var elections uint64
			sr.d.coreStats(func(id ids.ID, core *paxos.Replica) {
				elections += core.Stats().Elections
				if id == leader && core.Stats().Snapshots == 0 {
					t.Error("the leader took no snapshot")
				}
				if core.IsLeader() != (id == leader) || core.Ballot() != ids.NewBallot(1, leader) {
					t.Errorf("node %v: leader=%v ballot %v; want node %v still leading under its first ballot",
						id, core.IsLeader(), core.Ballot(), leader)
				}
			})
			if elections != 1 {
				t.Errorf("%d elections, want the initial one only", elections)
			}
		})
	}
}

// A follower loses power with a flush in flight: the flight's accepts and
// everything journaled behind them are gone, and none of their votes had
// left. With 5 ms flushes under steady load the follower's disk is busy
// nearly all the time, so each of these crash instants falls inside a flight.
func TestScenarioFollowerCrashMidFlight(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := durShort(t, p)
			o.SyncCost = 5 * time.Millisecond
			cc := o.cluster()
			victim := cc.Nodes[len(cc.Nodes)-2]
			for i := 0; i < 4; i++ {
				at := o.Warmup + 300*time.Millisecond + time.Duration(i)*1700*time.Microsecond
				r := RunScenario(o, chaos.RestartFromDisk(victim, at, 200*time.Millisecond))
				requireHealthy(t, r)
				if r.Reboots != 1 {
					t.Fatalf("crash at %v: fault log %v: want exactly 1 reboot", at, r.FaultLog)
				}
			}
		})
	}
}

// Every follower in turn stops for 20 ms and comes back with its memory (a
// plain crash and recover, what chaos.DurablePalette's Crashes family draws on
// a durable deployment), one at a time and each time with a modelled flush in
// flight. The simulator drops the completion timer that came due while the
// node was down; the replica has to notice the flush is overdue, or every
// follower ends up holding its votes for good and the cluster stops (77 of
// 192 operations on Paxos, 68 on PigPaxos).
func TestScenarioRollingCrashMidFlightKeepsVoting(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := durShort(t, p)
			o.SyncCost = 5 * time.Millisecond
			followers := o.cluster().Nodes[1:]
			sched := chaos.RollingRestart(followers, o.Warmup+100*time.Millisecond, 20*time.Millisecond, 27*time.Millisecond)
			r := RunScenario(o, sched)
			requireHealthy(t, r)
			if r.Reboots != 0 || len(r.FaultLog) != 2*len(followers) {
				t.Fatalf("fault log %v: want a crash and a recover per follower, no reboot", r.FaultLog)
			}
		})
	}
}

// Restart actions against a volatile deployment (no Durable flag — the
// resolver has no Rebooter) skip deterministically: the node is never even
// crashed, so the run matches a fault-free run.
func TestScenarioRestartSkipsWhenVolatile(t *testing.T) {
	o := scenShort(t, Paxos)
	sched := chaos.LeaderRestart(o.Warmup+300*time.Millisecond, 400*time.Millisecond)
	r := RunScenario(o, sched)
	requireHealthy(t, r)
	if len(r.FaultLog) != 0 {
		t.Errorf("volatile run executed restart actions: %v", r.FaultLog)
	}
	if r.Reboots != 0 || r.WALSyncs != 0 {
		t.Errorf("volatile run reports durability telemetry: %+v", r)
	}
}

// The durable explorer palette under both planes: every generated schedule
// (restarts, torn tails, slow disks, crashes, partitions, loss) must leave
// the cluster linearizable, complete and converged.
func TestExploreDurablePalette(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep")
	}
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := durShort(t, p)
			results := ExploreScenarios(o, chaos.ExplorerOpts{
				Seed: 7, Scenarios: 3, Allow: chaos.DurablePalette(),
			})
			for i, r := range results {
				if !r.Linearizable || !r.AllComplete || !r.Converged {
					t.Errorf("scenario %d unhealthy: %v (faults %v)", i, r, r.FaultLog)
				}
			}
		})
	}
}

// requireSafeAcked is requireHealthy for runs that override OpsPerClient
// (the shared helper hardcodes scenShort's totals).
func requireSafeAcked(t *testing.T, r ScenarioResult, want int) {
	t.Helper()
	if !r.Linearizable {
		t.Errorf("%v: history not linearizable (%d ops)", r.Protocol, r.LinChecked)
	}
	if !r.AllComplete {
		t.Errorf("%v: not every acked command was committed (clients stuck)", r.Protocol)
	}
	if !r.Converged {
		t.Errorf("%v: replica state machines diverged", r.Protocol)
	}
	if r.Acked != want {
		t.Errorf("%v: acked %d ops, want %d", r.Protocol, r.Acked, want)
	}
}

// Long run with snapshot-driven compaction: the in-memory log and the
// journal footprint must stay bounded — a replica that never compacts would
// end with every committed slot still resident.
func TestScenarioBoundedMemoryUnderSnapshots(t *testing.T) {
	o := durShort(t, Paxos)
	o.OpsPerClient = 48
	o.SnapshotEvery = 24
	sched := chaos.RestartFromDisk(o.cluster().Nodes[len(o.cluster().Nodes)-1],
		o.Warmup+400*time.Millisecond, 200*time.Millisecond)
	r := RunScenario(o, sched)
	requireSafeAcked(t, r, o.Clients*o.OpsPerClient)
	if r.Snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
	total := o.Clients * o.OpsPerClient
	// Committed slots ≈ total ops; with checkpoints every 24 executions the
	// resident log must stay far below that (floor + in-flight tail).
	if r.MaxLogLen >= total/2 {
		t.Errorf("log grew to %d entries over %d ops; compaction is not holding", r.MaxLogLen, total)
	}
	if r.MaxWALBytes == 0 {
		t.Error("no journal footprint measured")
	}
}

// A rebooted node whose journal prefix was compacted away on the leader is
// caught up via snapshot install rather than slot-by-slot replay.
func TestScenarioSnapshotCatchup(t *testing.T) {
	o := durShort(t, Paxos)
	o.OpsPerClient = 48
	o.SnapshotEvery = 16 // aggressive checkpoints → leader compacts early
	cc := o.cluster()
	victim := cc.Nodes[len(cc.Nodes)-1]
	// A long outage: the victim misses enough traffic that its cursor falls
	// below the leader's compaction floor.
	sched := chaos.RestartFromDisk(victim, o.Warmup+100*time.Millisecond, 700*time.Millisecond)
	r := RunScenario(o, sched)
	requireSafeAcked(t, r, o.Clients*o.OpsPerClient)
	if r.SnapRestores == 0 {
		t.Error("laggard was never caught up via snapshot")
	}
}

var _ = ids.ID(0) // keep the import when assertions above change
