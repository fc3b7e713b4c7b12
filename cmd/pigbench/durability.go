// Durable restart suite (-scenario restart): honest crash-restarts rebuilt
// from snapshot + WAL tail under the disk-fault chaos family, the fsync cost
// ablation, and a real-filesystem recovery-latency microbenchmark.
package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/config"
	"pigpaxos/internal/harness"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wal"
)

// printRestart renders one durable restart result. The benchfmt line is
// what CI keeps as bench_durable.txt.
func printRestart(name string, r harness.ScenarioResult, deterministic, benchfmt bool) {
	if benchfmt {
		fmt.Printf("BenchmarkRestart/%s/%s 1 %.3f avail-gap-ms %.3f recovery-ms %.0f req/s %d acked %d linearizable %d recovered %d reboots %d snap-restores %d wal-syncs %d deterministic\n",
			r.Protocol, name,
			float64(r.AvailabilityGap.Microseconds())/1000,
			float64(r.RecoveryLatency.Microseconds())/1000,
			r.Throughput,
			r.Acked, b2i(r.Linearizable), b2i(r.AllComplete && r.Converged),
			r.Reboots, int(r.SnapRestores), int(r.WALSyncs), b2i(deterministic))
		return
	}
	fmt.Printf("%-10s %-22s acked=%-5d gap=%-12v reboots=%d snap-restores=%-3d wal-syncs=%-5d lin=%v recovered=%v deterministic=%v\n",
		r.Protocol, name, r.Acked, r.AvailabilityGap,
		r.Reboots, r.SnapRestores, r.WALSyncs,
		r.Linearizable, r.AllComplete && r.Converged, deterministic)
	for _, a := range r.FaultLog {
		fmt.Printf("    fault: %v\n", a)
	}
}

// runRestartSuite gates the durable deployment: every scenario must stay
// linearizable, complete and converged with the expected number of honest
// reboots, bit-identically across reruns at one seed.
func runRestartSuite(suite harness.Suite, benchfmt bool) error {
	nodes := config.NewLAN(9).Nodes
	for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
		o := scenarioBase(p, suite)
		o.Durable = true
		o.SnapshotEvery = 64
		at := o.Warmup + 300*time.Millisecond
		cases := []struct {
			name    string
			sched   chaos.Schedule
			reboots int
		}{
			{"restart-leader", chaos.LeaderRestart(at, 400*time.Millisecond), 1},
			{"torn-tail", chaos.TornRestart(nodes[len(nodes)-1], at, 300*time.Millisecond), 1},
			{"rolling-reboot", chaos.RollingReboot(nodes[len(nodes)-3:], at,
				150*time.Millisecond, 300*time.Millisecond), 3},
			{"disk-slow", chaos.DiskSlowWindow(nodes[0], 5*time.Millisecond, at,
				500*time.Millisecond), 0},
		}
		for _, tc := range cases {
			r := harness.RunScenario(o, tc.sched)
			again := harness.RunScenario(o, tc.sched)
			det := reflect.DeepEqual(r, again)
			printRestart(tc.name, r, det, benchfmt)
			if !r.Linearizable || !(r.AllComplete && r.Converged) {
				return fmt.Errorf("restart %s/%s: lin=%v recovered=%v",
					p, tc.name, r.Linearizable, r.AllComplete && r.Converged)
			}
			if r.Reboots != tc.reboots {
				return fmt.Errorf("restart %s/%s: %d reboots, want %d (faults %v)",
					p, tc.name, r.Reboots, tc.reboots, r.FaultLog)
			}
			if tc.name == "restart-leader" && r.SnapRestores == 0 {
				return fmt.Errorf("restart %s: leader rebooted without restoring a snapshot", p)
			}
			if !det {
				return fmt.Errorf("restart %s/%s: two runs at seed %d are not bit-identical",
					p, tc.name, o.Seed)
			}
		}
	}
	if err := fsyncAblation(suite, benchfmt); err != nil {
		return err
	}
	return recoveryBench(benchfmt)
}

// fsyncAblation measures what durability costs: the same fault-free run with
// the journal off (the volatile seed behaviour) and on (sync-before-vote at
// 400µs per fsync, group-committed per batch).
func fsyncAblation(suite harness.Suite, benchfmt bool) error {
	for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
		for _, durable := range []bool{false, true} {
			o := scenarioBase(p, suite)
			o.Durable = durable
			o.SnapshotEvery = 64
			name := "fsync-off"
			if durable {
				name = "fsync-on"
			}
			r := harness.RunScenario(o, nil)
			if !r.Linearizable || !(r.AllComplete && r.Converged) {
				return fmt.Errorf("durability %s/%s: lin=%v recovered=%v",
					p, name, r.Linearizable, r.AllComplete && r.Converged)
			}
			if benchfmt {
				fmt.Printf("BenchmarkDurability/%s/%s 1 %.0f req/s %.3f p99-ms %d wal-syncs %d snapshots\n",
					p, name, r.Throughput,
					float64(r.Latency.P99.Microseconds())/1000,
					int(r.WALSyncs), int(r.Snapshots))
				continue
			}
			fmt.Printf("%-10s %-22s tput=%-8.0f p99=%-10v wal-syncs=%-5d snapshots=%d\n",
				p, name, r.Throughput, r.Latency.P99, r.WALSyncs, r.Snapshots)
		}
	}
	return nil
}

// recoveryBench measures wall-clock crash recovery against snapshot age on a
// real filesystem: a FileStorage holding one checkpoint plus a journal tail
// of `age` committed slots is reopened and fully replayed — exactly the work
// a rebooting replica does before it rejoins. Older snapshots mean longer
// tails and proportionally slower recovery; that curve is the case for the
// snapshot cadence knob.
func recoveryBench(benchfmt bool) error {
	for _, age := range []int{256, 1024, 4096, 16384} {
		dir, err := os.MkdirTemp("", "pigbench-wal-*")
		if err != nil {
			return fmt.Errorf("recovery bench: %v", err)
		}
		st, err := wal.OpenFile(dir)
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("recovery bench: %v", err)
		}
		b := ids.NewBallot(1, ids.NewID(1, 1))
		if err := st.SaveSnapshot(wal.Snapshot{Floor: 1, Data: []byte{1}}); err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("recovery bench: %v", err)
		}
		var bytes int
		for slot := uint64(1); slot <= uint64(age); slot++ {
			cmds := []kvstore.Command{{Op: kvstore.Put, Key: slot, Value: []byte("payload-16-bytes"), ClientID: 7, Seq: slot}}
			for _, kind := range []wal.Kind{wal.KindAccept, wal.KindCommit} {
				if err := st.Append(wal.Record{Kind: kind, Ballot: b, Slot: slot, Cmds: cmds}); err != nil {
					os.RemoveAll(dir)
					return fmt.Errorf("recovery bench: %v", err)
				}
			}
			if slot%64 == 0 {
				if _, err := st.Sync(); err != nil {
					os.RemoveAll(dir)
					return fmt.Errorf("recovery bench: %v", err)
				}
			}
		}
		if _, err := st.Sync(); err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("recovery bench: %v", err)
		}
		st.Close()

		start := time.Now()
		re, err := wal.OpenFile(dir)
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("recovery bench: reopen: %v", err)
		}
		var records int
		err = re.Replay(func(rec wal.Record) error {
			records++
			for _, c := range rec.Cmds {
				bytes += len(c.Value)
			}
			return nil
		})
		elapsed := time.Since(start)
		re.Close()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("recovery bench: replay: %v", err)
		}
		if records != 2*age {
			return fmt.Errorf("recovery bench: replayed %d records, want %d", records, 2*age)
		}
		if benchfmt {
			fmt.Printf("BenchmarkRecovery/tail=%d 1 %.3f ms %d records %d bytes\n",
				age, float64(elapsed.Microseconds())/1000, records, bytes)
			continue
		}
		fmt.Printf("recovery   tail=%-6d replay=%-10v records=%-6d payload=%dB\n",
			age, elapsed.Round(10*time.Microsecond), records, bytes)
	}
	return nil
}
