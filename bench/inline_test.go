package main

import "testing"

// TestInlineCountsRepeatExactly runs the inline pass twice in one process:
// every count must come out identical, and the message counts must be the
// ones the protocol's shape dictates.
func TestInlineCountsRepeatExactly(t *testing.T) {
	for _, name := range []string{"tcp5-pig", "tcp3-wal-b16"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := runInline(w, 5, 1), runInline(w, 5, 1)
		if a.failed != 0 || b.failed != 0 {
			t.Fatalf("%s: %d and %d failed ops", name, a.failed, b.failed)
		}
		for _, c := range []struct {
			what string
			x, y float64
		}{
			{"leader msgs/op", a.leaderMsgsPerOp, b.leaderMsgsPerOp},
			{"cluster msgs/op", a.clusterMsgsPerOp, b.clusterMsgsPerOp},
			{"wire bytes/op", a.bytesPerOp, b.bytesPerOp},
			{"batch mean", a.batchMean, b.batchMean},
			{"wal syncs/op", a.walSyncsPerOp, b.walSyncsPerOp},
			{"wal bytes/op", a.walBytesPerOp, b.walBytesPerOp},
		} {
			if c.x != c.y {
				t.Errorf("%s: %s differs between two runs: %v vs %v", name, c.what, c.x, c.y)
			}
		}
		switch name {
		case "tcp5-pig":
			// Request, 2 RelayP2a, 2 relayed P2a, 2 P2b, 2 AggP2b, Reply.
			if a.clusterMsgsPerOp != 10 || a.leaderMsgsPerOp != 3 {
				t.Errorf("tcp5-pig: %v cluster and %v leader msgs/op, want 10 and 3", a.clusterMsgsPerOp, a.leaderMsgsPerOp)
			}
			if a.walSyncsPerOp != 0 || a.batchMean != 1 {
				t.Errorf("tcp5-pig: %v syncs/op, batch mean %v; want 0 and 1", a.walSyncsPerOp, a.batchMean)
			}
		case "tcp3-wal-b16":
			// FIFO delivery lets a commit land between the requests its
			// replies triggered, so batches settle below the cap of 16.
			if a.batchMean < 4 || a.batchMean > 16 {
				t.Errorf("tcp3-wal-b16: batch mean %v, want 4..16", a.batchMean)
			}
			// One group fsync per slot at each of the three replicas.
			if want := 3 / a.batchMean; a.walSyncsPerOp < want*0.99 || a.walSyncsPerOp > want*1.01 {
				t.Errorf("tcp3-wal-b16: %v syncs/op, want about %v", a.walSyncsPerOp, want)
			}
		}
	}
}
