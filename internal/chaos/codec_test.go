package chaos

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/netsim"
)

// codecSchedule exercises every serialized field across the kind families.
func codecSchedule() Schedule {
	s := Schedule{
		{At: 200 * time.Millisecond, Action: Action{Kind: Crash, Node: ids.NewID(1, 2), Duration: 300 * time.Millisecond}},
		{At: 250 * time.Millisecond, Action: Action{Kind: CrashLeader, Duration: 150 * time.Millisecond}},
		{At: 300 * time.Millisecond, Action: Action{Kind: CrashRelay, Group: 2, Duration: 100 * time.Millisecond}},
		{At: 400 * time.Millisecond, Action: Action{
			Kind:     PartitionCut,
			SideA:    []ids.ID{ids.NewID(1, 4)},
			SideB:    []ids.ID{ids.NewID(1, 0), ids.NewID(1, 1), ids.NewID(1, 2), ids.NewID(1, 3)},
			Duration: 200 * time.Millisecond,
		}},
		{At: 500 * time.Millisecond, Action: Action{
			Kind: LinkFault,
			Faults: netsim.LinkFaults{
				Loss: 0.03, Duplicate: 0.02, Reorder: 0.11, ReorderWindow: 2 * time.Millisecond,
			},
			Duration: 400 * time.Millisecond,
		}},
		{At: 600 * time.Millisecond, Action: Action{Kind: Sluggish, Node: ids.NewID(2, 1), Factor: 4.5, Duration: 250 * time.Millisecond}},
		{At: 700 * time.Millisecond, Action: Action{Kind: RegionPartition, Zone: 2, Duration: 300 * time.Millisecond}},
		{At: 750 * time.Millisecond, Action: Action{Kind: WANDegrade, Zone: 1, ZoneB: 3, Duration: 200 * time.Millisecond}},
		{At: 800 * time.Millisecond, Action: Action{Kind: LeaderPlacementFlip, Zone: 3}},
		{At: 900 * time.Millisecond, Action: Action{Kind: TornTail, Node: ids.NewID(1, 3), Torn: true, Duration: 200 * time.Millisecond}},
		{At: 950 * time.Millisecond, Action: Action{Kind: DiskSlow, Node: ids.NewID(1, 1), SyncLatency: 1500 * time.Microsecond, Duration: 300 * time.Millisecond}},
		{At: 1000 * time.Millisecond, Action: Action{Kind: CrashShardLeader, Shard: 1, Duration: 100 * time.Millisecond}},
	}
	s.Sort()
	return s
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	in := codecSchedule()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Schedule
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
	// Second encode must be byte-identical — the corpus diffs cleanly.
	b2, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestEventJSONRejectsUnknownKind(t *testing.T) {
	var ev Event
	err := json.Unmarshal([]byte(`{"at":"1s","kind":"meteor-strike"}`), &ev)
	if err == nil || !strings.Contains(err.Error(), "meteor-strike") {
		t.Fatalf("want unknown-kind error, got %v", err)
	}
}

func TestCorpusEntryRoundTripAndVersionCheck(t *testing.T) {
	e := CorpusEntry{
		Name:     "crash-under-loss",
		Origin:   "pigbench -scenario sweep -seed 20260808",
		Failure:  "incomplete",
		Protocol: "pigpaxos",
		N:        9, Clients: 8, OpsPerClient: 24, Groups: 3, Seed: 42,
		Warmup:  Dur(200 * time.Millisecond),
		Measure: Dur(1 * time.Second),
		Schedule: Schedule{
			{At: 300 * time.Millisecond, Action: Action{Kind: Crash, Node: ids.NewID(1, 4), Duration: 200 * time.Millisecond}},
		},
	}
	b, err := EncodeCorpusEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCorpusEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	e.Version = CodecVersion // Encode stamps it
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", e, got)
	}
	if got.HealBy() != 1200*time.Millisecond {
		t.Fatalf("HealBy = %v, want 1.2s", got.HealBy())
	}

	bad := bytes.Replace(b, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	if !bytes.Contains(bad, []byte(`"version": 99`)) {
		t.Fatal("test setup: version field not found to corrupt")
	}
	if _, err := DecodeCorpusEntry(bad); err == nil {
		t.Fatal("decoded an entry from a future codec version")
	}
}

func TestWriteAndLoadCorpusDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b-second", "a-first"} {
		e := CorpusEntry{
			Name: name, Protocol: "paxos", N: 5, Clients: 4, Seed: 7,
			Warmup: Dur(200 * time.Millisecond), Measure: Dur(time.Second),
			Schedule: Schedule{
				{At: 300 * time.Millisecond, Action: Action{Kind: CrashLeader, Duration: 200 * time.Millisecond}},
			},
		}
		if _, err := WriteCorpusEntry(dir, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a-first" || got[1].Name != "b-second" {
		t.Fatalf("load order wrong: %+v", got)
	}
	// A missing directory is an empty corpus.
	empty, err := LoadCorpusDir(dir + "/nope")
	if err != nil || len(empty) != 0 {
		t.Fatalf("missing dir: got %v, %v", empty, err)
	}
}

// TestCorpusEntriesValid replays the checked-in corpus at the chaos level:
// every entry must decode under the current codec version and carry a
// schedule that Validate accepts for its recorded cluster.
// The harness's corpus test replays the entries through full protocol sims.
func TestCorpusEntriesValid(t *testing.T) {
	entries, err := LoadCorpusDir("corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("checked-in corpus is empty")
	}
	for _, e := range entries {
		if e.N < 3 || e.Protocol == "" || len(e.Schedule) == 0 {
			t.Errorf("%s: underspecified entry: %+v", e.Name, e)
			continue
		}
		cc := config.NewLAN(e.N)
		if e.WAN {
			cc = config.NewWAN3(e.N)
		}
		if err := Validate(e.Schedule, cc, e.HealBy()); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}
