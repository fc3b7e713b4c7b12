// Versioned JSON codec for fault schedules and the shrunk-schedule
// regression corpus. Schedules round-trip bit-identically (durations are
// serialized in time.Duration's String form, which ParseDuration inverts
// exactly), so a corpus entry replayed in CI reruns precisely the fault
// sequence that was persisted.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pigpaxos/internal/ids"
)

// CodecVersion is the schedule/corpus serialization version. Decoding
// rejects entries from unknown versions instead of guessing.
const CodecVersion = 1

// Dur is a time.Duration that marshals as its String() form — readable in
// checked-in corpus files, and an exact round trip through ParseDuration.
type Dur time.Duration

// MarshalJSON implements json.Marshaler.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("chaos: bad duration %q: %w", s, err)
	}
	*d = Dur(v)
	return nil
}

func parseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown action kind %q", s)
}

// eventJSON is Event's wire form. Node identities serialize as their raw
// uint32 values (zone<<16|node); zero-valued fields are omitted so corpus
// files stay small and diffable.
type eventJSON struct {
	At   Dur    `json:"at"`
	Kind string `json:"kind"`

	Node  uint32   `json:"node,omitempty"`
	Group int      `json:"group,omitempty"`
	SideA []uint32 `json:"side_a,omitempty"`
	SideB []uint32 `json:"side_b,omitempty"`
	From  uint32   `json:"from,omitempty"`
	To    uint32   `json:"to,omitempty"`

	Loss          float64 `json:"loss,omitempty"`
	Duplicate     float64 `json:"duplicate,omitempty"`
	Reorder       float64 `json:"reorder,omitempty"`
	ReorderWindow Dur     `json:"reorder_window,omitempty"`

	Factor      float64 `json:"factor,omitempty"`
	Zone        int     `json:"zone,omitempty"`
	ZoneB       int     `json:"zone_b,omitempty"`
	Shard       int     `json:"shard,omitempty"`
	Torn        bool    `json:"torn,omitempty"`
	SyncLatency Dur     `json:"sync_latency,omitempty"`
	Duration    Dur     `json:"duration,omitempty"`
}

func idsToU32(s []ids.ID) []uint32 {
	if len(s) == 0 {
		return nil
	}
	out := make([]uint32, len(s))
	for i, id := range s {
		out[i] = uint32(id)
	}
	return out
}

func u32ToIDs(s []uint32) []ids.ID {
	if len(s) == 0 {
		return nil
	}
	out := make([]ids.ID, len(s))
	for i, v := range s {
		out[i] = ids.ID(v)
	}
	return out
}

// MarshalJSON implements json.Marshaler, so a Schedule serializes as a
// plain array of events.
func (e Event) MarshalJSON() ([]byte, error) {
	a := e.Action
	return json.Marshal(eventJSON{
		At:   Dur(e.At),
		Kind: a.Kind.String(),

		Node:  uint32(a.Node),
		Group: a.Group,
		SideA: idsToU32(a.SideA),
		SideB: idsToU32(a.SideB),
		From:  uint32(a.From),
		To:    uint32(a.To),

		Loss:          a.Faults.Loss,
		Duplicate:     a.Faults.Duplicate,
		Reorder:       a.Faults.Reorder,
		ReorderWindow: Dur(a.Faults.ReorderWindow),

		Factor:      a.Factor,
		Zone:        a.Zone,
		ZoneB:       a.ZoneB,
		Shard:       a.Shard,
		Torn:        a.Torn,
		SyncLatency: Dur(a.SyncLatency),
		Duration:    Dur(a.Duration),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	kind, err := parseKind(j.Kind)
	if err != nil {
		return err
	}
	e.At = time.Duration(j.At)
	e.Action = Action{
		Kind:  kind,
		Node:  ids.ID(j.Node),
		Group: j.Group,
		SideA: u32ToIDs(j.SideA),
		SideB: u32ToIDs(j.SideB),
		From:  ids.ID(j.From),
		To:    ids.ID(j.To),

		Factor:      j.Factor,
		Zone:        j.Zone,
		ZoneB:       j.ZoneB,
		Shard:       j.Shard,
		Torn:        j.Torn,
		SyncLatency: time.Duration(j.SyncLatency),
		Duration:    time.Duration(j.Duration),
	}
	e.Action.Faults.Loss = j.Loss
	e.Action.Faults.Duplicate = j.Duplicate
	e.Action.Faults.Reorder = j.Reorder
	e.Action.Faults.ReorderWindow = time.Duration(j.ReorderWindow)
	return nil
}

// CorpusEntry is one persisted regression scenario: a (typically shrunk)
// fault schedule plus the scenario configuration needed to replay it
// faithfully — the harness's corpus replay test rebuilds ScenarioOptions
// from these fields and asserts the run comes back clean.
type CorpusEntry struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Origin records how the entry was found — the sweep command line and
	// seed that reproduce it.
	Origin string `json:"origin,omitempty"`
	// Failure names the predicate that originally fired (see the
	// harness's ScenarioResult.Failure kinds).
	Failure string `json:"failure,omitempty"`

	// Scenario configuration. Protocol is the harness protocol's String()
	// form; Groups is the relay-group count (PigPaxos).
	Protocol     string `json:"protocol"`
	N            int    `json:"n"`
	Clients      int    `json:"clients"`
	OpsPerClient int    `json:"ops_per_client,omitempty"`
	Groups       int    `json:"groups,omitempty"`
	Seed         int64  `json:"seed"`
	Warmup       Dur    `json:"warmup"`
	Measure      Dur    `json:"measure"`
	WAN          bool   `json:"wan,omitempty"`
	Durable      bool   `json:"durable,omitempty"`

	Schedule Schedule `json:"schedule"`
}

// HealBy is the validation deadline the entry's schedule must meet: the
// end of its measurement window.
func (e CorpusEntry) HealBy() time.Duration {
	return time.Duration(e.Warmup) + time.Duration(e.Measure)
}

// EncodeCorpusEntry renders the entry as indented JSON, stamping the
// current codec version.
func EncodeCorpusEntry(e CorpusEntry) ([]byte, error) {
	e.Version = CodecVersion
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeCorpusEntry parses an entry, rejecting unknown codec versions.
func DecodeCorpusEntry(b []byte) (CorpusEntry, error) {
	var e CorpusEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return CorpusEntry{}, err
	}
	if e.Version != CodecVersion {
		return CorpusEntry{}, fmt.Errorf("chaos: corpus entry %q has codec version %d, this build reads %d",
			e.Name, e.Version, CodecVersion)
	}
	return e, nil
}

// LoadCorpusDir reads every *.json corpus entry under dir, sorted by file
// name so replay order is stable. A missing directory is an empty corpus,
// not an error.
func LoadCorpusDir(dir string) ([]CorpusEntry, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range entries {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	out := make([]CorpusEntry, 0, len(names))
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		e, err := DecodeCorpusEntry(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// WriteCorpusEntry persists the entry under dir as <Name>.json and
// returns the path. The sweep writes shrunk failures through this, both
// into the checked-in corpus and as CI artifacts.
func WriteCorpusEntry(dir string, e CorpusEntry) (string, error) {
	if e.Name == "" {
		return "", fmt.Errorf("chaos: corpus entry needs a Name")
	}
	b, err := EncodeCorpusEntry(e)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, e.Name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
