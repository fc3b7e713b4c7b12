package chaos

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pigpaxos/internal/config"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explore_golden.json from this tree's output")

// TestExploreGolden pins the explorer's output: every palette's schedules at
// two seeds, compared byte-for-byte with testdata/explore_golden.json. A
// change to a generator's registration order, window bounds or RNG draw
// order moves every later draw, so it shows up here as a diff.
// `go test -run ExploreGolden -update` rewrites the file.
func TestExploreGolden(t *testing.T) {
	lan, wan := config.NewLAN(5), config.NewWAN3(9)
	palettes := []struct {
		name  string
		allow Palette
		cc    config.Cluster
	}{
		{"full", FullPalette(), lan},
		{"epaxos", EPaxosPalette(), lan},
		{"durable", DurablePalette(), lan},
		{"wan", WANPalette(), wan},
	}
	type entry struct {
		Palette   string     `json:"palette"`
		Seed      int64      `json:"seed"`
		Schedules []Schedule `json:"schedules"`
	}
	var entries []entry
	for _, p := range palettes {
		for _, seed := range []int64{42, 1337} {
			// A one-zone Cluster leaves the region generators out.
			opts := ExplorerOpts{Seed: seed, Scenarios: 8, Nodes: p.cc.Nodes, Allow: p.allow, Cluster: p.cc}
			entries = append(entries, entry{p.name, seed, Explore(opts)})
		}
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "explore_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("explore golden mismatch at line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("explore golden mismatch: got %d lines, want %d", len(gl), len(wl))
}
