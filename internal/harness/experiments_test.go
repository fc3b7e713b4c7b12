package harness

import (
	"strings"
	"testing"
)

// TestClaimsHold runs every ledger row at the quick suite's resolution and
// seed and asserts its check: each claim the evaluation makes is backed by
// the number it measures. A check that passes on a report with no numbers
// checks nothing, so that fails too.
func TestClaimsHold(t *testing.T) {
	suite := QuickSuite()
	for _, c := range Claims {
		t.Run(c.ID, func(t *testing.T) {
			if c.Check == nil || c.Run == nil || c.Says == "" {
				t.Fatalf("claim %q needs a Says, a Run and a Check", c.ID)
			}
			if c.Check(Report{}) == nil {
				t.Fatalf("claim %q holds on an empty report", c.ID)
			}
			if testing.Short() {
				t.Skip("sweep")
			}
			t.Parallel()
			rep := c.Run(suite)
			if err := c.Check(rep); err != nil {
				t.Errorf("%s (%s) — %s\n%s\nFAILS: %v", c.ID, c.Section, c.Says, rep, err)
			}
		})
	}
}

// Table 2's analytical rows, without the claim row's simulated count.
func TestTable2CrossCheck(t *testing.T) {
	rep := messageLoadTable("Table 2", 9, []int{2, 3, 4})
	if rep.Raw["Ml_r8"] != 18 {
		t.Errorf("9-node Paxos Ml = %v, want 18", rep.Raw["Ml_r8"])
	}
	if rep.Raw["Mf_r2"] != 3.5 {
		t.Errorf("9-node Mf(r=2) = %v, want 3.5", rep.Raw["Mf_r2"])
	}
}

// The model's degenerate Paxos case against the direct plane (the §6.1
// cross-validation), counted from total messages over served requests
// rather than the executions the table2 row divides by.
func TestAnalyticalModelMatchesSimulation(t *testing.T) {
	o := QuickSuite().on(Paxos, 9, 0, 20)
	r := Run(o)
	// Per request: 16 P2a/P2b cluster messages + client request/reply.
	perReq := float64(r.Messages) / (r.Throughput * o.Measure.Seconds())
	if perReq < 16 || perReq > 22 {
		t.Errorf("Paxos cluster messages per request = %.1f, want ≈ 18", perReq)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{ID: "X", Title: "T", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	s := rep.String()
	if !strings.Contains(s, "== X: T ==") || !strings.Contains(s, "1") {
		t.Errorf("report format: %q", s)
	}
}
