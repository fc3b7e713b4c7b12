package pigpaxos

// The evaluation as Go benchmarks: one sub-benchmark per row of
// harness.Claims (Tables 1-2, Figures 7-13, the §6.1 utilization study, the
// batching sweep and the ablations), each running the row on the
// deterministic simulator at the quick suite's resolution and reporting
// every number it records through b.ReportMetric, so
//
//	go test -run xxx -bench Claims -benchtime 1x .
//
// regenerates the entire evaluation at reduced resolution. cmd/pigbench
// runs the full-resolution sweeps and prints each claim's verdict
// (`pigbench -all`, or `-claim ID`); the README's Claims section lists them.

import (
	"testing"

	"pigpaxos/internal/harness"
)

func BenchmarkClaims(b *testing.B) {
	for _, c := range harness.Claims {
		b.Run(c.ID, func(b *testing.B) {
			for b.Loop() {
				rep := c.Run(harness.QuickSuite())
				for k, v := range rep.Raw {
					b.ReportMetric(v, k)
				}
			}
		})
	}
}
