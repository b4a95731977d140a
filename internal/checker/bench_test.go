package checker

import (
	"testing"

	"repro/internal/frontier"
	"repro/internal/protocols"
)

// BenchmarkExploreDedup pits the three visited-set engines against each
// other on the standard tree(N=3) two-failure space — the configuration
// tracked in BENCH_explore.json. DedupStrings is the old string-keyed
// engine; the gap to DedupFingerprint is the win this package's
// fingerprint fast path buys.
func BenchmarkExploreDedup(b *testing.B) {
	for _, dedup := range []frontier.Dedup{frontier.DedupStrings, frontier.DedupVerified, frontier.DedupFingerprint} {
		b.Run(dedup.String(), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				x, err := Explore(protocols.Tree{Procs: 3}, Options{MaxFailures: 2, Dedup: dedup})
				if err != nil {
					b.Fatal(err)
				}
				nodes = x.NodeCount
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}
