package main

import "strings"

// layerRules maps profiled functions to the layers the cpu.* shares
// report. A sample belongs to the layer of the innermost frame on its
// stack that matches a rule; samples with no matching frame belong to no
// layer (the harness, the explorer's own loop, the scheduler, and so on).
// A rule matches a function whose full name starts with prefix and ends
// with suffix.
//
// Every rule must match a function in a profile of the workloads; the
// self-test enforces it, so a rename fails the test instead of silently
// reading 0%.
var layerRules = []struct{ layer, prefix, suffix string }{
	// Successor generation: event application and the protocols' step
	// functions. The sim.Predictor transition cache is absent on purpose:
	// the checker consults it only when exploring without a problem, so
	// Check never reaches it.
	{"successors", "repro/internal/sim.Apply", ""},
	{"successors", "repro/internal/sim.AppendEnabled", ""},
	{"successors", "repro/internal/protocols.", ".Receive"},
	{"successors", "repro/internal/protocols.", ".SendStep"},

	// State hashing: digests, fingerprints, and the protocols' state and
	// payload keys.
	{"hashing", "repro/internal/sim.StateDigest", ""},
	{"hashing", "repro/internal/sim.(*Config).Fingerprint", ""},
	{"hashing", "repro/internal/fingerprint.", ""},
	{"hashing", "repro/internal/protocols.", ".Key"},

	// Symmetry canonicalization and dead-letter erasure. The symmetry
	// package only builds the automorphism group, once per exploration;
	// the per-successor work is the checker's canonicalizeSucc.
	{"canonicalize", "repro/internal/sim.PermuteConfig", ""},
	{"canonicalize", "repro/internal/sim.(*Config).WithoutDeadBuffers", ""},
	{"canonicalize", "repro/internal/protocols.", ".PermuteProcs"},
	{"canonicalize", "repro/internal/checker.(*explorer).canonicalizeSucc", ""},

	// Visited sets and the speculative pool.
	{"dedup", "repro/internal/frontier.(*SeqVisited).", ""},
	{"dedup", "repro/internal/frontier.(*FPVisitedSet).", ""},
	{"pool", "repro/internal/frontier.(*Pool[", ""},

	// Problem predicates: the checker's inline conformance and the
	// taxonomy's validators and StreamChecker.
	{"conformance", "repro/internal/taxonomy.", ""},
	{"conformance", "repro/internal/checker.decisionEdgeViolations", ""},
	{"conformance", "repro/internal/checker.nodeViolations", ""},

	// Garbage collection: background marking and mutator assists.
	{"gc", "runtime.gcBgMarkWorker", ""},
	{"gc", "runtime.gcAssistAlloc", ""},

	// The live runtime: wire codec, lossy transport, mailboxes, detector.
	{"codec", "repro/internal/runtime.EncodeMessage", ""},
	{"codec", "repro/internal/runtime.DedupKey", ""},
	{"transport", "repro/internal/runtime.(*Network).", ""},
	{"transport", "repro/internal/runtime.FaultPlan.", ""},
	{"mailbox", "repro/internal/runtime.(*mailbox).", ""},
	{"detector", "repro/internal/runtime.(*detector).", ""},
}

// layerNames lists the layers in report order.
var layerNames = []string{
	"successors", "hashing", "canonicalize", "dedup", "pool", "conformance",
	"gc", "codec", "transport", "mailbox", "detector",
}

// layerOf returns the layer of one function name, or "".
func layerOf(fn string) string {
	for _, r := range layerRules {
		if strings.HasPrefix(fn, r.prefix) && strings.HasSuffix(fn, r.suffix) {
			return r.layer
		}
	}
	return ""
}

// attribute returns each layer's share of the profile's samples and the
// total sample count.
func attribute(p *cpuProfile) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for i, st := range p.stacks {
		total += p.counts[i]
		for _, fn := range st {
			if l := layerOf(fn); l != "" {
				counts[l] += p.counts[i]
				break
			}
		}
	}
	shares := map[string]float64{}
	for _, l := range layerNames {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	return shares, total
}
