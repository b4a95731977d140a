package checker

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/frontier"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// exploreDigest renders every observable field of an Exploration into one
// canonical string, so "byte-identical results" is literally a string
// comparison. Interned state keys and Configs are emitted in discovery
// order; the aggregate States map is emitted sorted by key with its sets
// sorted, since map-valued aggregates carry no order of their own.
func exploreDigest(x *Exploration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d status=%v frontier=%d terminals=%d\n",
		x.NodeCount, x.Status, x.FrontierSize, x.Terminals)
	for i, k := range x.stateKeys {
		fmt.Fprintf(&sb, "S%d %s\n", i, k)
	}
	for i := range x.Configs {
		c := &x.Configs[i]
		fmt.Fprintf(&sb, "C %v %v %s %v\n", c.StateIdx, c.Ledger, c.InputsVec, c.Terminal)
	}
	keys := make([]string, 0, len(x.States))
	for k := range x.States {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		si := x.States[k]
		procs := make([]int, 0, len(si.Procs))
		for p := range si.Procs {
			procs = append(procs, int(p))
		}
		sort.Ints(procs)
		fmt.Fprintf(&sb, "I %s sample=%s empty=%v procs=%v inputs=%v conc=%v\n",
			k, si.Sample.Key(), si.SeenEmptyBuffer, procs,
			sortedSet(si.Inputs), sortedSet(si.Conc))
	}
	for _, v := range x.Violations {
		fmt.Fprintf(&sb, "V %s %s\n", v.Kind, v.Detail)
	}
	for _, s := range x.FirstTrace {
		fmt.Fprintf(&sb, "T %s\n", s)
	}
	return sb.String()
}

func sortedSet(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// diffCase is one protocol/options pair checked across dedup engines.
// Budget-capped cases deliberately stop mid-space: the partial result of a
// budget-exhausted exploration is part of the determinism contract.
type diffCase struct {
	name  string
	proto sim.Protocol
	opts  Options
}

func diffCases() []diffCase {
	return []diffCase{
		// Complete explorations: the whole reachable space, so the full
		// census (states, concurrency sets, terminals) is diffed.
		{"tree-mf0", protocols.Tree{Procs: 3}, Options{MaxFailures: 0}},
		{"fullexchange-mf0", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 0}},
		// Budget-capped explorations: failure injection blows up the
		// space, so these exercise the deterministic mid-merge budget
		// stop (exact NodeCount, frontier snapshot, violation prefix).
		{"tree-mf2", protocols.Tree{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
		{"star-mf2", protocols.Star{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
		{"chain-mf2", protocols.Chain{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
		{"perverse-mf1", protocols.Perverse{}, Options{MaxFailures: 1, MaxNodes: 6000}},
		{"ackcommit-mf2", protocols.AckCommit{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
		{"haltingcommit-mf2", protocols.HaltingCommit{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
	}
}

// diffDedups is the set of dedup engines the differential suite pits
// against each other: the string-keyed reference engine, the default
// fingerprint engine, and the collision-verification engine. Every engine
// must reproduce the reference result byte for byte.
var diffDedups = []frontier.Dedup{frontier.DedupStrings, frontier.DedupFingerprint, frontier.DedupVerified}

// TestExploreDifferential asserts that exploring every library protocol
// with every dedup engine produces byte-identical results: node counts,
// interned state keys, configuration records, the aggregate state census,
// violations in order, and FirstTrace. The string-keyed run is the
// reference.
func TestExploreDifferential(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			prob := problem(taxonomy.WT, taxonomy.TC)
			var baseDigest, baseErr string
			first := true
			for _, dedup := range diffDedups {
				opts := tc.opts
				opts.Dedup = dedup
				opts.Problem = &prob
				opts.TrackTraces = true
				x, err := ExploreContext(context.Background(), tc.proto, opts)
				if x == nil {
					t.Fatalf("%v: nil exploration (err=%v)", dedup, err)
				}
				if x.Collisions != 0 {
					t.Errorf("%v: %d fingerprint collisions", dedup, x.Collisions)
				}
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				d := exploreDigest(x)
				if first {
					baseDigest, baseErr = d, errStr
					first = false
					continue
				}
				if errStr != baseErr {
					t.Errorf("%v: err = %q, want %q", dedup, errStr, baseErr)
				}
				if d != baseDigest {
					t.Errorf("%v: exploration diverges from string-keyed reference:\n%s",
						dedup, firstDiff(baseDigest, d))
				}
			}
		})
	}
}

// TestExploreOmissionDifferential asserts the same determinism contract
// for omission-faulted explorations: every dedup engine must reproduce the
// string-keyed result byte for byte — verdict, node counts, and the full
// state census — with omission budgets enabled, both for complete
// explorations and for budget-capped partial ones (the budget stop must
// land on the same node under every engine). Reductions are disabled
// under omissions (DESIGN.md §8), so these rows always explore the full
// graph.
func TestExploreOmissionDifferential(t *testing.T) {
	cases := []diffCase{
		// Complete: the whole omission-augmented space.
		{"tree-ob2", protocols.Tree{Procs: 3}, Options{MaxFailures: 0, OmissionBudget: 2}},
		{"tree-ob2-mobile1", protocols.Tree{Procs: 3}, Options{MaxFailures: 0, OmissionBudget: 2, MobileOmissions: 1}},
		{"ackcommit-mf1-ob1", protocols.AckCommit{Procs: 3}, Options{MaxFailures: 1, OmissionBudget: 1}},
		// Budget-partial: crash + omission injection blows up the space;
		// the deterministic node-budget stop is part of the contract.
		{"star-mf2-ob2-capped", protocols.Star{Procs: 3}, Options{MaxFailures: 2, OmissionBudget: 2, MobileOmissions: 1, MaxNodes: 6000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob := problem(taxonomy.WT, taxonomy.TC)
			var baseDigest, baseErr string
			first := true
			for _, dedup := range []frontier.Dedup{frontier.DedupStrings, frontier.DedupFingerprint} {
				opts := tc.opts
				opts.Dedup = dedup
				opts.Problem = &prob
				opts.TrackTraces = true
				x, err := ExploreContext(context.Background(), tc.proto, opts)
				if x == nil {
					t.Fatalf("%v: nil exploration (err=%v)", dedup, err)
				}
				if x.Collisions != 0 {
					t.Errorf("%v: %d fingerprint collisions", dedup, x.Collisions)
				}
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				d := exploreDigest(x)
				if first {
					baseDigest, baseErr = d, errStr
					first = false
					continue
				}
				if errStr != baseErr {
					t.Errorf("%v: err = %q, want %q", dedup, errStr, baseErr)
				}
				if d != baseDigest {
					t.Errorf("%v: omission exploration diverges from string-keyed reference:\n%s",
						dedup, firstDiff(baseDigest, d))
				}
			}
		})
	}
}

// TestExploreDifferentialCancelled asserts that a cancelled context yields
// identical partial results — Status, NodeCount, FrontierSize, and the full
// digest — under every dedup engine.
func TestExploreDifferentialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prob := problem(taxonomy.WT, taxonomy.TC)
	var baseDigest string
	for i, dedup := range diffDedups {
		x, err := ExploreContext(ctx, protocols.Star{Procs: 3}, Options{
			MaxFailures: 2, Dedup: dedup, Problem: &prob, TrackTraces: true,
		})
		if x == nil {
			t.Fatalf("%v: nil exploration", dedup)
		}
		if err == nil || x.Status != StatusInterrupted {
			t.Fatalf("%v: status = %v, err = %v, want interrupted", dedup, x.Status, err)
		}
		d := exploreDigest(x)
		if i == 0 {
			baseDigest = d
			if x.NodeCount < 1 || x.FrontierSize < 1 {
				t.Fatalf("cancelled exploration lost its partial snapshot: %d nodes, %d frontier", x.NodeCount, x.FrontierSize)
			}
			continue
		}
		if d != baseDigest {
			t.Errorf("%v: cancelled partial result diverges:\n%s", dedup, firstDiff(baseDigest, d))
		}
	}
}

// firstDiff locates the first line where two digests diverge, for a readable
// failure instead of two multi-megabyte strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("digest lengths differ: %d vs %d lines", len(al), len(bl))
}
