package checker

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/frontier"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/symmetry"
	"repro/internal/taxonomy"
)

// The reduction differential suite cross-checks every reduced mode against
// the unreduced string-keyed engine. A reduced exploration visits a
// different (smaller) node set, so the byte-level digest is NOT expected to
// match the reference; what must match is the semantics the reductions
// promise to preserve:
//
//   - the verdict: the set of violation kinds (ample modes additionally
//     preserve every violation's decide-edge context, but instance counts
//     shrink with the edge set);
//   - the decision census: the set of (inputs vector, decision ledger)
//     pairs over terminal configurations — exactly under ample modes,
//     up to processor relabeling under symmetry modes;
//   - the local-state census under ample modes (run commutation preserves
//     each processor's local history; dead-letter elision never touches a
//     local state);
//   - trace validity: a violating reduced run carries a non-empty
//     FirstTrace, a conforming one carries none.
//
// Reduced runs must additionally be deterministic: byte-identical results
// per (mode, dedup engine) across repeated runs, including budget-partial
// and cancelled runs.
var reductionModes = []Reduction{ReduceAmple, ReduceSymmetry, ReduceBoth}

// reductionRepeats is how often the determinism tests repeat each reduced
// run; every repeat must reproduce the first byte for byte.
const reductionRepeats = 2

// reductionDedups are the engines the reduced matrix runs on. The verified
// engine rides along in the partial-determinism matrix; here the
// string-keyed and fingerprint engines cover both canonical-handle
// representations (minimal key vs minimal digest pick different orbit
// representatives, so engines are compared semantically, not byte-wise).
var reductionDedups = []frontier.Dedup{frontier.DedupStrings, frontier.DedupFingerprint}

// reductionCase is one complete exploration compared semantically against
// the unreduced reference. Perverse is absent: its mf≥1 state space does
// not terminate within any practical budget (it is the cyclic stress
// protocol), so it appears only in the partial and cancelled matrices.
type reductionCase struct {
	name  string
	proto sim.Protocol
	opts  Options
	big   bool // skipped in -short runs
}

func reductionCases() []reductionCase {
	return []reductionCase{
		{"tree-mf2", protocols.Tree{Procs: 3}, Options{MaxFailures: 2}, false},
		{"star-mf2", protocols.Star{Procs: 3}, Options{MaxFailures: 2}, false},
		{"chain-mf2", protocols.Chain{Procs: 3}, Options{MaxFailures: 2}, false},
		{"fullexchange-mf0", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 0}, false},
		{"fullexchange-mf1", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 1}, true},
		{"ackcommit-mf2", protocols.AckCommit{Procs: 3}, Options{MaxFailures: 2}, true},
		{"haltingcommit-mf2", protocols.HaltingCommit{Procs: 3}, Options{MaxFailures: 2}, false},
	}
}

// violationKinds reduces an exploration's violations to the sorted set of
// distinct kinds — the verdict the reductions preserve.
func violationKinds(x *Exploration) []string {
	set := map[string]struct{}{}
	for _, v := range x.Violations {
		set[fmt.Sprint(v.Kind)] = struct{}{}
	}
	return sortedSet(set)
}

// decisionCensus renders the set of (inputs vector, decision ledger) pairs
// over terminal configurations, sorted.
func decisionCensus(x *Exploration) []string {
	set := map[string]struct{}{}
	for i := range x.Configs {
		c := &x.Configs[i]
		if c.Terminal {
			set[censusLine(c.InputsVec, c.Ledger)] = struct{}{}
		}
	}
	return sortedSet(set)
}

// canonicalDecisionCensus orbit-canonicalizes the decision census: each
// (vector, ledger) pair is replaced by its minimum over the automorphism
// group, so censuses taken in different orbit frames become comparable.
// With an empty group this is decisionCensus.
func canonicalDecisionCensus(x *Exploration, perms []sim.ProcPerm) []string {
	set := map[string]struct{}{}
	for i := range x.Configs {
		c := &x.Configs[i]
		if !c.Terminal {
			continue
		}
		best := censusLine(c.InputsVec, c.Ledger)
		for _, perm := range perms {
			vec := make([]byte, len(c.InputsVec))
			led := make([]sim.Decision, len(c.Ledger))
			for p := range c.Ledger {
				vec[perm[p]] = c.InputsVec[p]
				led[perm[p]] = c.Ledger[p]
			}
			if line := censusLine(string(vec), led); line < best {
				best = line
			}
		}
		set[best] = struct{}{}
	}
	return sortedSet(set)
}

func censusLine(vec string, ledger []sim.Decision) string {
	return fmt.Sprintf("%s|%v", vec, ledger)
}

// stateCensusKeys returns the sorted distinct local-state keys of the
// aggregate census.
func stateCensusKeys(x *Exploration) []string {
	set := map[string]struct{}{}
	for k := range x.States {
		set[k] = struct{}{}
	}
	return sortedSet(set)
}

// reducedDigest is exploreDigest plus the reduction counters, so the
// per-mode determinism comparison also pins the stats the walk counts.
func reducedDigest(x *Exploration) string {
	return fmt.Sprintf("%+v\n%s", x.Reduction, exploreDigest(x))
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReductionDifferential explores every feasible library protocol to
// completion unreduced on the string-keyed engine, then asserts
// that each reduced mode, on both handle representations, reproduces the
// verdict and the decision census — exactly under ample, up to relabeling
// under symmetry.
func TestReductionDifferential(t *testing.T) {
	prob := problem(taxonomy.WT, taxonomy.TC)
	for _, tc := range reductionCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.big && testing.Short() {
				t.Skip("large reference space; skipped in -short")
			}
			opts := tc.opts
			opts.Dedup = frontier.DedupStrings
			opts.Problem = &prob
			opts.TrackTraces = true
			ref, err := ExploreContext(context.Background(), tc.proto, opts)
			if err != nil {
				t.Fatalf("unreduced reference: %v", err)
			}
			perms := symmetry.ForProtocol(tc.proto)
			refKinds := violationKinds(ref)
			refCensus := decisionCensus(ref)
			refCanon := canonicalDecisionCensus(ref, perms)
			refStates := stateCensusKeys(ref)

			for _, mode := range reductionModes {
				for _, dedup := range reductionDedups {
					name := fmt.Sprintf("%v/%v", mode, dedup)
					opts := tc.opts
					opts.Dedup = dedup
					opts.Problem = &prob
					opts.TrackTraces = true
					opts.Reduction = mode
					x, err := ExploreContext(context.Background(), tc.proto, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if x.NodeCount > ref.NodeCount {
						t.Errorf("%s: reduced run grew the space: %d > %d nodes", name, x.NodeCount, ref.NodeCount)
					}
					if got := violationKinds(x); !equalStrings(got, refKinds) {
						t.Errorf("%s: verdict diverged: kinds %v, want %v", name, got, refKinds)
					}
					if mode == ReduceAmple {
						if got := decisionCensus(x); !equalStrings(got, refCensus) {
							t.Errorf("%s: decision census diverged (%d vs %d entries)", name, len(got), len(refCensus))
						}
						if got := stateCensusKeys(x); !equalStrings(got, refStates) {
							t.Errorf("%s: local-state census diverged (%d vs %d states)", name, len(got), len(refStates))
						}
					} else {
						if got := canonicalDecisionCensus(x, perms); !equalStrings(got, refCanon) {
							t.Errorf("%s: canonical decision census diverged (%d vs %d entries)", name, len(got), len(refCanon))
						}
					}
					if x.Conforms() != (len(refKinds) == 0) {
						t.Errorf("%s: conformance flipped", name)
					}
					if !x.Conforms() && len(x.FirstTrace) == 0 {
						t.Errorf("%s: violating run has no FirstTrace", name)
					}
					if x.Conforms() && len(x.FirstTrace) != 0 {
						t.Errorf("%s: conforming run has a FirstTrace", name)
					}
				}
			}
		})
	}
}

// TestReductionPartialDeterminism asserts that budget-capped reduced
// explorations — which stop mid-space and report a partial prefix — are
// byte-identical across repeated runs for every mode and engine, on the
// diffCases matrix (including Perverse, whose full space never
// terminates, exercising the proviso on a cyclic graph).
func TestReductionPartialDeterminism(t *testing.T) {
	prob := problem(taxonomy.WT, taxonomy.TC)
	dedups := []frontier.Dedup{frontier.DedupStrings, frontier.DedupFingerprint, frontier.DedupVerified}
	for _, tc := range diffCases() {
		if tc.opts.MaxNodes == 0 {
			continue // the complete cases are covered by TestReductionDifferential
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range reductionModes {
				for _, dedup := range dedups {
					var base string
					for run := 0; run < reductionRepeats; run++ {
						opts := tc.opts
						opts.Dedup = dedup
						opts.Problem = &prob
						opts.TrackTraces = true
						opts.Reduction = mode
						x, err := ExploreContext(context.Background(), tc.proto, opts)
						if x == nil {
							t.Fatalf("%v/%v/run%d: nil exploration (err=%v)", mode, dedup, run, err)
						}
						// A reduced run may fit the whole quotient space inside
						// the budget that truncates the full space (that is the
						// point of the reduction); the digest comparison below
						// still pins the status across runs.
						if x.Status != StatusExhausted && x.Status != StatusComplete {
							t.Fatalf("%v/%v/run%d: status %v, want budget-exhausted or complete", mode, dedup, run, x.Status)
						}
						d := reducedDigest(x)
						if run == 0 {
							base = d
						} else if d != base {
							t.Errorf("%v/%v/run%d: partial reduced run diverges:\n%s", mode, dedup, run,
								firstDiff(base, d))
						}
					}
				}
			}
		})
	}
}

// TestReductionCancelledDeterminism asserts that a cancelled reduced
// exploration still yields identical partial snapshots across repeated
// runs.
func TestReductionCancelledDeterminism(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prob := problem(taxonomy.WT, taxonomy.TC)
	for _, mode := range reductionModes {
		var base string
		for run := 0; run < reductionRepeats; run++ {
			x, err := ExploreContext(ctx, protocols.Star{Procs: 3}, Options{
				MaxFailures: 2, Problem: &prob, TrackTraces: true, Reduction: mode,
			})
			if x == nil {
				t.Fatalf("%v/run%d: nil exploration", mode, run)
			}
			if err == nil || x.Status != StatusInterrupted {
				t.Fatalf("%v/run%d: status = %v, err = %v, want interrupted", mode, run, x.Status, err)
			}
			d := reducedDigest(x)
			if run == 0 {
				base = d
				if x.NodeCount < 1 {
					t.Fatalf("%v: cancelled exploration lost its partial snapshot", mode)
				}
				continue
			}
			if d != base {
				t.Errorf("%v/run%d: cancelled reduced partial diverges:\n%s", mode, run, firstDiff(base, d))
			}
		}
	}
}
