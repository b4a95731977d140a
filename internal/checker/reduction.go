package checker

import (
	"fmt"

	"repro/internal/frontier"
	"repro/internal/sim"
	"repro/internal/symmetry"
)

// Reduction selects the state-space reductions an exploration applies.
// Both reductions preserve the conformance verdict (the set of violation
// kinds) and the terminal decision structure — ample sets preserve the
// exact terminal configurations and decision census; symmetry preserves
// them up to processor relabeling — but a reduced run visits fewer
// intermediate configurations, so NodeCount, the Configs list, and the
// state census describe the reduced graph, not the full one. DESIGN.md §8
// states the soundness arguments; the reduction differential suite
// cross-checks every reduced mode against the unreduced strings engine.
type Reduction int

const (
	// ReduceNone explores every interleaving (the default).
	ReduceNone Reduction = iota
	// ReduceAmple applies ample-set partial-order reduction — at a
	// configuration where some processor is mid-send, only that
	// processor's events are expanded (see ampleProc) — plus dead-letter
	// elision: the dedup handle erases messages addressed to failed or
	// halted processors, which can never be delivered, so configurations
	// differing only in that inert garbage collapse to one node (see
	// sim.Config.WithoutDeadBuffers).
	ReduceAmple
	// ReduceSymmetry canonicalizes each node's dedup handle by minimizing
	// over the protocol topology's automorphism group (internal/symmetry),
	// collapsing symmetric configurations to one representative. Protocols
	// without a usable group explore unreduced.
	ReduceSymmetry
	// ReduceBoth applies both reductions.
	ReduceBoth
)

// String names the reduction for flags and reports.
func (r Reduction) String() string {
	switch r {
	case ReduceNone:
		return "none"
	case ReduceAmple:
		return "ample"
	case ReduceSymmetry:
		return "symmetry"
	case ReduceBoth:
		return "both"
	default:
		return "invalid"
	}
}

// ParseReduction parses a -reduce flag value.
func ParseReduction(s string) (Reduction, error) {
	switch s {
	case "", "none":
		return ReduceNone, nil
	case "ample":
		return ReduceAmple, nil
	case "symmetry":
		return ReduceSymmetry, nil
	case "both":
		return ReduceBoth, nil
	}
	return 0, fmt.Errorf("bad reduction %q (want none, ample, symmetry, or both)", s)
}

// ample reports whether ample-set reduction is on.
func (r Reduction) ample() bool { return r == ReduceAmple || r == ReduceBoth }

// usesSymmetry reports whether symmetry canonicalization is on.
func (r Reduction) usesSymmetry() bool { return r == ReduceSymmetry || r == ReduceBoth }

// ReductionStats are the deterministic reduction counters of one
// exploration, all counted by the breadth-first walk in its canonical
// order.
type ReductionStats struct {
	// AmpleNodes / FullNodes split the walked expansions into reduced
	// (ample subset) and full ones. Unreduced runs count everything in
	// FullNodes.
	AmpleNodes int
	FullNodes  int
	// AmpleEvents / FullEvents count the successor edges those expansions
	// generated; AmpleEvents/AmpleNodes is the average ample-set size.
	AmpleEvents int64
	FullEvents  int64
	// ProvisoFallbacks counts reduced expansions the walk re-expanded in
	// full because every reduced successor was already visited (the ample
	// progress proviso; see provisoHit). They are counted under FullNodes.
	ProvisoFallbacks int
	// SymmetryPrunes counts rejected successors whose dedup handle was
	// canonicalized away from their own frame by a non-identity
	// automorphism — admissions that only symmetry made into duplicates.
	SymmetryPrunes int64
	// ElisionPrunes counts rejected successors whose dedup handle was
	// computed with dead letters erased — configurations that only differ
	// from an already-visited one in messages addressed to failed or
	// halted processors.
	ElisionPrunes int64
}

// ampleProc picks the ample processor of a configuration: the
// lowest-indexed processor in a Sending state, if any.
//
// Why {SendStep(p), Fail(p)} is a sound ample set at such a configuration:
// while p is Sending, no event of any other processor can read or write
// p's state, deliveries to p are not applicable, and p's two events are
// independent of every other enabled event — SendStep(p)/Fail(p) touch p's
// state and append messages on p's outgoing channels (per-channel sequence
// numbers are disjoint from every other processor's), and buffer inserts
// commute with other inserts and with removals of different messages. So
// every run from the configuration is Mazurkiewicz-equivalent to one
// taking an ample event first (C1), the set is nonempty whenever any event
// is enabled at a non-quiescent configuration with a Sending processor
// (C0), and deferred events stay enabled. The cycle condition is enforced
// at walk time by provisoHit.
func ampleProc(cfg *sim.Config) (sim.ProcID, bool) {
	for p := range cfg.States {
		if cfg.States[p].Kind() == sim.Sending {
			return sim.ProcID(p), true
		}
	}
	return 0, false
}

// appendAmpleEvents appends the ample events for processor p: its sending
// step, plus its failure when the failure budget and FailProcs allow it.
func (e *explorer) appendAmpleEvents(events []sim.Event, p sim.ProcID, failedCount int) []sim.Event {
	events = append(events, sim.Event{Proc: p, Type: sim.SendStepEvent})
	if failedCount < e.maxFail && e.failAllowed[p] {
		events = append(events, sim.Event{Proc: p, Type: sim.Fail})
	}
	return events
}

// provisoHit reports whether every successor of a reduced expansion is
// already in the visited set; the walk then substitutes the full
// expansion. This is the breadth-first form of the ample progress
// proviso (Bošnački/Holzmann): every walked reduced expansion either
// discovers at least one new state or is expanded in full, so the
// exploration can never spin over a closed reduced component while
// indefinitely deferring the independent events.
//
// The reachability properties the checker reports do not lean on this
// condition at all — every full-graph terminal configuration and violating
// edge/node is reachable inside the reduced graph by the run-commutation
// argument of DESIGN.md §8, which only needs the ample set to contain all
// of the ample processor's enabled events. The proviso exists so a reduced
// exploration also keeps the structural guarantee the standard theory
// wants from BFS ample sets; full LTL-style liveness over cycles (which
// the six-problem lattice never asks for) would need the stricter
// any-revisit fallback, documented and rejected in DESIGN.md §8.
//
// expand consults the visited set inline, so a nil successor node means
// the successor was already visited.
func provisoHit(exp *expansion) bool {
	for j := range exp.succs {
		if exp.succs[j].nd != nil {
			return false
		}
	}
	return true
}

// canonicalizing reports whether dedup handles are canonical forms rather
// than the successor's own fingerprint/key: dead-letter elision or
// symmetry canonicalization (or both) rewrite the handle.
func (e *explorer) canonicalizing() bool {
	return e.elide || len(e.symPerms) > 0
}

// canonicalizeSucc replaces the successor's dedup handle with its
// canonical form. Two canonicalizations compose:
//
// Dead-letter elision (ample modes) erases the buffers of failed and
// halted processors before hashing, so configurations that differ only in
// permanently undeliverable messages share one handle. The erased view is
// a bisimulation quotient — see sim.Config.WithoutDeadBuffers.
//
// Symmetry (symmetry modes) minimizes the handle over the topology
// automorphism group's orbit: for each automorphism, the candidate handle
// is the permuted (erased) node's fingerprint/key in the mode the dedup
// engine compares, and the minimum (fingerprint by Digest.Less, key by
// string order, verified by fingerprint with the key riding along from
// the same candidate) wins. Erasure and permutation commute — an
// automorphism relocates a processor's state and buffer together — so
// erasing first is both correct and cheaper.
//
// The final handle lands on both the succ and the node. The node itself
// stays in its own frame — every stored configuration is genuinely
// reachable and traces replay unchanged — only the handle is canonical,
// so the first-reached member of a class represents the class.
//
// WithoutDeadBuffers and sim.PermuteConfig are pure, so the handle is a
// function of the node alone.
func (e *explorer) canonicalizeSucc(nxt *node, s *succ) {
	base := nxt.cfg
	if e.elide {
		if erased, changed := base.WithoutDeadBuffers(); changed {
			base, s.elided = erased, true
			cand := &node{cfg: base, ledger: nxt.ledger}
			switch e.dedup {
			case frontier.DedupFingerprint:
				s.fp = nodeFP(cand)
			case frontier.DedupVerified:
				s.fp, s.key = nodeFP(cand), cand.key()
			default:
				s.key = cand.key()
			}
		}
	}
	for _, perm := range e.symPerms {
		pcfg, ok := sim.PermuteConfig(base, perm)
		if !ok {
			panic("checker: symmetry group present but state does not implement sim.Permuter")
		}
		cand := &node{cfg: pcfg, ledger: permuteLedger(nxt.ledger, perm)}
		switch e.dedup {
		case frontier.DedupFingerprint:
			if fp := nodeFP(cand); fp.Less(s.fp) {
				s.fp, s.permuted = fp, true
			}
		case frontier.DedupVerified:
			fp := nodeFP(cand)
			if fp.Less(s.fp) {
				s.fp, s.key, s.permuted = fp, cand.key(), true
			}
		default:
			if key := cand.key(); key < s.key {
				s.key, s.permuted = key, true
			}
		}
	}
	switch e.dedup {
	case frontier.DedupFingerprint:
		nxt.fp = s.fp
	case frontier.DedupVerified:
		nxt.fp, nxt.ckey = s.fp, s.key
	default:
		nxt.ckey = s.key
	}
}

// permuteLedger relabels a decision ledger: processor p's decision moves
// to position perm[p].
func permuteLedger(ledger []sim.Decision, perm sim.ProcPerm) []sim.Decision {
	out := make([]sim.Decision, len(ledger))
	for p, d := range ledger {
		out[perm[p]] = d
	}
	return out
}

// initReduction resolves the exploration's reduction configuration: the
// ample modes switch on ample-set expansion and dead-letter elision, the
// symmetry modes resolve the protocol's automorphism group (empty for
// protocols without usable symmetry, which then canonicalize nothing).
//
// When an omission budget is enabled, every reduction is conservatively
// disabled and the space explores in full (DESIGN.md §8):
//
//   - Ample sets: Omit(q, µ) does not commute with its target's events the
//     way the {SendStep(p), Fail(p)} argument needs — an omission charges
//     the shared budget and (in mobile mode) flips q's faulty bit, so
//     deferring it past p's sending burst can reach configurations whose
//     remaining budget differs, which are distinct nodes.
//   - Dead-letter elision: messages addressed to failed or halted
//     processors are no longer inert — Omit is structurally applicable to
//     a halted processor's buffer, and applying it changes the budget
//     accounting, so two configurations differing only in dead letters
//     are no longer bisimilar.
//   - Symmetry: canonical handles would have to permute the omission
//     bitmasks along with states and buffers, which PermuteConfig does
//     not do.
//
// Each could be re-enabled with a sharper argument (e.g. excluding Omit
// targets from the ample processor's independence set, erasing dead
// letters only when the budget is exhausted); until such a proof lands,
// correctness wins over speed.
func (e *explorer) initReduction() {
	if e.opts.omission().Enabled() {
		e.ample, e.elide, e.symPerms = false, false, nil
		return
	}
	e.ample = e.opts.Reduction.ample()
	e.elide = e.ample
	if e.opts.Reduction.usesSymmetry() {
		e.symPerms = symmetry.ForProtocol(e.proto)
	}
}
