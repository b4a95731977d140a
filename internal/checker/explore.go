// Package checker implements the verification machinery behind the paper's
// proofs: an exhaustive model checker over the reachable configuration space
// (with fail-stop failure injection), computation of concurrency sets C(s),
// the safe-state analysis of Theorem 2, bias/committability, and a
// scenario-replay engine for the indistinguishability arguments of Theorems
// 8 and 13.
//
// The walk is one single-goroutine FIFO breadth-first search: a node is
// expanded when it is dequeued, and its successors are admitted to the
// visited set (frontier.SeqVisited) and recorded in event order. The order
// of acceptance is therefore canonical (levels, then frontier position,
// then event order), so the Exploration — node counts, state census,
// violation order, FirstTrace — is a pure function of the protocol and the
// options under every dedup engine, including the partial results returned
// on cancellation or budget exhaustion.
package checker

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/fingerprint"
	"repro/internal/frontier"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Options configures an exploration.
type Options struct {
	// MaxFailures bounds the number of injected failures per run.
	// Negative means N−1 (the default); zero means failure-free.
	MaxFailures int
	// OmissionBudget, when positive, additionally explores omission
	// faults: at every configuration where a delivery is enabled, the
	// adversary may instead suppress it (sim.Omit), up to this many times
	// per run. The budget is tracked inside the configuration, so
	// deduplication distinguishes "same states, different budget left".
	// Requires N ≤ 64. Zero keeps the crash-only space.
	OmissionBudget int
	// MobileOmissions, when positive with OmissionBudget, caps the number
	// of simultaneously omission-faulty processors at k — the mobile
	// omission model: the faulty set moves as suppressed processors are
	// rehabilitated by successful deliveries.
	MobileOmissions int
	// FailProcs restricts which processors may be failed (nil = all).
	FailProcs []sim.ProcID
	// Inputs restricts the initial input vectors (nil = all 2^N).
	Inputs [][]sim.Bit
	// MaxNodes caps the exploration (default sim.DefaultMaxNodes, the
	// budget shared with scheme.Options). Exceeding it is an error, never
	// a silent truncation.
	MaxNodes int
	// Problem, if non-nil, enables inline conformance checking: the
	// decision rule is checked at every decision transition, consistency
	// at every node, and termination at every terminal node. Violations
	// accumulate in Exploration.Violations (capped at 100).
	Problem *taxonomy.Problem
	// TrackTraces records parent links so the first violation comes with
	// a full event trace (FirstTrace). Costs memory proportional to the
	// node count. Under breadth-first exploration the recorded trace is a
	// shortest path to the violating configuration.
	TrackTraces bool
	// StopAtFirstViolation ends the exploration as soon as one violation
	// is found — useful when only the existence of a counterexample
	// matters.
	StopAtFirstViolation bool
	// Dedup selects the visited-set engine. The default,
	// frontier.DedupFingerprint, admits nodes by 128-bit incremental
	// fingerprint and never builds canonical key strings on the hot path;
	// frontier.DedupVerified additionally verifies every fingerprint hit
	// against the full canonical key (collisions are counted in
	// Exploration.Collisions and never merge states); and
	// frontier.DedupStrings is the collision-proof reference engine keyed
	// by full canonical strings. All three produce byte-identical
	// Explorations (the differential suite enforces it); they differ only
	// in speed and in the astronomically unlikely event of a 128-bit
	// collision.
	Dedup frontier.Dedup
	// Reduction selects state-space reductions (ample-set partial-order
	// reduction and/or symmetry canonicalization; see Reduction). The
	// default explores every interleaving. Reduced runs keep the
	// conformance verdict and terminal decision structure of the full
	// space while visiting far fewer nodes; see DESIGN.md §8 for what is
	// and is not preserved.
	Reduction Reduction
}

func (o Options) maxNodes() int {
	if o.MaxNodes == 0 {
		return sim.DefaultMaxNodes
	}
	return o.MaxNodes
}

// omission resolves the options' omission policy.
func (o Options) omission() sim.OmissionPolicy {
	return sim.OmissionPolicy{Budget: o.OmissionBudget, Mobile: o.MobileOmissions}
}

// StateInfo aggregates everything the analysis needs to know about one
// accessible local state.
type StateInfo struct {
	// Key is the state's canonical encoding.
	Key string
	// Sample is one State value with this key.
	Sample sim.State
	// Procs lists which processors ever occupy the state.
	Procs map[sim.ProcID]struct{}
	// Inputs is the set of input vectors (encoded "0110…") under which
	// the state is accessible. "s implies X" means X holds for every
	// vector here.
	Inputs map[string]struct{}
	// Conc is the concurrency set C(s): the keys of every state that
	// occurs in the same accessible configuration as s.
	Conc map[string]struct{}
	// SeenEmptyBuffer reports whether the state ever occurs in an
	// accessible configuration in which its occupant's buffer is empty.
	// A receiving state for which this is false is an E̅ state: the
	// processor knows its buffer is not empty (Section 3).
	SeenEmptyBuffer bool
}

// Decision returns the state's visible decision.
func (si *StateInfo) Decision() sim.Decision {
	if d, ok := si.Sample.Decided(); ok {
		return d
	}
	return sim.NoDecision
}

// ImpliesAllOnes reports whether the state implies that every input is 1
// (condition (2) of the safe-state definition).
func (si *StateInfo) ImpliesAllOnes() bool {
	for vec := range si.Inputs { //ccvet:ignore detrange universally quantified predicate; order is unobservable
		if strings.ContainsRune(vec, '0') {
			return false
		}
	}
	return true
}

// ConfigRecord is the per-configuration information retained after
// exploration: interned state keys, the decision ledger (what each processor
// has ever decided by this configuration), and whether the configuration is
// terminal (quiescent).
type ConfigRecord struct {
	StateIdx  []int32
	Ledger    []sim.Decision
	InputsVec string
	Terminal  bool
}

// Status reports how an exploration ended. The zero value is Complete so
// that explorations which ran to the end need no special handling.
type Status int

const (
	// StatusComplete means the reachable space was fully explored (or the
	// exploration stopped at the first violation, as requested).
	StatusComplete Status = iota
	// StatusInterrupted means the context was cancelled mid-exploration;
	// the Exploration holds everything visited up to that point.
	StatusInterrupted
	// StatusExhausted means the node budget ran out; the Exploration holds
	// the visited prefix of the space.
	StatusExhausted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusComplete:
		return "complete"
	case StatusInterrupted:
		return "interrupted"
	case StatusExhausted:
		return "budget-exhausted"
	default:
		return "invalid"
	}
}

// Partial reports whether the exploration covered only part of the space.
func (s Status) Partial() bool { return s != StatusComplete }

// Exploration is the result of exploring a protocol's configuration space.
type Exploration struct {
	Proto     sim.Protocol
	Opts      Options
	NodeCount int
	// Status records whether the exploration completed, was interrupted by
	// context cancellation, or exhausted its node budget. When Status is
	// partial, every aggregate below still describes the visited prefix —
	// partial results are returned, never discarded. The state census is
	// fed exclusively by accepted configurations, so States, Configs,
	// Violations, NodeCount, and FrontierSize describe exactly the
	// canonical prefix of the walk; a mid-run cancellation stops at a
	// timing-dependent (but still canonical-prefix) point.
	Status Status
	// FrontierSize is the number of accepted nodes the walk had
	// not yet consumed when a partial exploration stopped, counting the
	// node being walked or rejected (0 for complete explorations).
	FrontierSize int
	// States maps canonical state key → aggregate info.
	States map[string]*StateInfo
	// stateKeys interns state keys for ConfigRecord.
	stateKeys []string
	stateIdx  map[string]int32
	// Configs records every distinct explored node, in breadth-first
	// discovery order.
	Configs []ConfigRecord
	// Terminals counts quiescent nodes.
	Terminals int
	// Violations lists conformance violations found when Options.Problem
	// was set, capped at 100.
	Violations []taxonomy.Violation
	// FirstTrace is the event trace leading to the first violation, when
	// Options.TrackTraces was set.
	FirstTrace []string
	// Collisions counts verified fingerprint collisions (always 0 except
	// under frontier.DedupVerified, and genuinely expected to stay 0 —
	// a nonzero value means a 2^-128-probability event, or a broken hash).
	Collisions int64
	// Reduction holds the deterministic reduction counters (zero-valued
	// for unreduced runs apart from FullNodes/FullEvents).
	Reduction ReductionStats

	// parents records trace links keyed by canonical node key (strings and
	// verified dedup); parentsFP records them keyed by node fingerprint
	// (fingerprint dedup), with rootKeys resolving root fingerprints back
	// to the canonical keys printed in a trace's "initial:" line.
	parents   map[string]parentLink
	parentsFP map[fingerprint.Digest]parentLinkFP
	rootKeys  map[fingerprint.Digest]string
}

type parentLink struct {
	parent string
	event  sim.Event
}

type parentLinkFP struct {
	parent fingerprint.Digest
	event  sim.Event
}

// traceTo reconstructs the event trace from an initial configuration to the
// node with the given key.
func (x *Exploration) traceTo(key string) []string {
	if x.parents == nil {
		return nil
	}
	var events []sim.Event
	cur := key
	for {
		link, ok := x.parents[cur]
		if !ok {
			break
		}
		events = append(events, link.event)
		cur = link.parent
	}
	out := make([]string, 0, len(events)+1)
	out = append(out, "initial: "+cur)
	for i := len(events) - 1; i >= 0; i-- {
		out = append(out, events[i].String())
	}
	return out
}

// traceToFP is traceTo for fingerprint-linked parents. The trace renders
// the same strings as the key-linked walk: event lines from the links and
// the root's canonical key from rootKeys.
func (x *Exploration) traceToFP(fp fingerprint.Digest) []string {
	if x.parentsFP == nil {
		return nil
	}
	var events []sim.Event
	cur := fp
	for {
		link, ok := x.parentsFP[cur]
		if !ok {
			break
		}
		events = append(events, link.event)
		cur = link.parent
	}
	out := make([]string, 0, len(events)+1)
	out = append(out, "initial: "+x.rootKeys[cur])
	for i := len(events) - 1; i >= 0; i-- {
		out = append(out, events[i].String())
	}
	return out
}

// addViolation appends a violation, respecting the cap, and records the
// trace to the first violating node when trace tracking is on. The
// violating node is identified by whichever handle the dedup mode tracks
// (canonical key or fingerprint).
func (x *Exploration) addViolation(v taxonomy.Violation, s *succ) {
	if len(x.Violations) == 0 {
		if x.parents != nil {
			x.FirstTrace = x.traceTo(s.key)
		} else if x.parentsFP != nil {
			x.FirstTrace = x.traceToFP(s.fp)
		}
	}
	if len(x.Violations) < 100 {
		x.Violations = append(x.Violations, v)
	}
}

// Conforms reports whether a checked exploration found no violations.
func (x *Exploration) Conforms() bool { return len(x.Violations) == 0 }

// StateKeyAt resolves an interned index back to its key.
func (x *Exploration) StateKeyAt(i int32) string { return x.stateKeys[i] }

// node is one exploration state: configuration plus the decision ledger
// (needed because total consistency constrains decisions that failure or
// amnesia later hide). The initial input vector rides along because the
// decision rule is a predicate over it.
type node struct {
	cfg    *sim.Config
	ledger []sim.Decision
	inputs []sim.Bit          // shared, read-only
	vec    string             // inputsKey(inputs)
	ckey   string             // memoized key(); empty under fingerprint dedup
	fp     fingerprint.Digest // memoized nodeFP(); zero under strings dedup
}

func (nd *node) key() string {
	var sb strings.Builder
	sb.WriteString(nd.cfg.Key())
	sb.WriteByte('!')
	for _, d := range nd.ledger {
		switch d {
		case sim.Commit:
			sb.WriteByte('C')
		case sim.Abort:
			sb.WriteByte('A')
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// saltLedger salts per-processor ledger contributions into node
// fingerprints; spaced away from the sim package's salt bases.
const saltLedger uint64 = 0x04_0000_0000

// ledgerFP fingerprints a decision ledger as a sum of salted per-processor
// decision terms. Undecided entries contribute nothing, so a successor's
// ledger fingerprint differs from its parent's by at most the one term the
// stepping processor's new decision adds.
func ledgerFP(ledger []sim.Decision) fingerprint.Digest {
	var d fingerprint.Digest
	for p, dec := range ledger {
		if dec != sim.NoDecision {
			d = d.Add(fingerprint.OfUint64(uint64(dec)).Mixed(saltLedger + uint64(p)))
		}
	}
	return d
}

// nodeFP fingerprints an exploration node: the configuration fingerprint
// plus the ledger terms. It is the hash analogue of node.key, covering
// exactly what the key string covers.
func nodeFP(nd *node) fingerprint.Digest {
	return nd.cfg.Fingerprint().Add(ledgerFP(nd.ledger))
}

func inputsKey(inputs []sim.Bit) string {
	var sb strings.Builder
	for _, b := range inputs {
		if b == sim.One {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Explore walks the reachable configuration space of the protocol over the
// requested input vectors, injecting up to MaxFailures fail-stop failures at
// every point, and aggregates states, concurrency sets, and configuration
// records.
func Explore(proto sim.Protocol, opts Options) (*Exploration, error) {
	return ExploreContext(context.Background(), proto, opts)
}

// succ is one edge generated while expanding a dequeued node: the successor
// key, the event, and — when the successor was not already visited when the
// expansion ran — the materialized node, its interned per-processor state
// keys, and its violations.
type succ struct {
	key      string             // canonical node key; empty under fingerprint dedup
	fp       fingerprint.Digest // node fingerprint; zero under strings dedup
	event    sim.Event
	edgeViol []taxonomy.Violation
	// nd is nil when the successor was already visited when the expansion
	// ran, so the walk rejects it without materializing. Under fingerprint
	// dedup a nil nd additionally means the successor was never built at
	// all: its fingerprint was derived from the parent's and found visited.
	nd        *node
	stateKeys []string
	terminal  bool
	nodeViol  []taxonomy.Violation
	// permuted marks a successor whose dedup handle was canonicalized
	// away from its own frame by a non-identity automorphism; the walk
	// counts rejected permuted successors as symmetry prunes.
	permuted bool
	// elided marks a successor whose dedup handle was computed with dead
	// letters erased (sim.Config.WithoutDeadBuffers); the walk counts
	// rejected elided successors as elision prunes.
	elided bool
}

// expansion is one dequeued node's worth of generated edges. reduced marks
// an ample-set expansion (a strict subset of the enabled events); the walk
// substitutes the full expansion when the cycle proviso demands it.
type expansion struct {
	succs   []succ
	err     error
	reduced bool
}

// explorer is one exploration: the visited set, the FIFO queue of
// accepted nodes, and the caches of the fingerprint fast path. It is used
// by a single goroutine from start to finish.
type explorer struct {
	proto       sim.Protocol
	n           int
	opts        Options
	maxFail     int
	failAllowed []bool
	x           *Exploration
	dedup       frontier.Dedup
	visited     *frontier.SeqVisited
	// queue holds accepted nodes not yet expanded; head is the next to
	// expand. Consumed slots are nilled so an expanded node's memory can
	// be reclaimed once its children are recorded.
	queue []*node
	head  int
	// events is the reused scratch slice for enumerating enabled events.
	events []sim.Event
	// keyCache memoizes state digest → state Key string, so the
	// fingerprint engine builds each distinct state's key exactly once for
	// the census instead of once per occurrence.
	keyCache map[fingerprint.Digest]string
	// predictor memoizes transition outcomes by input digests, so the fast
	// path's successor fingerprints cost map probes instead of protocol
	// callbacks plus state hashing. Fingerprint dedup only.
	predictor *sim.Predictor
	// ample enables ample-set partial-order reduction in expand; elide
	// enables dead-letter elision in the canonical dedup handle (both are
	// switched by the ample reduction modes); symPerms holds the
	// protocol's non-identity topology automorphisms when symmetry
	// canonicalization is on (empty = no usable symmetry). All resolved
	// once by initReduction.
	ample    bool
	elide    bool
	symPerms []sim.ProcPerm
}

// stateKeysOf returns the per-processor state keys of one materialized
// configuration.
func (e *explorer) stateKeysOf(nd *node) []string {
	keys := make([]string, e.n)
	for p := 0; p < e.n; p++ {
		keys[p] = e.stateKey(nd, p)
	}
	return keys
}

// stateKey returns the canonical key of nd's processor-p state. The
// fingerprint engine resolves it through the digest-keyed cache so a
// state's Key string is built once per distinct state, not once per
// occurrence; the other engines build it and keep the census's copy when
// the state is already known, so long-lived records share one string
// (verified mode stays free of any digest-keyed shortcut so its results
// are exact even under a hash collision).
func (e *explorer) stateKey(nd *node, p int) string {
	if e.dedup == frontier.DedupFingerprint {
		d := nd.cfg.StateDigestAt(p)
		k, ok := e.keyCache[d]
		if !ok {
			k = nd.cfg.States[p].Key()
			e.keyCache[d] = k
		}
		return k
	}
	k := nd.cfg.States[p].Key()
	if si := e.x.States[k]; si != nil {
		return si.Key
	}
	return k
}

// censusAdd folds one accepted configuration into the state census.
func (e *explorer) censusAdd(nd *node, keys []string) {
	for p := 0; p < e.n; p++ {
		si := e.x.States[keys[p]]
		if si == nil {
			si = &StateInfo{
				Key:    keys[p],
				Sample: nd.cfg.States[p],
				Procs:  make(map[sim.ProcID]struct{}),
				Inputs: make(map[string]struct{}),
				Conc:   make(map[string]struct{}),
			}
			e.x.States[keys[p]] = si
		}
		si.Procs[sim.ProcID(p)] = struct{}{}
		si.Inputs[nd.vec] = struct{}{}
		if len(nd.cfg.Buffers[p]) == 0 {
			si.SeenEmptyBuffer = true
		}
		// Concurrency sets: every pair of states in this configuration is
		// mutually concurrent.
		for q := 0; q < e.n; q++ {
			if q != p {
				si.Conc[keys[q]] = struct{}{}
			}
		}
	}
}

// expand generates the successors of one dequeued node — the ample subset
// when ample reduction applies, all of them otherwise.
func (e *explorer) expand(nd *node) expansion {
	return e.expandEvents(nd, e.ample)
}

// expandFull generates every successor regardless of the ample setting;
// the walk calls it when the cycle proviso rejects a reduced expansion.
func (e *explorer) expandFull(nd *node) expansion {
	return e.expandEvents(nd, false)
}

func (e *explorer) expandEvents(nd *node, tryAmple bool) expansion {
	var out expansion
	failedCount := 0
	for p := 0; p < e.n; p++ {
		if nd.cfg.Faulty(sim.ProcID(p)) {
			failedCount++
		}
	}
	events := e.events[:0]
	if tryAmple {
		if p, ok := ampleProc(nd.cfg); ok {
			events = e.appendAmpleEvents(events, p, failedCount)
			out.reduced = true
		}
	}
	if !out.reduced {
		events = sim.AppendEnabled(events, nd.cfg)
		if failedCount < e.maxFail {
			for p := 0; p < e.n; p++ {
				if e.failAllowed[p] && !nd.cfg.Faulty(sim.ProcID(p)) {
					events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
				}
			}
		}
	}
	e.events = events
	out.succs = make([]succ, 0, len(events))
	// The fast path predicts each successor's fingerprint incrementally
	// from the parent's and skips materialization for already-visited
	// successors — the bulk of all edges in a dense state space. It is
	// sound only when nothing but the fingerprint is needed per seen edge:
	// fingerprint dedup, no inline conformance checking (edge violations
	// need the materialized successor), no symmetry (the incremental
	// fingerprint is the successor's own frame, not its canonical handle).
	fast := e.dedup == frontier.DedupFingerprint && e.opts.Problem == nil && !e.canonicalizing()
	for _, ev := range events {
		var cfg *sim.Config
		var err error
		if fast {
			if fp, ok := e.predictSeen(nd, ev); ok {
				out.succs = append(out.succs, succ{fp: fp, event: ev})
				continue
			}
			cfg, _, err = e.predictor.Materialize(e.proto, nd.cfg, ev)
		} else {
			cfg, _, err = sim.Apply(e.proto, nd.cfg, ev)
		}
		if err != nil {
			out.err = fmt.Errorf("checker: exploring %s: %w", e.proto.Name(), err)
			return out
		}
		nxt := &node{cfg: cfg, ledger: updateLedger(nd.ledger, cfg), inputs: nd.inputs, vec: nd.vec}
		s := succ{event: ev}
		e.setHandle(nxt, &s)
		if e.opts.Problem != nil {
			s.edgeViol = decisionEdgeViolations(*e.opts.Problem, nd, nxt)
		}
		if !e.visited.Seen(s.fp, s.key) {
			s.nd = nxt
			s.terminal = cfg.Quiescent()
			s.stateKeys = e.stateKeysOf(nxt)
			if e.opts.Problem != nil {
				s.nodeViol = nodeViolations(*e.opts.Problem, nxt)
			}
		}
		out.succs = append(out.succs, s)
	}
	return out
}

// setHandle computes a materialized node's dedup handle — fingerprint,
// canonical key, or both, as the dedup mode compares — canonicalized when
// a reduction rewrites handles, and stores it on both the node and its
// succ.
func (e *explorer) setHandle(nd *node, s *succ) {
	switch e.dedup {
	case frontier.DedupFingerprint:
		nd.fp = nodeFP(nd)
	case frontier.DedupVerified:
		nd.ckey = nd.key()
		nd.fp = nodeFP(nd)
	default:
		nd.ckey = nd.key()
	}
	s.fp, s.key = nd.fp, nd.ckey
	if e.canonicalizing() {
		e.canonicalizeSucc(nd, s)
	}
}

// predictSeen derives the fingerprint that ev's successor node would have
// — configuration fingerprint via the memoizing sim.Predictor, ledger
// delta from the predicted post-state's decision — and reports whether
// that successor is already in the visited set. ok=false means the caller
// must materialize: the successor is new, the event is irregular (Apply
// must produce the exact error), or the ledger transition is one the delta
// rule cannot predict.
func (e *explorer) predictSeen(nd *node, ev sim.Event) (fingerprint.Digest, bool) {
	pred, ok := e.predictor.Predict(e.proto, nd.cfg, ev)
	if !ok {
		return fingerprint.Digest{}, false
	}
	fp := nd.fp.Sub(nd.cfg.Fingerprint()).Add(pred.CfgFP)
	if d := pred.Decision; pred.Decided {
		if old := nd.ledger[ev.Proc]; old != d {
			if old != sim.NoDecision {
				// A decision change by way of an amnesic detour; the
				// ledger delta is not a single added term, so fall back
				// to the materializing path.
				return fingerprint.Digest{}, false
			}
			fp = fp.Add(fingerprint.OfUint64(uint64(d)).Mixed(saltLedger + uint64(ev.Proc)))
		}
	}
	if !e.visited.Seen(fp, "") {
		return fingerprint.Digest{}, false
	}
	return fp, true
}

// frontierLeft is the partial-stop frontier measure: accepted nodes the
// walk has not consumed, counting the node being expanded (or the one
// whose acceptance was rejected).
func (e *explorer) frontierLeft() int { return len(e.queue) - e.head + 1 }

// run walks breadth-first from the synthetic root expansion to
// completion, budget exhaustion, first violation, or interruption. It also
// enforces the ample cycle proviso — a reduced expansion with no new
// successor is re-expanded in full before walking — and counts the
// reduction statistics.
func (e *explorer) run(ctx context.Context, roots []succ) error {
	x := e.x
	rootExp := expansion{succs: roots}
	stop, err := e.walk(nil, &rootExp)
	for err == nil && !stop && e.head < len(e.queue) {
		nd := e.queue[e.head]
		e.queue[e.head] = nil
		e.head++
		if cerr := ctx.Err(); cerr != nil {
			x.Status = StatusInterrupted
			x.FrontierSize = e.frontierLeft()
			return fmt.Errorf("checker: exploration of %s interrupted: %w", e.proto.Name(), cerr)
		}
		exp := e.expand(nd)
		if exp.reduced && provisoHit(&exp) {
			x.Reduction.ProvisoFallbacks++
			exp = e.expandFull(nd)
		}
		if exp.err == nil {
			if exp.reduced {
				x.Reduction.AmpleNodes++
				x.Reduction.AmpleEvents += int64(len(exp.succs))
			} else {
				x.Reduction.FullNodes++
				x.Reduction.FullEvents += int64(len(exp.succs))
			}
		}
		stop, err = e.walk(nd, &exp)
	}
	return err
}

// countPrune attributes a rejected successor to the canonicalization that
// rewrote its handle: symmetry when a non-identity automorphism won (it
// strictly improved on the already-erased identity handle), dead-letter
// elision otherwise.
func (e *explorer) countPrune(s *succ) {
	switch {
	case s.permuted:
		e.x.Reduction.SymmetryPrunes++
	case s.elided:
		e.x.Reduction.ElisionPrunes++
	}
}

// walk folds one node's expansion into the exploration (the node's edges
// in event order). stop is set when the exploration should end with the
// current partial result (first violation reached, or budget exhausted —
// the latter also carries a *BudgetError).
func (e *explorer) walk(parent *node, exp *expansion) (stop bool, err error) {
	x := e.x
	if exp.err != nil {
		return false, exp.err
	}
	for j := range exp.succs {
		s := &exp.succs[j]
		if parent != nil {
			if x.parents != nil {
				if _, ok := x.parents[s.key]; !ok {
					x.parents[s.key] = parentLink{parent: parent.ckey, event: s.event}
				}
			} else if x.parentsFP != nil {
				if _, ok := x.parentsFP[s.fp]; !ok {
					x.parentsFP[s.fp] = parentLinkFP{parent: parent.fp, event: s.event}
				}
			}
		}
		for _, v := range s.edgeViol {
			x.addViolation(v, s)
		}
		if e.opts.StopAtFirstViolation && len(x.Violations) > 0 {
			return true, nil
		}
		if s.nd == nil || !e.visited.Admit(s.fp, s.key) {
			e.countPrune(s)
			continue
		}
		if len(x.Configs) >= e.opts.maxNodes() {
			x.Status = StatusExhausted
			x.FrontierSize = e.frontierLeft()
			return true, &BudgetError{Protocol: e.proto.Name(), Nodes: e.opts.maxNodes()}
		}
		e.record(s)
		e.censusAdd(s.nd, s.stateKeys)
		for _, v := range s.nodeViol {
			x.addViolation(v, s)
		}
		if e.opts.StopAtFirstViolation && len(x.Violations) > 0 {
			return true, nil
		}
		e.queue = append(e.queue, s.nd)
	}
	return false, nil
}

// record accepts one newly discovered configuration: assigns interned state
// indices in discovery order and appends the ConfigRecord.
func (e *explorer) record(s *succ) {
	x := e.x
	idx := make([]int32, len(s.stateKeys))
	for p, key := range s.stateKeys {
		id, ok := x.stateIdx[key]
		if !ok {
			id = int32(len(x.stateKeys))
			x.stateIdx[key] = id
			x.stateKeys = append(x.stateKeys, key)
		}
		idx[p] = id
	}
	// The ledger is aliased, not copied: updateLedger builds a fresh slice
	// per node and nothing mutates one after construction, so the record
	// can share it.
	x.Configs = append(x.Configs, ConfigRecord{
		StateIdx:  idx,
		Ledger:    s.nd.ledger,
		InputsVec: s.nd.vec,
		Terminal:  s.terminal,
	})
	if s.terminal {
		x.Terminals++
	}
}

// finalize publishes the node count and the collision count.
func (e *explorer) finalize() {
	e.x.NodeCount = len(e.x.Configs)
	e.x.Collisions = e.visited.Collisions()
}

// ExploreContext is Explore with graceful degradation: on context
// cancellation or budget exhaustion it returns the partial Exploration —
// visited nodes, aggregated states, and every violation found so far, with
// Status and FrontierSize set — alongside a non-nil error (the context's
// error or a *BudgetError). Callers that can use partial results should
// inspect the returned Exploration even when err != nil.
func ExploreContext(ctx context.Context, proto sim.Protocol, opts Options) (*Exploration, error) {
	n := proto.N()
	maxFail := opts.MaxFailures
	if maxFail < 0 {
		maxFail = n - 1
	}
	inputVecs := opts.Inputs
	if inputVecs == nil {
		inputVecs = sim.AllInputs(n)
	}
	pol := opts.omission()
	if pol.Enabled() && n > 64 {
		return nil, fmt.Errorf("checker: omission budgets support at most 64 processors, got %d", n)
	}
	failAllowed := make([]bool, n)
	if opts.FailProcs == nil {
		for i := range failAllowed {
			failAllowed[i] = true
		}
	} else {
		for _, p := range opts.FailProcs {
			if int(p) < 0 || int(p) >= n {
				return nil, fmt.Errorf("checker: FailProcs entry %d out of range for %d processors", p, n)
			}
			failAllowed[p] = true
		}
	}

	x := &Exploration{
		Proto:    proto,
		Opts:     opts,
		States:   make(map[string]*StateInfo),
		stateIdx: make(map[string]int32),
	}
	if opts.TrackTraces {
		if opts.Dedup == frontier.DedupFingerprint {
			x.parentsFP = make(map[fingerprint.Digest]parentLinkFP)
			x.rootKeys = make(map[fingerprint.Digest]string)
		} else {
			x.parents = make(map[string]parentLink)
		}
	}
	e := &explorer{
		proto:       proto,
		n:           n,
		opts:        opts,
		maxFail:     maxFail,
		failAllowed: failAllowed,
		x:           x,
		dedup:       opts.Dedup,
		visited:     frontier.NewSeqVisited(opts.Dedup),
	}
	if opts.Dedup == frontier.DedupFingerprint {
		e.keyCache = make(map[fingerprint.Digest]string)
		e.predictor = sim.NewPredictor()
	}
	e.initReduction()

	// Level 0: one root per requested input vector, walked through the
	// same path as every other node (no parent links, no decision edge).
	roots := make([]succ, 0, len(inputVecs))
	for _, inputs := range inputVecs {
		if len(inputs) != n {
			return nil, fmt.Errorf("checker: input vector %v has length %d, want %d", inputs, len(inputs), n)
		}
		start := &node{cfg: sim.NewConfigOmission(proto, inputs, pol), ledger: make([]sim.Decision, n), inputs: inputs, vec: inputsKey(inputs)}
		// Symmetric input vectors share a canonical handle; admission
		// keeps the first root of each class.
		s := succ{nd: start, terminal: start.cfg.Quiescent()}
		e.setHandle(start, &s)
		if x.rootKeys != nil {
			// First-wins: under symmetry two roots can share a canonical
			// fingerprint, and the admitted one is the first.
			if _, ok := x.rootKeys[start.fp]; !ok {
				x.rootKeys[start.fp] = start.key()
			}
		}
		s.stateKeys = e.stateKeysOf(start)
		if opts.Problem != nil {
			s.nodeViol = nodeViolations(*opts.Problem, start)
		}
		roots = append(roots, s)
	}

	err := e.run(ctx, roots)
	if err != nil {
		var be *BudgetError
		if errors.As(err, &be) {
			e.finalize()
			return x, be
		}
		if x.Status == StatusInterrupted {
			e.finalize()
			return x, err
		}
		// A protocol error (sim.Apply failed) aborts with no result.
		return nil, err
	}
	e.finalize()
	return x, nil
}

// BudgetError reports that exploration exceeded its node budget.
type BudgetError struct {
	Protocol string
	Nodes    int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("checker: exploration of %s exceeded %d nodes", e.Protocol, e.Nodes)
}

// updateLedger extends the decision ledger with any decisions visible in the
// configuration. Decisions are irrevocable (sim enforces it), so a visible
// decision can only confirm or extend the ledger.
func updateLedger(old []sim.Decision, cfg *sim.Config) []sim.Decision {
	out := append([]sim.Decision(nil), old...)
	for p, s := range cfg.States {
		if d, ok := s.Decided(); ok {
			out[p] = d
		}
	}
	return out
}

// kindOf returns the state kind for an interned index.
func (x *Exploration) kindOf(i int32) sim.StateKind {
	return x.States[x.stateKeys[i]].Sample.Kind()
}

// decisionOf returns the visible decision for an interned index.
func (x *Exploration) decisionOf(i int32) sim.Decision {
	return x.States[x.stateKeys[i]].Decision()
}
