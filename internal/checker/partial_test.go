package checker

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

func TestCancelledExploreReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, err := ExploreContext(ctx, protocols.Tree{Procs: 3}, Options{MaxFailures: 2})
	if x == nil {
		t.Fatal("cancelled exploration must still return the partial Exploration")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if x.Status != StatusInterrupted || !x.Status.Partial() {
		t.Fatalf("status = %v, want interrupted (partial)", x.Status)
	}
	// Consistency of the partial snapshot: the visited count covers at
	// least the recorded root, and the unexpanded frontier is reported.
	if x.NodeCount < 1 || x.FrontierSize < 1 {
		t.Fatalf("partial snapshot inconsistent: %d nodes, %d frontier", x.NodeCount, x.FrontierSize)
	}
}

// TestBudgetExhaustionKeepsPartialResults pins the graceful-degradation
// contract: hitting MaxNodes returns the partial exploration — including
// violations already found — instead of discarding it. The budget is chosen
// below the star protocol's full space (39 503 nodes) but far enough in that
// breadth-first order has already crossed WT-TC violations, so the run is
// exhausted with violations in hand.
func TestBudgetExhaustionKeepsPartialResults(t *testing.T) {
	x, err := CheckContext(context.Background(), protocols.Star{Procs: 3},
		problem(taxonomy.WT, taxonomy.TC),
		Options{MaxFailures: 2, MaxNodes: 36_000})
	if x == nil {
		t.Fatal("exhausted exploration must still return the partial Exploration")
	}
	var budget *BudgetError
	if !errors.As(err, &budget) || budget.Nodes != 36_000 {
		t.Fatalf("err = %v, want *BudgetError with Nodes=36000", err)
	}
	if x.Status != StatusExhausted || !x.Status.Partial() {
		t.Fatalf("status = %v, want exhausted (partial)", x.Status)
	}
	// The budget is exact: the exploration accepts MaxNodes configurations
	// and stops deterministically at the first rejected one.
	if x.NodeCount != 36_000 {
		t.Fatalf("NodeCount = %d, want exactly the budget", x.NodeCount)
	}
	if x.FrontierSize == 0 {
		t.Fatal("exhausted mid-space but FrontierSize = 0")
	}
	if len(x.Violations) == 0 {
		t.Fatal("violations found before exhaustion were lost")
	}
}

// TestBudgetExhaustionExactUnderEveryDedup sweeps the exact-MaxNodes
// contract across the dedup engines: whether successors are admitted by
// fingerprint, verified fingerprint, or canonical key, the walk accepts
// exactly MaxNodes configurations, reports Exhausted, and leaves a
// non-empty frontier. The budget cut lands mid-space for star at two
// failures, so the stop happens in the middle of an expansion, not at a
// level boundary.
func TestBudgetExhaustionExactUnderEveryDedup(t *testing.T) {
	const budget = 6_000
	for _, dedup := range diffDedups {
		x, err := CheckContext(context.Background(), protocols.Star{Procs: 3},
			problem(taxonomy.WT, taxonomy.TC),
			Options{MaxFailures: 2, MaxNodes: budget, Dedup: dedup})
		if x == nil {
			t.Fatalf("%v: exhausted exploration must still return the partial Exploration", dedup)
		}
		var be *BudgetError
		if !errors.As(err, &be) || be.Nodes != budget {
			t.Fatalf("%v: err = %v, want *BudgetError with Nodes=%d", dedup, err, budget)
		}
		if x.Status != StatusExhausted {
			t.Fatalf("%v: status = %v, want exhausted", dedup, x.Status)
		}
		if x.NodeCount != budget {
			t.Fatalf("%v: NodeCount = %d, want exactly the budget %d", dedup, x.NodeCount, budget)
		}
		if len(x.Configs) != budget {
			t.Fatalf("%v: len(Configs) = %d, want exactly the budget %d", dedup, len(x.Configs), budget)
		}
		if x.FrontierSize == 0 {
			t.Fatalf("%v: exhausted mid-space but FrontierSize = 0", dedup)
		}
	}
}

func TestCompleteExplorationHasCompleteStatus(t *testing.T) {
	x := mustCheck(t, protocols.Tree{Procs: 3}, problem(taxonomy.WT, taxonomy.TC), Options{MaxFailures: 1})
	if x.Status != StatusComplete || x.Status.Partial() {
		t.Fatalf("status = %v, want complete", x.Status)
	}
	if x.FrontierSize != 0 {
		t.Fatalf("complete exploration left %d frontier nodes", x.FrontierSize)
	}
}

// TestExploreRejectsOutOfRangeFailProcs: a FailProcs entry outside
// [0, N) is a caller error reported like a wrong-length input vector,
// never an index-out-of-range panic.
func TestExploreRejectsOutOfRangeFailProcs(t *testing.T) {
	for _, p := range []sim.ProcID{-1, 3, 64} {
		x, err := ExploreContext(context.Background(), protocols.Tree{Procs: 3},
			Options{MaxFailures: 1, FailProcs: []sim.ProcID{0, p}})
		if err == nil || x != nil {
			t.Fatalf("FailProcs {0, %d}: got (%v, %v), want nil exploration and an error", p, x, err)
		}
		if !strings.Contains(err.Error(), "FailProcs") {
			t.Fatalf("FailProcs {0, %d}: error %q does not name FailProcs", p, err)
		}
	}
}
