package scheme

import (
	"context"
	"errors"
	"testing"

	"repro/internal/protocols"
)

func TestCancelledEnumerateReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := EnumerateContext(ctx, protocols.Tree{Procs: 3}, allOnes(3), Options{})
	if e == nil {
		t.Fatal("cancelled enumeration must still return the partial Enumeration")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e.Status != StatusInterrupted || !e.Status.Partial() {
		t.Fatalf("status = %v, want interrupted (partial)", e.Status)
	}
	if e.Set == nil {
		t.Fatal("partial enumeration lost its pattern set")
	}
}

func TestCancelledOfReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := OfContext(ctx, protocols.Tree{Procs: 3}, Options{})
	if e == nil || err == nil {
		t.Fatalf("OfContext = (%v, %v), want partial enumeration and error", e, err)
	}
	if !e.Status.Partial() {
		t.Fatalf("status = %v, want partial", e.Status)
	}
}

// TestBudgetExhaustionExactUnderEveryDedup sweeps the exact-MaxNodes
// contract across the dedup engines: the walk accepts exactly MaxNodes
// configurations before reporting Exhausted, whichever visited-set
// representation admits them.
func TestBudgetExhaustionExactUnderEveryDedup(t *testing.T) {
	// Full exchange's failure-free space has 127 nodes; 60 cuts mid-space.
	const budget = 60
	for _, dedup := range diffDedups {
		e, err := EnumerateContext(context.Background(), protocols.FullExchange{Procs: 3},
			allOnes(3), Options{MaxNodes: budget, Dedup: dedup})
		if e == nil {
			t.Fatalf("%v: exhausted enumeration must still return the partial Enumeration", dedup)
		}
		var be *BudgetError
		if !errors.As(err, &be) || be.Nodes != budget {
			t.Fatalf("%v: err = %v, want *BudgetError with Nodes=%d", dedup, err, budget)
		}
		if e.Status != StatusExhausted {
			t.Fatalf("%v: status = %v, want exhausted", dedup, e.Status)
		}
		if e.Visited != budget {
			t.Fatalf("%v: Visited = %d, want exactly the budget %d", dedup, e.Visited, budget)
		}
		if e.Frontier == 0 {
			t.Fatalf("%v: exhausted mid-space but Frontier = 0", dedup)
		}
	}
}

func TestCompleteEnumerationStatus(t *testing.T) {
	e, err := EnumerateContext(context.Background(), protocols.Tree{Procs: 3}, allOnes(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Status != StatusComplete || e.Status.Partial() {
		t.Fatalf("status = %v, want complete", e.Status)
	}
	if e.Set.Len() == 0 || e.Visited == 0 {
		t.Fatalf("complete enumeration reported %d patterns over %d nodes", e.Set.Len(), e.Visited)
	}
	if e.Frontier != 0 {
		t.Fatalf("complete enumeration left %d frontier nodes", e.Frontier)
	}
}
