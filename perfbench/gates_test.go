package main

import (
	"context"
	"strings"
	"testing"
)

// The correctness gates must report a wrong result as a failure, never as
// a pass. These self-tests feed them known-wrong expectations and a
// transport known to break conformance.

func TestExploreGateFailsOnWrongCount(t *testing.T) {
	star := exploreFull[1]
	if star.metric != "star3" {
		t.Fatalf("exploreFull[1] is %s, want star3", star.metric)
	}
	wrongCount := star
	wrongCount.configs++
	wrongStates := star
	wrongStates.states--
	wrongVerdict := star
	wrongVerdict.conforms = !star.conforms
	cells, err := setupCells([]cellSpec{star, wrongCount, wrongStates, wrongVerdict})
	if err != nil {
		t.Fatal(err)
	}
	run := explorePasses(cells, 0, nil)
	if run.attempted != 4 || len(run.failures) != 3 {
		t.Fatalf("attempted %d, failures %q; want 4 attempted and exactly the 3 wrong expectations failing", run.attempted, run.failures)
	}
	for i, want := range []string{"configurations", "states", "verdict"} {
		if !strings.Contains(run.failures[i], want) {
			t.Errorf("failure %d = %q, want it to name the wrong %s", i, run.failures[i], want)
		}
	}
	r := &report{}
	r.count(run.failures, run.attempted)
	if r.failed != 3 || r.attempted != 4 {
		t.Errorf("report counts %d/%d failed, want 3/4", r.failed, r.attempted)
	}
}

func TestLiveGateFailsWithoutDedup(t *testing.T) {
	const runs = 8
	s, err := setupSoak(1984, runs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		if lr := s.runOne(context.Background(), i, false); lr.fail != "" {
			t.Fatalf("control run %d failed with dedup on: %s", i, lr.fail)
		}
	}
	s.disableDedup = true
	failed := 0
	for i := 0; i < runs; i++ {
		if lr := s.runOne(context.Background(), i, false); lr.fail != "" {
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("all %d runs passed with receiver dedup off at a %.0f%% dup rate; the conformance gate has no teeth", runs, liveDupRate*100)
	}
	t.Logf("%d/%d runs failed with dedup off", failed, runs)
}
