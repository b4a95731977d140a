package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestLayerRulesMatchProfiledFunctions profiles a mix of the three
// workloads on this commit and requires every layer rule to match a
// sampled function, so renaming a mapped function fails here instead of
// silently reading 0% in the cpu.* shares.
func TestLayerRulesMatchProfiledFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles several seconds of explorer and live work")
	}
	specs := []cellSpec{exploreReduced[0], exploreFull[1], exploreReduced[4]}
	cells, err := setupCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := setupSoak(7, 4000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	unmatched := func() []string {
		var out []string
		for _, r := range layerRules {
			hit := false
			for fn := range seen {
				if strings.HasPrefix(fn, r.prefix) && strings.HasSuffix(fn, r.suffix) {
					hit = true
					break
				}
			}
			if !hit {
				out = append(out, r.layer+": "+r.prefix+"*"+r.suffix)
			}
		}
		return out
	}
	next := 0
	deadline := time.Now().Add(2 * time.Minute)
	for len(seen) == 0 || len(unmatched()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("layer rules matching no profiled function:\n%s", strings.Join(unmatched(), "\n"))
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		run := explorePasses(cells, 0, nil)
		for i := 0; i < 200 && next < len(s.plans); i, next = i+1, next+1 {
			if lr := s.runOne(context.Background(), next, false); lr.fail != "" {
				t.Errorf("live run: %s", lr.fail)
			}
		}
		pprof.StopCPUProfile()
		if len(run.failures) > 0 {
			t.Fatalf("explorer cells failed: %q", run.failures)
		}
		prof, err := parseCPUProfile(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range prof.stacks {
			for _, fn := range st {
				seen[fn] = true
			}
		}
	}
}

func TestAttributeInnermostRuleWins(t *testing.T) {
	p := &cpuProfile{
		stacks: [][]string{
			// Hashing inside successor generation counts as hashing.
			{"repro/internal/fingerprint.(*Hasher).WriteString", "repro/internal/protocols.treeState.Key", "repro/internal/sim.Apply", "main.main"},
			{"runtime.memmove", "repro/internal/sim.Apply", "repro/internal/runtime.ConformStream"},
			{"runtime.gcDrain", "runtime.gcBgMarkWorker"},
			{"runtime.futex", "main.main"},
		},
		counts: []int64{3, 2, 4, 1},
	}
	shares, total := attribute(p)
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	for layer, want := range map[string]float64{"hashing": 0.3, "successors": 0.2, "gc": 0.4, "pool": 0} {
		if shares[layer] != want {
			t.Errorf("cpu.%s = %v, want %v", layer, shares[layer], want)
		}
	}
}

func TestEveryRuleNamesAReportedLayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layerNames {
		known[l] = true
	}
	for _, r := range layerRules {
		if !known[r.layer] {
			t.Errorf("rule %s*%s maps to unreported layer %q", r.prefix, r.suffix, r.layer)
		}
	}
}
