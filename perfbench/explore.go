package main

import (
	"fmt"
	"time"

	consensus "repro"
)

// cellSpec names one checker cell. Every explorer cell is deterministic, so
// the expected verdict and (where gated) the exact configuration and state
// counts are part of the spec.
type cellSpec struct {
	metric   string // per-cell span name: checker.<metric>_s
	proto    string
	n        int
	problem  string
	maxFail  int
	omission int
	reduce   string
	conforms bool
	configs  int // exact configuration count; 0 = not gated
	states   int // exact state count; 0 = not gated
}

// exploreFull is unreduced WT-TC at two failures: successor generation,
// incremental fingerprints, dedup and the default-parallelism pool do the
// work, with no symmetry canonicalization.
var exploreFull = []cellSpec{
	{metric: "tree3", proto: "tree", n: 3, problem: "WT-TC", maxFail: 2, reduce: "none", conforms: true, configs: 103366, states: 1026},
	{metric: "star3", proto: "star", n: 3, problem: "WT-TC", maxFail: 2, reduce: "none", conforms: false, configs: 39503, states: 189},
	{metric: "chain3", proto: "chain", n: 3, problem: "WT-TC", maxFail: 2, reduce: "none", conforms: false, configs: 95772, states: 833},
}

// exploreReduced runs the same cells with every reduction on, plus the
// symmetric fullexchange cell where state hashing and PermuteConfig
// dominate, plus an omission cell on which the reductions are disabled
// today. Reductions may legitimately change node counts, so only verdicts
// are gated.
var exploreReduced = []cellSpec{
	{metric: "tree3", proto: "tree", n: 3, problem: "WT-TC", maxFail: 2, reduce: "both", conforms: true},
	{metric: "star3", proto: "star", n: 3, problem: "WT-TC", maxFail: 2, reduce: "both", conforms: false},
	{metric: "chain3", proto: "chain", n: 3, problem: "WT-TC", maxFail: 2, reduce: "both", conforms: false},
	{metric: "fullexchange3", proto: "fullexchange", n: 3, problem: "WT-IC", maxFail: 2, reduce: "both", conforms: true},
	{metric: "ackcommit3_omit", proto: "ackcommit", n: 3, problem: "WT-TC", maxFail: 1, omission: 1, reduce: "both", conforms: false},
}

// cell is a cellSpec resolved through the public facade.
type cell struct {
	spec    cellSpec
	proto   consensus.Protocol
	problem consensus.Problem
	opts    consensus.CheckOptions
}

// setupCells resolves specs into checker calls. Timed runs set only
// MaxFailures, Reduction and OmissionBudget: the benchmark measures the
// defaults users get.
func setupCells(specs []cellSpec) ([]cell, error) {
	cells := make([]cell, len(specs))
	for i, s := range specs {
		proto, err := consensus.ProtocolByName(s.proto, s.n)
		if err != nil {
			return nil, err
		}
		problem, err := consensus.ParseProblem(s.problem)
		if err != nil {
			return nil, err
		}
		red, err := consensus.ParseReduction(s.reduce)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{spec: s, proto: proto, problem: problem, opts: consensus.CheckOptions{
			MaxFailures:    s.maxFail,
			Reduction:      red,
			OmissionBudget: s.omission,
		}}
	}
	return cells, nil
}

// judgeCell returns "" when the exploration matches the spec, else why not.
func judgeCell(s cellSpec, exp *consensus.Exploration, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", s.metric, err)
	}
	if got := len(exp.Violations) == 0; got != s.conforms {
		return fmt.Sprintf("%s: verdict %s, want %s", s.metric, verdict(got), verdict(s.conforms))
	}
	if s.configs != 0 && exp.NodeCount != s.configs {
		return fmt.Sprintf("%s: %d configurations, want %d", s.metric, exp.NodeCount, s.configs)
	}
	if s.states != 0 && len(exp.States) != s.states {
		return fmt.Sprintf("%s: %d states, want %d", s.metric, len(exp.States), s.states)
	}
	return ""
}

func verdict(conforms bool) string {
	if conforms {
		return "CONFORMS"
	}
	return "VIOLATES"
}

// exploreRun is what one phase of passes measured.
type exploreRun struct {
	passes    []time.Duration   // sum of the Check spans of each pass
	peaks     []float64         // peak RSS of each pass, MB
	rssReset  bool              // whether every pass's peak was its own
	cellSpans [][]time.Duration // [cell][pass]
	attempted int
	failures  []string
	// Filled by traced phases only.
	configs, maxConfigs     int
	ampleNodes, fullNodes   int
	provisoFallbacks        int
	symmetryPrunes, elision int64
}

// explorePasses runs the cells in order, pass after pass, until at least
// budget has elapsed; the pass in progress always completes. Each pass
// starts from the footprint of a fresh process and records its own peak
// RSS. With a non-nil tracer the Check calls are metered and the returned
// counters read.
func explorePasses(cells []cell, budget time.Duration, tr *tracer) exploreRun {
	run := exploreRun{cellSpans: make([][]time.Duration, len(cells)), rssReset: true}
	start := time.Now()
	for len(run.passes) == 0 || time.Since(start) < budget {
		run.rssReset = resetPeakRSS() && run.rssReset
		var pass time.Duration
		for i, c := range cells {
			var exp *consensus.Exploration
			var err error
			d := tr.span(func() { exp, err = consensus.Check(c.proto, c.problem, c.opts) })
			pass += d
			run.cellSpans[i] = append(run.cellSpans[i], d)
			run.attempted++
			if why := judgeCell(c.spec, exp, err); why != "" {
				run.failures = append(run.failures, why)
			}
			if tr != nil && err == nil {
				run.readCounters(exp)
			}
		}
		run.passes = append(run.passes, pass)
		run.peaks = append(run.peaks, peakRSSMB())
	}
	return run
}

// readCounters accumulates the counters an Exploration already carries.
func (r *exploreRun) readCounters(exp *consensus.Exploration) {
	r.configs += exp.NodeCount
	r.maxConfigs = max(r.maxConfigs, exp.NodeCount)
	r.ampleNodes += exp.Reduction.AmpleNodes
	r.fullNodes += exp.Reduction.FullNodes
	r.provisoFallbacks += exp.Reduction.ProvisoFallbacks
	r.symmetryPrunes += exp.Reduction.SymmetryPrunes
	r.elision += exp.Reduction.ElisionPrunes
}
