package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	consensus "repro"
)

// The live-soak workload: ackcommit(16) under WT-TC on the in-memory
// runtime, with lossy, duplicating, delaying links and planned crashes of
// up to N−1 processors. Every run is conformance-replayed.
const (
	liveProto     = "ackcommit"
	liveN         = 16
	liveProblem   = "WT-TC"
	liveBatch     = 250  // runs per verdict_s sample
	liveMinRuns   = 1000 // decide_p99_ms needs ten samples beyond it
	livePlanPerS  = 200  // planned runs per second of --seconds; far above the measured rate
	liveDropRate  = 0.10
	liveDupRate   = 0.10
	liveMaxDelay  = 300 * time.Microsecond
	liveHeartbeat = time.Millisecond
	liveDetect    = 12 * time.Millisecond
	liveDeadline  = 20 * time.Second
)

// soak is a planned live-soak: every run's inputs, crash schedule and
// transport seed derive from the benchmark seed.
type soak struct {
	proto        consensus.Protocol
	problem      consensus.Problem
	plans        []consensus.ChaosRunPlan
	disableDedup bool // self-tests only: the conformance teeth check
}

func setupSoak(seed int64, runs int) (*soak, error) {
	proto, err := consensus.ProtocolByName(liveProto, liveN)
	if err != nil {
		return nil, err
	}
	problem, err := consensus.ParseProblem(liveProblem)
	if err != nil {
		return nil, err
	}
	return &soak{proto: proto, problem: problem, plans: consensus.ChaosPlanRuns(seed, runs, liveN, liveN-1, nil)}, nil
}

func (s *soak) config(plan consensus.ChaosRunPlan) consensus.LiveConfig {
	return consensus.LiveConfig{
		Faults: consensus.LiveFaultPlan{
			Seed:         plan.Seed,
			DropRate:     liveDropRate,
			DupRate:      liveDupRate,
			MaxDelay:     liveMaxDelay,
			DisableDedup: s.disableDedup,
		},
		Failures:      plan.Failures,
		Heartbeat:     liveHeartbeat,
		DetectTimeout: liveDetect,
		Deadline:      liveDeadline,
	}
}

// liveRun is one live run as the soak saw it.
type liveRun struct {
	fail          string        // "" when the run decided, quiesced and conformed
	decide        time.Duration // run start to the last processor decision
	live, conform time.Duration
	// Read in traced phases only.
	events, messages, attempts, retransmits int64
	falseSusp, crashes                      int
	detections                              []time.Duration
	recovery                                time.Duration
}

// runOne executes plan i live and replays it for conformance. It reads the
// transport and detector counters only when traced.
func (s *soak) runOne(ctx context.Context, i int, traced bool) liveRun {
	var out liveRun
	t0 := time.Now()
	res, err := consensus.Live(ctx, s.proto, s.plans[i].Inputs, s.config(s.plans[i]))
	out.live = time.Since(t0)
	if err != nil {
		out.fail = fmt.Sprintf("run %d: %v", i, err)
		return out
	}
	for _, d := range res.Decided {
		out.decide = max(out.decide, d)
	}
	t1 := time.Now()
	conf, cerr := consensus.LiveConformStream(res, s.proto, s.problem)
	out.conform = time.Since(t1)
	switch {
	case res.Err != nil:
		out.fail = fmt.Sprintf("run %d: %v", i, res.Err)
	case !res.Quiescent:
		out.fail = fmt.Sprintf("run %d: did not quiesce", i)
	case cerr != nil:
		out.fail = fmt.Sprintf("run %d: conformance: %v", i, cerr)
	case !conf.OK():
		out.fail = fmt.Sprintf("run %d: diverged: %v", i, conf.Divergences[0])
	}
	if traced {
		st := res.Transport
		out.events = int64(len(res.Schedule))
		out.messages = st.Accepted
		out.retransmits = st.Drops + st.Dups
		out.attempts = st.Accepted + st.Drops + st.Dups
		out.falseSusp = res.FalseSuspicions
		out.crashes = len(res.Crashes)
		for _, c := range res.Crashes {
			out.detections = append(out.detections, c.Detection)
		}
		out.recovery = res.Recovery
	}
	return out
}

// soakRun is what one phase of the soak measured.
type soakRun struct {
	batches  []time.Duration // wall time of each liveBatch-run batch
	peaks    []float64       // peak RSS of each batch, MB
	rssReset bool            // whether every batch's peak was its own
	runs     []liveRun
	next     int // index of the next unused plan
}

func (r *soakRun) failures() []string {
	var out []string
	for _, lr := range r.runs {
		if lr.fail != "" {
			out = append(out, lr.fail)
		}
	}
	return out
}

// soakBatches runs batches of liveBatch runs as a closed loop of
// GOMAXPROCS concurrent runs until at least budget has elapsed and at
// least minRuns runs finished, or the plans run out. Plans are consumed in
// order starting at from, so phases of one process never repeat a run.
// Each batch starts from the footprint of a fresh process and records its
// own peak RSS.
func (s *soak) soakBatches(ctx context.Context, from int, budget time.Duration, minRuns int, tr *tracer) soakRun {
	r := soakRun{next: from, rssReset: true}
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	for r.next+liveBatch <= len(s.plans) && (len(r.batches) == 0 || time.Since(start) < budget || len(r.runs) < minRuns) {
		r.rssReset = resetPeakRSS() && r.rssReset
		batch := make([]liveRun, liveBatch)
		first := r.next
		var claim atomic.Int64
		d := tr.span(func() {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k := int(claim.Add(1)) - 1
						if k >= liveBatch {
							return
						}
						batch[k] = s.runOne(ctx, first+k, tr != nil)
					}
				}()
			}
			wg.Wait()
		})
		r.batches = append(r.batches, d)
		r.peaks = append(r.peaks, peakRSSMB())
		r.runs = append(r.runs, batch...)
		r.next += liveBatch
	}
	return r
}
