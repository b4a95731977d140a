// Command perfbench is the repository benchmark. It drives the three
// engines through the root consensus facade on one workload and prints
// every metric by name, with its unit and sample count, then one JSON
// result line:
//
//	bash perfbench/run.sh --workload explore-full --seed 1 --seconds 30 --trace 0
//
// Workloads: explore-full, explore-reduced, live-soak. With --trace 0 the
// result holds the end-to-end metrics; with --trace 1 an untraced phase is
// followed by a traced phase (spans around each facade call, runtime/metrics
// deltas, a CPU profile attributed to layers) and the result holds the
// per-layer metrics. BENCHMARK.json at the repository root names the
// metrics the result line must carry. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many fresh processes measure setup_s per run.
const setupProbes = 21

// bench is one workload after setup, ready for its first timed call.
type bench struct {
	cells []cell // explore-*
	soak  *soak  // live-soak
}

func setup(workload string, seed int64, secs int) (*bench, error) {
	b := &bench{}
	var err error
	switch workload {
	case "explore-full":
		b.cells, err = setupCells(exploreFull)
	case "explore-reduced":
		b.cells, err = setupCells(exploreReduced)
	case "live-soak":
		b.soak, err = setupSoak(seed, livePlanPerS*secs+liveMinRuns)
	default:
		err = fmt.Errorf("unknown workload %q (want explore-full, explore-reduced or live-soak)", workload)
	}
	return b, err
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "explore-full, explore-reduced or live-soak")
	seed := flag.Int64("seed", 1, "workload seed (live-soak inputs, crash schedules and transport faults)")
	secs := flag.Int("seconds", 30, "minimum measured seconds per phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	probe := flag.Bool("probe-setup", false, "set up, print the time of the first timed call, and exit")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		return 2
	}

	b, err := setup(*workload, *seed, *secs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *probe {
		fmt.Println(time.Now().UnixNano())
		return 0
	}
	want, err := wantedMetrics(*trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	setupS, err := probeSetup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	budget := time.Duration(*secs) * time.Second
	var r *report
	if *trace == 0 {
		r = b.endToEnd(budget)
		r.add(metric{name: "setup_s", unit: "s", value: median(setupS), n: len(setupS), samples: setupS})
	} else {
		r, err = b.perLayer(budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	r.box = boxRecord(*workload, *seed, *secs, *trace)
	if b.soak != nil {
		r.bypassed = "checker."
	} else {
		r.bypassed = "runtime."
	}
	return r.print(want)
}

// probeSetup starts this binary setupProbes times in --probe-setup mode
// and returns, for each, the seconds from just before its start to its
// first timed call: process start, runtime and package initialization,
// and the workload's setup.
func probeSetup() ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	args := append([]string{"--probe-setup"}, os.Args[1:]...)
	var out []float64
	for i := 0; i < setupProbes; i++ {
		t0 := time.Now()
		stdout, err := exec.Command(self, args...).Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(stdout)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", stdout, err)
		}
		out = append(out, time.Duration(ns-t0.UnixNano()).Seconds())
	}
	return out, nil
}

// endToEnd measures the workload untraced for at least budget.
func (b *bench) endToEnd(budget time.Duration) *report {
	r := &report{}
	if b.soak != nil {
		sr := b.soak.soakBatches(context.Background(), 0, budget, liveMinRuns, nil)
		r.addSoak(sr)
	} else {
		er := explorePasses(b.cells, budget, nil)
		r.addExplore(er)
	}
	r.add(metric{name: "failed_share", unit: "ratio", value: ratio(float64(r.failed), float64(r.attempted)), n: r.attempted})
	return r
}

// perLayer runs an untraced phase and then a traced phase of at least
// budget/2 each; the per-layer metrics come from the traced phase, and
// their ratio of headline times is the tracing overhead.
func (b *bench) perLayer(budget time.Duration) (*report, error) {
	half := budget / 2
	r := &report{}
	var untraced float64
	if b.soak != nil {
		sr := b.soak.soakBatches(context.Background(), 0, half, 0, nil)
		r.count(sr.failures(), len(sr.runs))
		untraced = median(seconds(sr.batches))
		tr, err := startTracer()
		if err != nil {
			return nil, err
		}
		tsr := b.soak.soakBatches(context.Background(), sr.next, half, 0, tr)
		tr.stop()
		r.count(tsr.failures(), len(tsr.runs))
		r.addGo(tr, median(seconds(tsr.batches))/untraced, len(tsr.batches))
		r.addRuntimeLayer(tsr, tr)
		return r, r.addProfile(tr)
	}
	er := explorePasses(b.cells, half, nil)
	r.count(er.failures, er.attempted)
	untraced = median(seconds(er.passes))
	tr, err := startTracer()
	if err != nil {
		return nil, err
	}
	ter := explorePasses(b.cells, half, tr)
	tr.stop()
	r.count(ter.failures, ter.attempted)
	r.addGo(tr, median(seconds(ter.passes))/untraced, len(ter.passes))
	r.addCheckerLayer(b.cells, ter, tr)
	return r, r.addProfile(tr)
}

// wantedMetrics reads the metric names the result line must carry from
// BENCHMARK.json in the working directory (the repository root).
func wantedMetrics(trace int) ([]wanted, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []wanted `json:"end_to_end"`
		PerLayer []wanted `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if trace == 1 {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// wanted is one metric BENCHMARK.json declares.
type wanted struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// boxRecord names the machine and the code a result came from.
func boxRecord(workload string, seed int64, secs, trace int) map[string]any {
	return map[string]any{
		"workload":     workload,
		"seed":         seed,
		"seconds":      secs,
		"trace":        trace,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"mem_total_mb": memTotalMB(),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"commit":       sourceCommit(),
	}
}
