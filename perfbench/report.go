package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one printed measurement. n is its sample count (0 for a
// single reading); note says what it is when the name does not.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
	// samples, when set, are the per-pass or per-batch values the median
	// was taken over; they are printed so a reader can see the spread.
	samples []float64
}

type report struct {
	attempted, failed int
	failures          []string
	metrics           []metric
	box               map[string]any
	// bypassed is the prefix of the layer this workload never calls; its
	// wanted metrics read 0.
	bypassed string
}

func (r *report) add(m metric) { r.metrics = append(r.metrics, m) }

func (r *report) count(failures []string, attempted int) {
	r.attempted += attempted
	r.failed += len(failures)
	r.failures = append(r.failures, failures...)
}

func (r *report) addExplore(er exploreRun) {
	r.count(er.failures, er.attempted)
	passes := seconds(er.passes)
	r.add(metric{name: "verdict_s", unit: "s", value: median(passes), n: len(passes),
		note: "median over passes of the summed Check spans", samples: passes})
	r.addPeakRSS(er.peaks, er.rssReset, "pass")
}

// addPeakRSS reports the median of the per-pass (or per-batch) peaks.
func (r *report) addPeakRSS(peaks []float64, own bool, unit string) {
	note := "median of each " + unit + "'s own peak, each from a fresh-process footprint"
	if !own {
		note = "process peak so far at the end of each " + unit + ": the kernel refused a high-water-mark reset"
	}
	r.add(metric{name: "peak_rss_mb", unit: "MB", value: median(peaks), n: len(peaks), note: note, samples: peaks})
}

func (r *report) addSoak(sr soakRun) {
	fails := sr.failures()
	r.count(fails, len(sr.runs))
	var wall time.Duration
	for _, d := range sr.batches {
		wall += d
	}
	var decide []float64
	for _, lr := range sr.runs {
		if lr.fail == "" {
			decide = append(decide, float64(lr.decide)/float64(time.Millisecond))
		}
	}
	batches := seconds(sr.batches)
	r.add(metric{name: "verdict_s", unit: "s", value: median(batches), n: len(batches),
		note: fmt.Sprintf("median wall time of a %d-run batch", liveBatch), samples: batches})
	r.addPeakRSS(sr.peaks, sr.rssReset, "batch")
	r.add(metric{name: "decisions_per_s", unit: "1/s", value: float64(len(decide)) / wall.Seconds(), n: len(decide)})
	r.add(metric{name: "decide_p50_ms", unit: "ms", value: median(decide), n: len(decide)})
	if v, err := percentile(decide, 99); err == nil {
		r.add(metric{name: "decide_p99_ms", unit: "ms", value: v, n: len(decide)})
	} else {
		p, v, _ := highestPercentile(decide)
		r.add(metric{name: fmt.Sprintf("decide_p%g_ms", p), unit: "ms", value: v, n: len(decide),
			note: "decide_p99_ms refused: " + err.Error()})
	}
}

// addGo adds the Go runtime metrics of a traced phase and the tracing
// overhead: traced over untraced headline time.
func (r *report) addGo(tr *tracer, overhead float64, units int) {
	for _, m := range tr.goLayer(units) {
		r.add(m)
	}
	r.add(metric{name: "bench.trace_overhead", unit: "ratio", value: overhead})
}

// addCheckerLayer adds the checker spans and the counters its calls return.
func (r *report) addCheckerLayer(cells []cell, er exploreRun, tr *tracer) {
	passes := float64(len(er.passes))
	for i, c := range cells {
		r.add(metric{name: "checker." + c.spec.metric + "_s", unit: "s", value: median(seconds(er.cellSpans[i])), n: len(er.cellSpans[i])})
	}
	configs := float64(er.configs)
	r.add(metric{name: "checker.configs", unit: "count", value: configs / passes, note: "per pass"})
	r.add(metric{name: "checker.configs_per_s", unit: "1/s", value: ratio(configs, tr.wall.Seconds())})
	r.add(metric{name: "checker.alloc_bytes_per_config", unit: "B", value: ratio(float64(tr.allocBytes), configs)})
	r.add(metric{name: "checker.allocs_per_config", unit: "count", value: ratio(float64(tr.objects), configs)})
	r.add(metric{name: "checker.rss_kb_per_config", unit: "KB", value: ratio(median(er.peaks)*1024, float64(er.maxConfigs)),
		note: "median pass peak RSS over the largest cell's configurations"})
	r.add(metric{name: "checker.ample_share", unit: "share", value: ratio(float64(er.ampleNodes), float64(er.ampleNodes+er.fullNodes))})
	r.add(metric{name: "checker.proviso_fallbacks", unit: "count", value: float64(er.provisoFallbacks) / passes, note: "per pass"})
	r.add(metric{name: "checker.symmetry_prunes", unit: "count", value: float64(er.symmetryPrunes) / passes, note: "per pass"})
	r.add(metric{name: "checker.elision_prunes", unit: "count", value: float64(er.elision) / passes, note: "per pass"})
}

// addRuntimeLayer adds the live runtime's spans and the counters its
// results carry. "Per decision" means per conformed consensus instance.
func (r *report) addRuntimeLayer(sr soakRun, tr *tracer) {
	var live, conform, detect, recover []float64
	var liveSum, conformSum time.Duration
	var events, msgs, attempts, retrans int64
	var falseSusp, crashes, ok int
	for _, lr := range sr.runs {
		live = append(live, float64(lr.live)/float64(time.Millisecond))
		conform = append(conform, float64(lr.conform)/float64(time.Millisecond))
		liveSum += lr.live
		conformSum += lr.conform
		events += lr.events
		msgs += lr.messages
		attempts += lr.attempts
		retrans += lr.retransmits
		falseSusp += lr.falseSusp
		crashes += lr.crashes
		detect = append(detect, millis(lr.detections)...)
		if lr.recovery > 0 {
			recover = append(recover, float64(lr.recovery)/float64(time.Millisecond))
		}
		if lr.fail == "" {
			ok++
		}
	}
	runs := float64(len(sr.runs))
	r.add(metric{name: "runtime.live_ms_p50", unit: "ms", value: median(live), n: len(live)})
	r.add(metric{name: "runtime.conform_ms_p50", unit: "ms", value: median(conform), n: len(conform)})
	r.add(metric{name: "runtime.conform_share", unit: "share", value: ratio(conformSum.Seconds(), (liveSum + conformSum).Seconds())})
	r.add(metric{name: "runtime.events_per_decision", unit: "count", value: ratio(float64(events), float64(ok))})
	r.add(metric{name: "runtime.messages_per_decision", unit: "count", value: ratio(float64(msgs), float64(ok))})
	r.add(metric{name: "runtime.alloc_bytes_per_decision", unit: "B", value: ratio(float64(tr.allocBytes), float64(ok))})
	r.add(metric{name: "runtime.retransmit_share", unit: "share", value: ratio(float64(retrans), float64(attempts))})
	r.add(metric{name: "runtime.detect_p50_ms", unit: "ms", value: median(detect), n: len(detect)})
	r.add(metric{name: "runtime.recover_p50_ms", unit: "ms", value: median(recover), n: len(recover)})
	r.add(metric{name: "runtime.false_suspicions", unit: "1/run", value: float64(falseSusp) / runs, n: len(sr.runs)})
	r.add(metric{name: "runtime.crashes_fired", unit: "1/run", value: float64(crashes) / runs, n: len(sr.runs)})
}

// addProfile attributes the traced phase's CPU profile to layers.
func (r *report) addProfile(tr *tracer) error {
	prof, err := parseCPUProfile(tr.prof.Bytes())
	if err != nil {
		return err
	}
	shares, total := attribute(prof)
	for _, l := range layerNames {
		r.add(metric{name: "cpu." + l, unit: "share", value: shares[l], n: int(total)})
	}
	return nil
}

// print writes the human-readable report, the box record, and the result
// line carrying exactly the wanted metrics. A wanted metric of the
// bypassed layer (a checker counter on live-soak, a runtime counter on
// explore-*) reads 0: that layer did no work. Any other wanted metric the
// run did not measure is an error.
func (r *report) print(want []wanted) int {
	const maxShown = 20
	for i, f := range r.failures {
		if i == maxShown {
			fmt.Printf("FAIL … and %d more\n", len(r.failures)-maxShown)
			break
		}
		fmt.Println("FAIL", f)
	}
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
		line := fmt.Sprintf("%-34s %14.6g %-6s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
		if len(m.samples) > 0 {
			fmt.Printf("%-34s %v\n", "  samples", m.samples)
		}
	}
	box, _ := json.Marshal(map[string]any{"box": r.box}) // strings and ints only: cannot fail
	fmt.Println(string(box))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok && strings.HasPrefix(w.Name, r.bypassed):
			m = metric{unit: w.Unit}
		case !ok:
			fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json wants %s, which this run did not measure\n", w.Name)
			return 1
		case m.unit != w.Unit:
			fmt.Fprintf(os.Stderr, "perfbench: %s is in %s, BENCHMARK.json says %s\n", w.Name, m.unit, w.Unit)
			return 1
		}
		out[w.Name] = value{Value: m.value, Unit: m.unit}
	}
	res, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

func memTotalMB() int {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	var kb int
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "MemTotal: %d kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceCommit names the code under test: the git commit when the working
// directory is a git checkout, else a digest of the Go sources and module
// files, which identifies the commit's content just as well.
func sourceCommit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	// The callback swallows errors: an unreadable entry just stays out of the digest.
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
