// Command ccbench benchmarks the exhaustive explorer and maintains the
// tracked throughput baseline. Each configured run explores a protocol's
// full reachable space and reports nodes/second plus allocation intensity
// (allocations and bytes per explored node); the results are written as
// JSON (BENCH_explore.json) together with a record of the box they ran on
// (GOMAXPROCS, CPU count, memory), so CI can archive them and compare
// against the committed baseline.
//
// The explorer is deterministic — one breadth-first walk, byte-identical
// under every -dedup engine — so the node and state counts of a row must
// equal the baseline's exactly; ccbench checks that against -against, so a
// throughput number can never come from a divergent exploration.
//
// Usage:
//
//	ccbench -proto tree,star,chain -n 3 -maxfail 2 -reduce none,both -o BENCH_explore.json
//	ccbench -against BENCH_explore.json -tolerance 0.30 -alloc-tolerance 0.20
//	ccbench -proto tree -cpuprofile cpu.out -memprofile mem.out
//
// Exit codes: 0 ok, 1 error, 2 node/state count mismatch, or throughput or
// allocation regression beyond tolerance, against the -against baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	consensus "repro"
)

// Result is one benchmark measurement. AllocsPerNode and BytesPerNode are
// taken from the fastest repeat: total heap allocations (and bytes) during
// the exploration divided by the number of explored nodes.
type Result struct {
	Protocol      string  `json:"protocol"`
	N             int     `json:"n"`
	MaxFailures   int     `json:"maxFailures"`
	Nodes         int     `json:"nodes"`
	States        int     `json:"states"`
	WallMs        float64 `json:"wallMs"`
	NodesPerSec   float64 `json:"nodesPerSec"`
	AllocsPerNode float64 `json:"allocsPerNode"`
	BytesPerNode  float64 `json:"bytesPerNode"`
	// Reduction names the state-space reduction the row measured; empty
	// means none (baselines written before reductions existed have no
	// field at all and compare as unreduced rows).
	Reduction string `json:"reduction,omitempty"`
	// AmpleAvg is the average ample-set size (ample successor edges per
	// ample expansion) of a reduced run.
	AmpleAvg float64 `json:"ampleAvg,omitempty"`
	// ProvisoFallbacks, SymmetryPrunes, and ElisionPrunes mirror the
	// exploration's ReductionStats for the fastest repeat.
	ProvisoFallbacks int   `json:"provisoFallbacks,omitempty"`
	SymmetryPrunes   int64 `json:"symmetryPrunes,omitempty"`
	ElisionPrunes    int64 `json:"elisionPrunes,omitempty"`
	// ReductionFactor is unreduced nodes / reduced nodes, filled when the
	// same invocation also measured the protocol at -reduce none.
	ReductionFactor float64 `json:"reductionFactor,omitempty"`
}

// File is the on-disk shape of BENCH_explore.json. GOMAXPROCS, NumCPU, and
// MemTotalMB record the box at measurement time, so a baseline taken on a
// different machine is recognizably foreign.
type File struct {
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"numCPU"`
	MemTotalMB int      `json:"memTotalMB,omitempty"`
	Dedup      string   `json:"dedup"`
	Repeat     int      `json:"repeat"`
	Results    []Result `json:"results"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		protoNames = flag.String("proto", "tree,star,chain", "comma-separated protocols to explore")
		n          = flag.Int("n", 3, "number of processors")
		maxFail    = flag.Int("maxfail", 2, "maximum injected failures")
		repeat     = flag.Int("repeat", 3, "runs per configuration; the fastest is reported")
		reduceList = flag.String("reduce", "none", "comma-separated state-space reductions to measure (none, ample, symmetry, both); a none row in the same run provides the reduction-factor reference")
		dedupName  = flag.String("dedup", "fingerprint", "visited-set engine: fingerprint, verified, or strings")
		out        = flag.String("o", "BENCH_explore.json", "output file (- for stdout only)")
		against    = flag.String("against", "", "baseline BENCH_explore.json to compare against")
		tolerance  = flag.Float64("tolerance", 0.30, "allowed fractional nodes/sec regression vs the baseline")
		allocTol   = flag.Float64("alloc-tolerance", 0.20, "allowed fractional allocs/node regression vs the baseline")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file after the runs")
	)
	flag.Parse()

	dedup, err := parseDedup(*dedupName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		return 1
	}
	var protos []consensus.Protocol
	for _, name := range strings.Split(*protoNames, ",") {
		proto, err := consensus.ProtocolByName(strings.TrimSpace(name), *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			return 1
		}
		protos = append(protos, proto)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	f := File{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		MemTotalMB: memTotalMB(),
		Dedup:      dedup.String(),
		Repeat:     *repeat,
	}
	reductions, err := parseReductions(*reduceList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		return 1
	}
	noneNodes := map[string]int{} // unreduced node count per protocol, for ReductionFactor
	for _, proto := range protos {
		for _, red := range reductions {
			res, err := measure(proto, *maxFail, *repeat, dedup, red)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ccbench:", err)
				return 1
			}
			if red == consensus.ReduceNone {
				noneNodes[res.Protocol] = res.Nodes
			} else if full, ok := noneNodes[res.Protocol]; ok && res.Nodes > 0 {
				res.ReductionFactor = float64(full) / float64(res.Nodes)
			}
			line := fmt.Sprintf("%-16s maxfail=%d  %8d nodes  %8.0f ms  %10.0f nodes/sec  %6.1f allocs/node  %7.0f B/node",
				res.Protocol, res.MaxFailures, res.Nodes, res.WallMs, res.NodesPerSec,
				res.AllocsPerNode, res.BytesPerNode)
			if red != consensus.ReduceNone {
				line += fmt.Sprintf("  reduce=%s ample-avg=%.2f", res.Reduction, res.AmpleAvg)
				if res.ReductionFactor > 0 {
					line += fmt.Sprintf(" factor=%.1fx", res.ReductionFactor)
				}
			}
			fmt.Println(line)
			f.Results = append(f.Results, res)
		}
	}

	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			return 1
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			return 1
		}
	}

	if *out != "-" {
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *against != "" {
		return compare(f, *against, *tolerance, *allocTol)
	}
	return 0
}

// memTotalMB reads the box's physical memory from /proc/meminfo; 0 where
// that file is unavailable.
func memTotalMB() int {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "MemTotal:" {
			kb, err := strconv.Atoi(fields[1])
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// parseReductions parses the -reduce list. A none entry is moved to the
// front so its node counts are available as the reduction-factor reference
// for the reduced rows of the same invocation.
func parseReductions(s string) ([]consensus.Reduction, error) {
	var out []consensus.Reduction
	seen := map[consensus.Reduction]bool{}
	for _, part := range strings.Split(s, ",") {
		r, err := consensus.ParseReduction(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if seen[r] {
			continue
		}
		seen[r] = true
		if r == consensus.ReduceNone {
			out = append([]consensus.Reduction{r}, out...)
		} else {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-reduce names no reductions")
	}
	return out, nil
}

func parseDedup(s string) (consensus.Dedup, error) {
	switch s {
	case "fingerprint":
		return consensus.DedupFingerprint, nil
	case "verified":
		return consensus.DedupVerified, nil
	case "strings":
		return consensus.DedupStrings, nil
	}
	return 0, fmt.Errorf("bad -dedup %q (want fingerprint, verified, or strings)", s)
}

func measure(proto consensus.Protocol, maxFail, repeat int, dedup consensus.Dedup, red consensus.Reduction) (Result, error) {
	best := Result{
		Protocol:    proto.Name(),
		N:           proto.N(),
		MaxFailures: maxFail,
	}
	if red != consensus.ReduceNone {
		best.Reduction = red.String()
	}
	var before, after runtime.MemStats
	for i := 0; i < repeat; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		opts := consensus.CheckOptions{
			MaxFailures: maxFail,
			Dedup:       dedup,
			Reduction:   red,
		}
		x, err := consensus.Explore(proto, opts)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return best, err
		}
		ms := float64(wall.Microseconds()) / 1000
		if best.Nodes != 0 && x.NodeCount != best.Nodes {
			return best, fmt.Errorf("determinism breach: repeat %d explored %d nodes, previous runs %d", i, x.NodeCount, best.Nodes)
		}
		if best.Nodes == 0 || ms < best.WallMs {
			best.Nodes = x.NodeCount
			best.States = len(x.States)
			best.WallMs = ms
			best.NodesPerSec = float64(x.NodeCount) / wall.Seconds()
			best.AllocsPerNode = float64(after.Mallocs-before.Mallocs) / float64(x.NodeCount)
			best.BytesPerNode = float64(after.TotalAlloc-before.TotalAlloc) / float64(x.NodeCount)
			rs := x.Reduction
			if rs.AmpleNodes > 0 {
				best.AmpleAvg = float64(rs.AmpleEvents) / float64(rs.AmpleNodes)
			}
			best.ProvisoFallbacks = rs.ProvisoFallbacks
			best.SymmetryPrunes = rs.SymmetryPrunes
			best.ElisionPrunes = rs.ElisionPrunes
		}
	}
	return best, nil
}

// rowKey identifies a result row for baseline matching: protocol and
// failure bound, plus a suffix for reduced rows.
func rowKey(r Result) string {
	key := fmt.Sprintf("%s/f%d", r.Protocol, r.MaxFailures)
	if r.Reduction != "" && r.Reduction != "none" {
		key += "/" + r.Reduction
	}
	return key
}

// compare checks every current result against the matching baseline row
// (same protocol, failure bound, and reduction): node and state counts
// must be equal, throughput must stay within -tolerance of the baseline,
// and allocations per node within -alloc-tolerance. Rows missing from the baseline are reported but not
// failed, so new configurations can land before the baseline is
// regenerated.
func compare(cur File, path string, tolerance, allocTol float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		return 1
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		return 1
	}
	baseline := make(map[string]Result)
	for _, r := range base.Results {
		baseline[rowKey(r)] = r
	}
	regressed := false
	for _, r := range cur.Results {
		key := rowKey(r)
		b, ok := baseline[key]
		if !ok {
			fmt.Printf("%s: no baseline row, skipping comparison\n", key)
			continue
		}
		if r.Nodes != b.Nodes || r.States != b.States {
			fmt.Printf("%s: COUNT MISMATCH %d nodes, %d states vs baseline %d nodes, %d states\n",
				key, r.Nodes, r.States, b.Nodes, b.States)
			regressed = true
		}
		floor := b.NodesPerSec * (1 - tolerance)
		if r.NodesPerSec < floor {
			fmt.Printf("%s: REGRESSION %.0f nodes/sec vs baseline %.0f (floor %.0f at tolerance %.0f%%)\n",
				key, r.NodesPerSec, b.NodesPerSec, floor, tolerance*100)
			regressed = true
		} else {
			fmt.Printf("%s: ok %.0f nodes/sec vs baseline %.0f\n", key, r.NodesPerSec, b.NodesPerSec)
		}
		if b.AllocsPerNode > 0 {
			ceil := b.AllocsPerNode * (1 + allocTol)
			if r.AllocsPerNode > ceil {
				fmt.Printf("%s: ALLOC REGRESSION %.1f allocs/node vs baseline %.1f (ceiling %.1f at tolerance %.0f%%)\n",
					key, r.AllocsPerNode, b.AllocsPerNode, ceil, allocTol*100)
				regressed = true
			} else {
				fmt.Printf("%s: ok %.1f allocs/node vs baseline %.1f\n", key, r.AllocsPerNode, b.AllocsPerNode)
			}
		}
	}
	if regressed {
		return 2
	}
	return 0
}
