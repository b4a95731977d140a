package scheme

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/frontier"
	"repro/internal/protocols"
	"repro/internal/sim"
)

// diffDedups crosses the three dedup engines into the differential matrix;
// the string-keyed sequential run is the reference.
var diffDedups = []frontier.Dedup{frontier.DedupStrings, frontier.DedupFingerprint, frontier.DedupVerified}

// enumDigest renders an Enumeration canonically so byte-identity across
// dedup engines is a string comparison.
func enumDigest(en *Enumeration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "status=%v visited=%d frontier=%d patterns=%d\n",
		en.Status, en.Visited, en.Frontier, en.Set.Len())
	for _, k := range en.Set.Keys() {
		sb.WriteString(k)
		sb.WriteByte('\n')
	}
	return sb.String()
}

type enumDiffCase struct {
	name  string
	proto sim.Protocol
	opts  Options
}

func enumDiffCases() []enumDiffCase {
	return []enumDiffCase{
		{"tree", protocols.Tree{Procs: 3}, Options{}},
		{"star", protocols.Star{Procs: 3}, Options{}},
		{"chain", protocols.Chain{Procs: 3}, Options{}},
		{"perverse", protocols.Perverse{}, Options{}},
		{"ackcommit", protocols.AckCommit{Procs: 3}, Options{}},
		// Full exchange is the densest failure-free space (127 nodes); a
		// mid-space budget exercises the deterministic exhaustion stop, so
		// the budget-exhausted partial is part of the differential matrix.
		{"fullexchange", protocols.FullExchange{Procs: 3}, Options{MaxNodes: 60}},
		{"haltingcommit", protocols.HaltingCommit{Procs: 3}, Options{}},
	}
}

// TestEnumerateDifferential asserts that enumerating every library
// protocol's failure-free executions (all-ones inputs) with every dedup
// engine yields byte-identical Enumerations: the pattern set, visited
// count, frontier, and status.
func TestEnumerateDifferential(t *testing.T) {
	for _, tc := range enumDiffCases() {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.proto.N()
			inputs := make([]sim.Bit, n)
			for i := range inputs {
				inputs[i] = sim.One
			}
			var baseDigest, baseErr string
			first := true
			for _, dedup := range diffDedups {
				opts := tc.opts
				opts.Dedup = dedup
				en, err := EnumerateContext(context.Background(), tc.proto, inputs, opts)
				if en == nil {
					t.Fatalf("%v: nil enumeration (err=%v)", dedup, err)
				}
				if en.Collisions != 0 {
					t.Errorf("%v: %d fingerprint collisions", dedup, en.Collisions)
				}
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				d := enumDigest(en)
				if first {
					baseDigest, baseErr = d, errStr
					first = false
					continue
				}
				if errStr != baseErr {
					t.Errorf("%v: err = %q, want %q", dedup, errStr, baseErr)
				}
				if d != baseDigest {
					t.Errorf("%v: enumeration diverges from string-keyed reference (digest mismatch)\nwant:\n%s\ngot:\n%s", dedup, baseDigest, d)
				}
			}
		})
	}
}

// TestEnumerateDifferentialCancelled asserts a cancelled context yields the
// same partial Enumeration (status, visited, frontier) under every dedup
// engine.
func TestEnumerateDifferentialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := []sim.Bit{sim.One, sim.One, sim.One}
	var baseDigest string
	for i, dedup := range diffDedups {
		en, err := EnumerateContext(ctx, protocols.Tree{Procs: 3}, inputs, Options{Dedup: dedup})
		if en == nil {
			t.Fatalf("%v: nil enumeration", dedup)
		}
		if err == nil || en.Status != StatusInterrupted {
			t.Fatalf("%v: status = %v, err = %v, want interrupted", dedup, en.Status, err)
		}
		d := enumDigest(en)
		if i == 0 {
			baseDigest = d
			if en.Visited < 1 || en.Frontier < 1 {
				t.Fatalf("cancelled enumeration lost its partial snapshot: %d visited, %d frontier", en.Visited, en.Frontier)
			}
			continue
		}
		if d != baseDigest {
			t.Errorf("%v: cancelled partial result diverges:\nwant:\n%s\ngot:\n%s", dedup, baseDigest, d)
		}
	}
}
