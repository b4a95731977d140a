// Command cclattice derives and prints the paper's closing diagram: the
// relation among the six consensus problems {WT, ST, HT} × {IC, TC} under
// the unanimity decision rule, together with the base facts. With -verify
// it first runs the machine-checked witnesses (scenario replays, scheme
// facts, and — with -exhaustive — the full model-checking passes).
//
// Usage:
//
//	cclattice
//	cclattice -verify
//	cclattice -verify -exhaustive
package main

import (
	"flag"
	"fmt"
	"os"

	consensus "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cclattice:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		verify     = flag.Bool("verify", false, "run the machine-checked witnesses")
		exhaustive = flag.Bool("exhaustive", false, "include the exhaustive model-checking witnesses (slower)")
	)
	flag.Parse()

	l := consensus.BuildLattice()
	if *verify {
		l.Evidence = consensus.Witnesses(consensus.WitnessOptions{Exhaustive: *exhaustive})
	}
	fmt.Print(l.Render())
	if *verify {
		for _, ev := range l.Evidence {
			if !ev.OK {
				return fmt.Errorf("witness failed: %s", ev.Name)
			}
		}
		fmt.Println("\nall witnesses verified")
	}
	return nil
}
