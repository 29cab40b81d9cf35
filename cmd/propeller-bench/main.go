// Command propeller-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	propeller-bench -list
//	propeller-bench -exp tab3
//	propeller-bench -exp all -scale 2.0
//
// Scale multiplies the harness's default dataset sizes; the output at a
// small fixed scale is committed under
// internal/experiments/testdata/golden/ (ARCHITECTURE.md, "Paper tables").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"propeller/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "propeller-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("propeller-bench", flag.ContinueOnError)
	var (
		expID = fs.String("exp", "all", "experiment id (or 'all')")
		scale = fs.Float64("scale", 1.0, "dataset scale multiplier")
		seed  = fs.Int64("seed", 42, "random seed")
		list  = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-14s %s\n", e.ID, e.Title)
		}
		return nil
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed}
	var toRun []experiments.Experiment
	if *expID == "all" {
		toRun = experiments.All()
	} else {
		e, err := experiments.ByID(*expID)
		if err != nil {
			return err
		}
		toRun = []experiments.Experiment{e}
	}

	for _, e := range toRun {
		fmt.Fprintf(out, "=== %s: %s ===\n", e.ID, e.Title)
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "%s\n", res.Render())
	}
	return nil
}
