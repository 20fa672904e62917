// Command experiments regenerates every figure and theorem of the paper as
// an executable experiment (see "Paper experiments" in the README for the
// index).
//
// Usage:
//
//	experiments [-seed N] [-quick] [-workers K] [-csv DIR] [-json] [IDs...]
//
// With no IDs, all experiments run in order. The full reproduction runs
// multi-core: experiments fan out across a bounded worker pool and their
// internal sweeps fan out again (every cell keeps its own seed, so results
// are identical at any worker count). Exit status 1 if any claim fails to
// reproduce.
//
// With -json, per-experiment results stream to stdout as JSON lines in
// order of completion — one self-identifying object per experiment, so the
// harness composes with external sweep orchestrators that multiplex many
// invocations. The line schema is
//
//	{"id","claim","pass","seed","quick","notes":[...],
//	 "tables":[{"title","caption","header":[...],"rows":[[...]]}]}
//
// with table cells pre-rendered as strings (the same values the ASCII and
// CSV renderings show).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"popsim/internal/experiments"
	"popsim/internal/par"
	"popsim/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// toLine maps a harness result onto the shared JSON-lines schema
// (report.Line) — the same shape popsimd's job stream emits, so one consumer
// parses both.
func toLine(res *experiments.Result, claim string, cfg experiments.Config) report.Line {
	return report.Line{
		ID:     res.ID,
		Claim:  claim,
		Pass:   res.Pass,
		Seed:   cfg.Seed,
		Quick:  cfg.Quick,
		Notes:  res.Notes,
		Tables: report.Tables(res.Tables),
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "random seed for all runs")
	quick := fs.Bool("quick", false, "reduced sweeps (smoke mode)")
	workers := fs.Int("workers", 0, "per-level worker bound (0 = GOMAXPROCS): experiments fan out on one pool of this size, and each experiment's sweep on another, so up to workers² cells run concurrently")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	jsonOut := fs.Bool("json", false, "stream per-experiment results as JSON lines (in order of completion) instead of ASCII tables")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0, got %d", *workers)
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-6s %s\n", e.ID, e.Claim)
		}
		return nil
	}

	ids := fs.Args()
	if len(ids) == 0 {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers}

	// Fan the experiments themselves across the pool (their sweeps fan out
	// again internally); outputs are collected per slot and printed in the
	// requested order, so the report reads identically at any parallelism.
	// (-json instead streams each result the moment it completes — the
	// lines are self-identifying, so completion order costs consumers
	// nothing and the stream stays live during long sweeps.)
	// Timing-sensitive experiments (PERF measures wall-clock ns/step) are
	// held back and run alone afterwards, so their tables are never
	// contaminated by CPU contention from concurrent experiments.
	type outcome struct {
		res *experiments.Result
		out string
	}
	outcomes := make([]outcome, len(ids))
	var pooled, timed []int
	for i, id := range ids {
		if strings.EqualFold(id, "PERF") {
			timed = append(timed, i)
		} else {
			pooled = append(pooled, i)
		}
	}
	enc := report.NewEncoder(stdout)
	runOne := func(i int) error {
		id := strings.ToUpper(ids[i])
		res, out, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		outcomes[i] = outcome{res: res, out: out}
		if *jsonOut {
			exp, err := experiments.ByID(id)
			if err != nil {
				return err
			}
			return enc.Encode(toLine(res, exp.Claim, cfg))
		}
		return nil
	}
	err := par.ForEach(context.Background(), len(pooled), *workers, func(i int) error {
		return runOne(pooled[i])
	})
	if err != nil {
		return err
	}
	for _, i := range timed {
		if err := runOne(i); err != nil {
			return err
		}
	}
	failed := 0
	for _, oc := range outcomes {
		if !*jsonOut {
			fmt.Fprint(stdout, oc.out)
		}
		if !oc.res.Pass {
			failed++
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			for i, t := range oc.res.Tables {
				name := fmt.Sprintf("%s_%d.csv", strings.ToLower(oc.res.ID), i+1)
				if err := os.WriteFile(filepath.Join(*csvDir, name), []byte(t.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) did not reproduce", failed)
	}
	return nil
}
