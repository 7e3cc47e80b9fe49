// Command analyze regenerates the paper's tables and figures and the
// repository's extension sweeps. It is a loop over the experiment registry
// in internal/experiments: every registered name renders as an aligned
// text table (default), CSV (-csv) or JSON (-json).
//
// Examples:
//
//	analyze -exp all -scale 18
//	analyze -exp fig7 -scale 18 -roots 8
//	analyze -exp headline,cache -scale 16 -json
//	analyze -exp fig8 -scale 16 -fault-rate 0.01 -csv
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"semibfs/internal/experiments"
	"semibfs/internal/faults"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges injected, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments.Names(), "|")+"|all")
		scale  = fs.Int("scale", 18, "large instance scale (fig9 and update run at scale-1)")
		ef     = fs.Int("edgefactor", 16, "edges per vertex")
		seed   = fs.Uint64("seed", 12345, "generator seed")
		roots  = fs.Int("roots", 8, "BFS iterations per configuration")
		dir    = fs.String("dir", "", "directory for NVM store files")
		noEq   = fs.Bool("no-latency-equivalence", false, "disable the SCALE-27 latency equivalence in performance experiments")
		asJSON = fs.Bool("json", false, "emit one JSON object keyed by experiment name instead of text tables")
		asCSV  = fs.Bool("csv", false, "emit CSV (raw numbers, one header line per experiment) instead of text tables")
		// The same fault-injection flags cmd/graph500 takes, so any
		// experiment can be re-run on a faulty device.
		faultRate  = fs.Float64("fault-rate", 0, "inject transient read errors at this rate on every NVM store")
		faultAfter = fs.Int64("fault-after", 0, "kill each NVM store permanently after this many reads (0 = never)")
		faultSeed  = fs.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		corrupt    = fs.Float64("fault-corrupt", 0, "bit-flip corruption rate on NVM reads (enables CRC32 checksums)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: analyze [flags]\n\nexperiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(stderr, "  %-10s %s\n", e.Name, e.Doc)
		}
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	entries, err := experiments.Select(*exp)
	switch {
	case err != nil:
	case *asJSON && *asCSV:
		err = fmt.Errorf("-json and -csv are mutually exclusive")
	case *faultRate < 0 || *faultRate > 1 || *corrupt < 0 || *corrupt > 1:
		err = fmt.Errorf("-fault-rate / -fault-corrupt must be in [0, 1]")
	case *faultAfter < 0:
		err = fmt.Errorf("-fault-after must be >= 0")
	}
	if err != nil {
		fmt.Fprintln(stderr, "analyze:", err)
		return 2
	}

	opts := experiments.Options{
		Scale:                  *scale,
		EdgeFactor:             *ef,
		Seed:                   *seed,
		Roots:                  *roots,
		Dir:                    *dir,
		ScaleEquivalentLatency: !*noEq,
		Faults: faults.Config{
			Seed:          *faultSeed,
			TransientRate: *faultRate,
			DieAfterReads: *faultAfter,
			CorruptRate:   *corrupt,
		},
	}

	// A failed entry is named on stderr and left out of the output; the
	// others still run and render, and the exit status reports the failure.
	byName := make(map[string]json.RawMessage, len(entries))
	var failed []string
	for _, e := range entries {
		res, err := e.Run(opts)
		switch {
		case err != nil:
		case *asJSON:
			byName[e.Name], err = json.Marshal(res.Rows)
		case *asCSV:
			if len(entries) > 1 {
				fmt.Fprintf(stdout, "# %s\n", e.Name)
			}
			fmt.Fprint(stdout, res.Table.CSV())
		default:
			fmt.Fprintln(stdout, res.Text())
		}
		if err != nil {
			fmt.Fprintf(stderr, "analyze: %s: %v\n", e.Name, err)
			failed = append(failed, e.Name)
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(byName, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "analyze:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "analyze: %d of %d experiments failed: %s\n", len(failed), len(entries), strings.Join(failed, ","))
		return 1
	}
	return 0
}
