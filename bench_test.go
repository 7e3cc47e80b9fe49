// Package semibfs's bench_test regenerates every table, figure and sweep
// of the evaluation as testing.B sub-benchmarks: one loop over the
// experiment registry in internal/experiments (the same entries
// cmd/analyze runs), printing each experiment's rows once and reporting
// its headline numbers as custom benchmark metrics.
//
// The instance scale defaults to a laptop-friendly SCALE 14 so that
// `go test -bench=.` finishes quickly; set SEMIBFS_BENCH_SCALE=18 (and
// optionally SEMIBFS_BENCH_ROOTS) to reproduce the EXPERIMENTS.md numbers.
package semibfs

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"semibfs/internal/experiments"
)

func benchEnv(b *testing.B, name string, def int) int {
	b.Helper()
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		b.Fatalf("bad %s %q: %v", name, s, err)
	}
	return v
}

// BenchmarkExperiments runs every registered experiment, e.g.
// `go test -bench 'Experiments/(headline|fig14)$' -benchtime 1x -run '^$' .`
func BenchmarkExperiments(b *testing.B) {
	opts := experiments.Options{
		Scale:                  benchEnv(b, "SEMIBFS_BENCH_SCALE", 14),
		Seed:                   12345,
		Roots:                  benchEnv(b, "SEMIBFS_BENCH_ROOTS", 4),
		ScaleEquivalentLatency: true,
	}
	for _, e := range experiments.All() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					fmt.Println(res.Text())
					for _, m := range res.Headline {
						b.ReportMetric(m.Value, m.Name)
					}
				}
			}
		})
	}
}
