package graph500

import (
	"fmt"
	"io"
	"strings"

	"semibfs/internal/stats"
)

// WriteReport renders res in the official Graph500 output format: the
// key-colon-value lines the reference implementation prints and the
// submission tooling parses (construction_time, then the time and TEPS
// statistics over the NBFS iterations, with harmonic statistics for
// TEPS as the spec prescribes).
func WriteReport(w io.Writer, res *Result) error {
	times := make([]float64, 0, len(res.PerRoot))
	for _, rr := range res.PerRoot {
		times = append(times, rr.Time.Seconds())
	}
	if len(times) == 0 {
		return fmt.Errorf("graph500: empty result")
	}
	ts := stats.Summarize(times)
	te := res.TEPS

	var b strings.Builder
	line := func(key, format string, v any) { fmt.Fprintf(&b, "%s: "+format+"\n", key, v) }
	line("SCALE", "%d", res.Params.Scale)
	line("edgefactor", "%d", res.Params.EdgeFactor)
	line("NBFS", "%d", len(res.PerRoot))
	line("construction_time", "%.6g", res.ConstructionTime.Seconds())
	line("min_time", "%.6g", ts.Min)
	line("firstquartile_time", "%.6g", ts.FirstQuartile)
	line("median_time", "%.6g", ts.Median)
	line("thirdquartile_time", "%.6g", ts.ThirdQuartile)
	line("max_time", "%.6g", ts.Max)
	line("mean_time", "%.6g", ts.Mean)
	line("stddev_time", "%.6g", ts.StdDev)
	line("min_TEPS", "%.6g", te.Min)
	line("firstquartile_TEPS", "%.6g", te.FirstQuartile)
	line("median_TEPS", "%.6g", te.Median)
	line("thirdquartile_TEPS", "%.6g", te.ThirdQuartile)
	line("max_TEPS", "%.6g", te.Max)
	line("harmonic_mean_TEPS", "%.6g", te.HarmonicMean)
	line("harmonic_stddev_TEPS", "%.6g", te.HarmonicStdDev)
	_, err := io.WriteString(w, b.String())
	return err
}
