package main

import (
	"fmt"
	"io"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/graph500"
	"semibfs/internal/nvm"
	"semibfs/internal/stats"
)

// report is the one writer every mode prints through: "key:  value" lines
// in the Graph500 output style plus the blocks several modes share.
type report struct {
	w     io.Writer
	start time.Time
}

// kv prints one "key:" line with the value column at 22.
func (r report) kv(key, format string, args ...any) {
	fmt.Fprintf(r.w, "%-22s"+format+"\n", append([]any{key + ":"}, args...)...)
}

func (r report) printf(format string, args ...any) { fmt.Fprintf(r.w, format, args...) }

// header prints the instance and configuration lines; nbfs < 0 omits the
// NBFS line and extra (key, value pairs) goes between scenario and mode.
func (r report) header(p graph500.Params, nbfs int, extra ...string) {
	r.kv("SCALE", "%d", p.Scale)
	r.kv("edgefactor", "%d", p.EdgeFactor)
	if nbfs >= 0 {
		r.kv("NBFS", "%d", nbfs)
	}
	r.kv("scenario", "%s", p.Scenario.Name)
	for i := 0; i+1 < len(extra); i += 2 {
		r.kv(extra[i], "%s", extra[i+1])
	}
	r.kv("mode", "%s  alpha=%g beta=%g", p.BFS.Mode, p.BFS.Alpha, p.BFS.Beta)
}

func (r report) teps(key string, v float64) { r.kv(key, "%s", stats.FormatTEPS(v)) }

func (r report) bytes(key string, v int64) { r.kv(key, "%s", stats.FormatBytes(v)) }

func (r report) cacheHits(c nvm.CacheStats, tail string) {
	r.kv("cache hits", "%d of %d lookups (%.1f%%)%s", c.Hits, c.Hits+c.Misses, 100*c.HitRate(), tail)
}

// readErrors prints the retry layer's line; detail extends the "(N retried"
// parenthesis.
func (r report) readErrors(errors, retries int64, detail string) {
	r.kv("NVM read errors", "%d (%d retried%s)", errors, retries, detail)
}

// levels prints a per-level table.
func (r report) levels(title string, levels []bfs.LevelStats) {
	if len(levels) == 0 {
		return
	}
	r.printf("\n%s:\n", title)
	r.printf("level  direction   frontier  avg-degree  examined(DRAM/NVM)   vtime\n")
	for _, l := range levels {
		r.printf("%5d  %-10s %9d  %10.1f  %9d/%-9d  %v\n",
			l.Level, l.Direction, l.Frontier, l.AvgDegree(),
			l.ExaminedDRAM, l.ExaminedNVM, l.Time.ToTime())
	}
}

// layers renders the generic per-layer storage-stack counters, outermost
// layer first. Gauges (capacities, block sizes, limits) are marked to
// distinguish them from accumulated activity.
func (r report) layers(s nvm.StackStats) {
	r.printf("\nstorage stack layers (outermost first):\n")
	if len(s) == 0 {
		r.printf("  (no NVM storage stacks; graphs are DRAM-resident)\n")
		return
	}
	for _, l := range s {
		r.printf("  %s:\n", l.Kind)
		for _, c := range l.Counters {
			mark := ""
			if c.Gauge {
				mark = "  (gauge)"
			}
			r.printf("    %-20s %12d%s\n", c.Name, c.Value, mark)
		}
	}
}

// wall prints the real time since the command started — the only line of
// any report that is not virtual.
func (r report) wall() { r.kv("wall time", "%v", time.Since(r.start).Round(time.Millisecond)) }
