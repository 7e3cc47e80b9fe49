package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// goldenCases pins one report per mode and per printer branch at SCALE 10.
// Everything in a report except the wall-time line is virtual, so at
// GOMAXPROCS=1 it is byte-identical run to run (ROADMAP item 1 covers why
// not above it).
var goldenCases = []struct{ name, args string }{
	{"classic-dram", "-scale 10"},
	{"classic-pcie-faults", "-scale 10 -scenario pcie -levels -layers -fault-rate 0.01 -fault-seed 7"},
	{"classic-ssd-stack", "-scale 10 -scenario ssd -cache-bytes 64K -compress -queue-depth 4 -prefetch 8 -replicas 2 -fault-after 50 -fault-replica 1"},
	{"official", "-scale 10 -official"},
	{"reference", "-scale 10 -mode reference"},
	{"grid", "-scale 10 -scenario pcie -grid 2x2 -compress -cache-bytes 64K"},
	{"batch", "-scale 10 -batch 8 -queries 20 -alpha 64"},
	{"serve", "-scale 10 -batch 8 -queries 40 -qps 20000 -queue-cap 8 -deadline 0.01"},
	{"algo-cc", "-scale 10 -algo cc -levels"},
	{"algo-pagerank", "-scale 10 -scenario pcie -algo pagerank -backward-limit 4 -layers"},
	{"updates-none", "-scale 10 -scenario pcie -updates 64 -update-rate 8 -backward-limit 4"},
	{"updates-wal", "-scale 10 -scenario pcie -updates 64 -update-rate 8 -backward-limit 4 -crash-at wal"},
	{"updates-compaction", "-scale 10 -scenario ssd -updates 64 -update-rate 8 -backward-limit 4 -crash-at compaction"},
	{"help", "-h"},
}

// runCLI drives run and returns what a golden file holds: the command
// line, stdout without its wall-time line, stderr if any, the exit code.
func runCLI(args string) string {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(args), &stdout, &stderr)
	var b strings.Builder
	fmt.Fprintf(&b, "$ graph500 %s\n", args)
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "wall time:") {
			b.WriteString(line)
		}
	}
	if stderr.Len() > 0 {
		fmt.Fprintf(&b, "--- stderr\n%s", stderr.String())
	}
	fmt.Fprintf(&b, "--- exit %d\n", code)
	return b.String()
}

func TestGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := runCLI(tc.args)
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("report differs from %s (regenerate with -update only if the change is meant):\n%s",
					path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff shows the first line where want and got part ways.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "no difference"
}
