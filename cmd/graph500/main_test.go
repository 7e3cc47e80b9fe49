package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
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
	{"classic-ssd-stack", "-scale 10 -scenario ssd -cache-bytes 48K -compress -queue-depth 4 -prefetch 8 -replicas 2 -fault-after 50 -fault-replica 1"},
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

// configureArgs resolves an argv the way run does, without running it.
func configureArgs(args string) (*cli, error) {
	c := &cli{report: report{w: io.Discard}}
	fs := c.flagSet(io.Discard)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return nil, err
	}
	return c, c.configure(fs)
}

// TestModeTable drives every mode with command lines it accepts and ones it
// must reject: a flag moved off its default that the selected mode does not
// honour is an error naming the flag and the mode, never a silent no-op.
func TestModeTable(t *testing.T) {
	cases := []struct {
		mode, ok string
		bad      map[string]string // rejected argv -> text the error must carry
	}{
		{"classic", "-scenario pcie -mode topdown -levels -layers -cache-bytes 64K -readahead 2 -dir /tmp/x -edgelist-nvm", map[string]string{
			"-queries 5":                     "-queries does not apply to classic mode",
			"-deadline 1":                    "modes that honour it: serve",
			"-crash-at wal":                  "-crash-at does not apply to classic mode",
			"-pr-tol 0.1":                    "-pr-tol does not apply to classic mode",
			"-fault-rate 0.1":                "-fault-rate requires an NVM scenario",
			"-scenario pcie -readahead 2":    "-readahead requires -cache-bytes",
			"-scenario pcie -fault-after -1": "-fault-after must be >= 0",
			"-scenario pcie -replicas 0":     "-replicas must be >= 1",
		}},
		{"reference", "-mode reference -roots 8 -levels -official", map[string]string{
			"-mode reference -scenario pcie": "-scenario does not apply to reference mode (selected by: -mode reference)",
			"-mode reference -alpha 64":      "-alpha does not apply to reference mode",
		}},
		{"grid", "-scenario pcie -grid 2x2 -roots 8 -alpha 64 -compress -cache-bytes 64K -queue-depth 4 -replicas 2 -fault-after 3 -fault-replica 1", map[string]string{
			"-grid 2x2 -mode topdown":                                "-mode does not apply to grid mode (selected by: -grid RxC)",
			"-grid 2x2 -levels":                                      "-levels does not apply to grid mode",
			"-grid 2x2 -layers":                                      "-layers does not apply to grid mode",
			"-grid 2x2 -scenario pcie -backward-limit 4":             "-backward-limit does not apply to grid mode",
			"-grid 2x2 -scenario pcie -cache-bytes 64K -readahead 2": "-readahead does not apply to grid mode",
			"-grid 2x2 -scenario pcie -cache-bytes 64K -prefetch 8":  "-prefetch does not apply to grid mode",
			"-grid 2x2 -scenario pcie -replicas 2 -scrub-rate 10":    "-scrub-rate does not apply to grid mode",
			"-grid 2x2 -dir /tmp/x":                                  "-dir does not apply to grid mode",
			"-grid 2x2 -edgelist-nvm":                                "-edgelist-nvm does not apply to grid mode",
			"-grid 2x2 -batch 8":                                     "-batch does not apply to grid mode",
			"-grid 2x2 -official":                                    "-official does not apply to grid mode",
			"-grid 2x2 -algo cc":                                     "-algo does not apply to grid mode",
			"-grid 2x2 -mode reference":                              "-mode does not apply to grid mode",
		}},
		{"algo", "-algo pagerank -scenario pcie -pr-tol 1e-4 -pr-iters 20 -levels -layers -backward-limit 4 -mode bottomup", map[string]string{
			"-algo cc -roots 4":           "-roots does not apply to algo mode (selected by: -algo cc/pagerank)",
			"-algo cc -official":          "-official does not apply to algo mode",
			"-algo cc -updates 8":         "-updates does not apply to algo mode",
			"-algo cc -pr-tol 0.1":        "-pr-tol / -pr-iters require -algo pagerank",
			"-algo cc -mode ref":          "-mode reference is its own mode",
			"-algo pagerank -pr-iters -3": "-pr-iters must be >= 0",
		}},
		{"updates", "-scenario ssd -roots 8 -updates 64 -update-rate 8 -crash-at compaction -backward-limit 4 -mode topdown -cache-bytes 64K", map[string]string{
			"-scenario pcie -updates 8 -levels":       "-levels does not apply to updates mode (selected by: -updates N)",
			"-scenario pcie -updates 8 -layers":       "-layers does not apply to updates mode",
			"-scenario pcie -updates 8 -edgelist-nvm": "-edgelist-nvm does not apply to updates mode",
			"-scenario pcie -updates 8 -dir /tmp/x":   "-dir does not apply to updates mode",
			"-scenario pcie -updates 8 -official":     "-official does not apply to updates mode",
			"-scenario pcie -updates 8 -validate 0":   "-validate does not apply to updates mode",
			"-scenario pcie -updates 8 -batch 4":      "-batch does not apply to updates mode",
			"-updates 8":                              "-updates requires an NVM scenario",
		}},
		{"batch", "-batch 8 -queries 20 -validate 0 -scenario pcie -cache-bytes 64K -prefetch 4 -mode topdown -dir /tmp/x", map[string]string{
			"-batch 8 -levels":         "-levels does not apply to batch mode (selected by: -batch B)",
			"-batch 8 -layers":         "-layers does not apply to batch mode",
			"-batch 8 -edgelist-nvm":   "-edgelist-nvm does not apply to batch mode",
			"-batch 8 -deadline 0.1":   "-deadline does not apply to batch mode",
			"-batch 8 -mode reference": "-mode reference is its own mode; it does not combine with batch mode",
		}},
		{"serve", "-batch 8 -queries 40 -qps 100 -deadline 0.1 -queue-cap 4 -shed-policy reject-oldest", map[string]string{
			"-batch 8 -qps 100 -levels":        "-levels does not apply to serve mode (selected by: -batch B -qps Q)",
			"-batch 8 -qps 100 -queue-cap -1":  "-queue-cap must be >= 0",
			"-batch 8 -qps 100 -official":      "-official does not apply to serve mode",
			"-batch 8 -qps 100 -shed-policy x": "unknown shed policy",
		}},
	}
	for _, tc := range cases {
		c, err := configureArgs(tc.ok)
		if err != nil {
			t.Errorf("%s mode rejects %q: %v", tc.mode, tc.ok, err)
		} else if c.m.name != tc.mode {
			t.Errorf("%q selected %s mode, want %s", tc.ok, c.m.name, tc.mode)
		}
		for args, want := range tc.bad {
			if _, err := configureArgs(args); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s mode, %q: error %v, want one carrying %q", tc.mode, args, err, want)
			}
		}
	}

	// A flag spelled out at its default asks for nothing the mode lacks.
	if _, err := configureArgs("-grid 2x2 -mode hybrid -levels=false -batch 0 -crash-at none"); err != nil {
		t.Errorf("defaults spelled out were rejected: %v", err)
	}
	// The whole way through run: exit 1, nothing on stdout, the flag and
	// the mode on stderr (this argv ran hybrid and printed "mode: hybrid").
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-scale 8 -grid 2x2 -mode topdown -levels -backward-limit 4"), &stdout, &stderr); code != 1 ||
		stdout.Len() != 0 || !strings.Contains(stderr.String(), "graph500: -backward-limit does not apply to grid mode") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// docCommand matches a documented invocation up to its comment; a trailing
// backslash continues it on the next line.
var docCommand = regexp.MustCompile(`go run \./cmd/graph500((?:[^#\x60\n\\]|\\\n)*)`)

// TestDocCommands parses every `go run ./cmd/graph500 …` line of the docs
// under the mode table (no run), so the examples cannot rot.
func TestDocCommands(t *testing.T) {
	found := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docCommand.FindAllStringSubmatch(string(text), -1) {
			args := strings.Join(strings.Fields(strings.ReplaceAll(m[1], "\\\n", " ")), " ")
			found++
			if c, err := configureArgs(args); err != nil {
				t.Errorf("%s: graph500 %s: %v", doc, args, err)
			} else if _, _, err := parseGrid(c.grid); c.grid != "" && err != nil {
				t.Errorf("%s: graph500 %s: %v", doc, args, err)
			}
		}
	}
	if found < 10 {
		t.Fatalf("only %d documented command lines found; the docs or the pattern moved", found)
	}
}

// TestReadmeModesTable keeps README.md's modes table in step with the mode
// table: one row per mode, its selecting flag, and exactly the flags it
// honours (written as the flag groups of the legend plus single flags).
func TestReadmeModesTable(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := func(first string) []string {
		for _, line := range strings.Split(string(text), "\n") {
			if cells := strings.Split(line, "|"); len(cells) > 2 && strings.TrimSpace(cells[1]) == first {
				for i := range cells {
					cells[i] = strings.TrimSpace(cells[i])
				}
				return cells[1 : len(cells)-1]
			}
		}
		t.Fatalf("README.md has no table row starting with %s", first)
		return nil
	}
	flagsOf := func(cell string, groups map[string]string) string {
		var names []string
		for _, tok := range strings.FieldsFunc(cell, func(r rune) bool { return r == ',' || r == ' ' }) {
			if g, ok := groups[tok]; ok {
				names = append(names, strings.Fields(g)...)
			} else {
				names = append(names, strings.TrimPrefix(strings.Trim(tok, "`"), "-"))
			}
		}
		sort.Strings(names)
		return strings.Join(names, " ")
	}
	sorted := func(flags string) string {
		names := strings.Fields(flags)
		sort.Strings(names)
		return strings.Join(names, " ")
	}
	groups := map[string]string{"graph": graphFlags, "roots": rootFlags, "search": searchFlags, "device": deviceFlags, "node": nodeFlags}
	for name, flags := range groups {
		if cells := row(name); flagsOf(cells[1], nil) != sorted(flags) {
			t.Errorf("README legend for group %s lists %q, the mode table has %q", name, cells[1], flags)
		}
	}
	for _, m := range modes {
		cells := row("`" + m.name + "`")
		if got := strings.Trim(cells[1], "`"); got != m.selector {
			t.Errorf("README says %s mode is selected by %q, the mode table says %q", m.name, got, m.selector)
		}
		if got := flagsOf(cells[len(cells)-1], groups); got != sorted(m.honours) {
			t.Errorf("README flags for %s mode:\n  %s\nthe mode table honours:\n  %s", m.name, got, sorted(m.honours))
		}
	}
}
