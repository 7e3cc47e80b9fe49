package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semibfs/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/all-scale10.*.golden from this build's output")

func analyze(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(append(args, "-scale", "10", "-roots", "2"), &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestAllMeansEveryEntry pins the front-door bug the registry removed:
// "all" used to skip half the experiments and -json was silently ignored
// by most of them. Every registered name must now come out under its key.
func TestAllMeansEveryEntry(t *testing.T) {
	names := experiments.Names()
	code, out, errOut := analyze(t, "-exp", "all", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var byName map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &byName); err != nil {
		t.Fatalf("output is not one object: %v", err)
	}
	if len(byName) != len(names) {
		t.Errorf("%d keys, want %d", len(byName), len(names))
	}
	for _, name := range names {
		if raw := byName[name]; len(raw) == 0 || raw[0] != '[' {
			t.Errorf("key %q is not an array of rows: %.40s", name, raw)
		}
	}
}

// goldens are the three renderings of analyze -exp all -scale 10 -roots 2,
// each committed as testdata/all-scale10.<ext>.golden, with how to cut each
// into its experiments' blocks.
var goldens = []struct {
	ext   string
	flags []string
	split func(string) map[string]string
}{
	{"json", []string{"-json"}, splitJSON},
	{"csv", []string{"-csv"}, splitCSV},
	{"txt", nil, splitText},
}

// splitJSON cuts the one indented object into its keys' values.
func splitJSON(out string) map[string]string {
	var byName map[string]json.RawMessage
	json.Unmarshal([]byte(out), &byName) // a malformed output has no blocks
	blocks := make(map[string]string, len(byName))
	for name, raw := range byName {
		blocks[name] = string(raw)
	}
	return blocks
}

// splitCSV cuts the output at the "# name" line that opens each block.
func splitCSV(out string) map[string]string {
	blocks := map[string]string{}
	for _, block := range strings.Split(strings.TrimPrefix(out, "# "), "\n# ") {
		name, body, _ := strings.Cut(block, "\n")
		blocks[name] = body
	}
	return blocks
}

// splitText cuts the output at the blank line after each block; the blocks
// come in registry order.
func splitText(out string) map[string]string {
	blocks := map[string]string{}
	for i, block := range strings.Split(out, "\n\n") {
		if i < len(experiments.Names()) {
			blocks[experiments.Names()[i]] = block
		}
	}
	return blocks
}

// TestAllGolden pins every rendering of every registered experiment at
// SCALE 10 with 2 roots: in JSON every virtual number (TEPS, times, and the
// cache, retry and failover counters the experiments read from the runs'
// per-layer storage records), in CSV every column header, and in text every
// title, heading, cell format and headline metric. A refactor that must not
// move a number or a rendering leaves all three byte-identical, and a
// mismatch names every experiment whose block differs. Regenerate them
// (go test ./cmd/analyze -run AllGolden -update) only when a change is meant.
func TestAllGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.ext, func(t *testing.T) {
			code, out, errOut := analyze(t, append([]string{"-exp", "all"}, g.flags...)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			path := filepath.Join("testdata", "all-scale10."+g.ext+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out == string(want) {
				return
			}
			wantBlocks, gotBlocks := g.split(string(want)), g.split(out)
			var differ []string
			for _, name := range experiments.Names() {
				if wantBlocks[name] != gotBlocks[name] {
					differ = append(differ, name)
				}
			}
			t.Errorf("output differs from %s; differing experiments: %v (regenerate with -update only if the change is meant)",
				path, differ)
		})
	}
}

// TestListInCSVAndText: a list renders every name in the selected mode,
// CSV blocks introduced by "# name" (the registry test renders every
// entry in every format; this pins the mode switch and the separators).
func TestListInCSVAndText(t *testing.T) {
	names := []string{"table1", "fig3", "trace"}
	code, out, errOut := analyze(t, "-exp", strings.Join(names, ","), "-csv")
	if code != 0 {
		t.Fatalf("-csv exit %d: %s", code, errOut)
	}
	blocks := strings.Split(strings.TrimPrefix(out, "# "), "\n# ")
	if len(blocks) != len(names) {
		t.Fatalf("-csv has %d blocks, want %d:\n%s", len(blocks), len(names), out)
	}
	for i, block := range blocks {
		name, body, _ := strings.Cut(block, "\n")
		if name != names[i] {
			t.Errorf("-csv block %d is %q, want %q", i, name, names[i])
		}
		if _, err := csv.NewReader(strings.NewReader(body)).ReadAll(); err != nil {
			t.Errorf("-csv block %q: %v", name, err)
		}
	}

	code, out, errOut = analyze(t, "-exp", strings.Join(names, ","))
	if code != 0 || strings.Count(out, "\n\n") != len(names) {
		t.Fatalf("text exit %d: %s\n%s", code, errOut, out)
	}
	for _, title := range []string{"Table I:", "Figure 3:", "Execution trace:"} {
		if !strings.Contains(out, title) {
			t.Errorf("text output lacks %q", title)
		}
	}
}

func TestSingleExperimentJSONAndCSV(t *testing.T) {
	code, out, _ := analyze(t, "-exp", "headline", "-json")
	var byName map[string][]experiments.HeadlineRow
	if err := json.Unmarshal([]byte(out), &byName); code != 0 || err != nil || len(byName["headline"]) != 3 {
		t.Fatalf("exit %d, err %v, output:\n%s", code, err, out)
	}
	code, out, _ = analyze(t, "-exp", "headline", "-csv")
	if code != 0 || !strings.HasPrefix(out, "scenario,alpha,beta,teps,") {
		t.Fatalf("exit %d, CSV:\n%s", code, out)
	}
}

// TestFailedEntryDoesNotStopTheRest: under a permanent fault partial's
// forward index dies unrescued, while headline degrades and finishes. The
// run must name partial on stderr, still render headline, and exit 1.
func TestFailedEntryDoesNotStopTheRest(t *testing.T) {
	args := []string{"-exp", "partial,headline", "-fault-after", "1"}
	code, out, errOut := analyze(t, args...)
	if code != 1 || !strings.Contains(errOut, "analyze: partial:") || strings.Contains(errOut, "analyze: headline:") {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if !strings.HasPrefix(out, "Headline:") || strings.Count(out, "\n\n") != 1 {
		t.Fatalf("stdout is not headline's block alone:\n%s", out)
	}

	code, out, errOut = analyze(t, append(args, "-json")...)
	var byName map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &byName); code != 1 || err != nil {
		t.Fatalf("-json: exit %d, err %v, stderr:\n%s", code, err, errOut)
	}
	if _, ok := byName["headline"]; !ok || len(byName) != 1 {
		t.Fatalf("-json output is not headline alone:\n%s", out)
	}
}

func TestBadInvocations(t *testing.T) {
	code, out, errOut := analyze(t, "-exp", "headline,nosuch")
	if code == 0 || out != "" {
		t.Fatalf("unknown experiment: exit %d, stdout %q", code, out)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(errOut, name) {
			t.Errorf("error does not list %q: %s", name, errOut)
		}
	}
	for _, args := range [][]string{
		{"-exp", "table1", "-json", "-csv"},
		{"-exp", "table1", "-fault-rate", "2"},
		{"-exp", "table1", "-fault-after", "-1"},
	} {
		if code, out, _ := analyze(t, args...); code == 0 || out != "" {
			t.Errorf("%v: exit %d, stdout %q", args, code, out)
		}
	}
}
