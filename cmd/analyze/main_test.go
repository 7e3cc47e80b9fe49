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

var update = flag.Bool("update", false, "rewrite testdata/all-scale10.json.golden from this build's output")

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

// TestAllGolden pins every virtual number the registry reports at SCALE 10
// with 2 roots: TEPS, times, and the cache, retry and failover counters the
// experiments read from the runs' per-layer storage records. A refactor
// that must not move a virtual number leaves the golden byte-identical;
// regenerate it (go test ./cmd/analyze -run AllGolden -update) only when a
// number is meant to move.
func TestAllGolden(t *testing.T) {
	code, out, errOut := analyze(t, "-exp", "all", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	path := filepath.Join("testdata", "all-scale10.json.golden")
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
	if out != string(want) {
		w, g := string(want), out
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Errorf("output differs from %s at byte %d (regenerate with -update only if the change is meant):\n  want …%.160s\n  got  …%.160s",
			path, i, w[lo:], g[lo:])
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
