// Command bench is the repository's benchmark: seven named workloads, each
// reporting the end-to-end metrics (-trace 0) or the per-layer metrics and
// a span trace (-trace 1) that BENCHMARK.json declares. See README.md.
//
//	go run ./bench -workload g500-pcie -seed 12345 -seconds 6 -trace 0
//	go run ./bench -workload all -out bench/out/result.json
//	go run ./bench -selfcheck
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 6

// outDir receives traces and result files; .gitignore names it.
const outDir = "bench/out"

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", defaultSeed, "seed of every generated input")
		seconds   = flag.Float64("seconds", defaultSeconds, "seconds of measurement per run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics and a span trace")
		out       = flag.String("out", "", "write the full result as JSON to this file")
		selfcheck = flag.Bool("selfcheck", false, "run all workloads twice and compare the two sets with the benchmark's own bounds")
		compare   = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		calibrate = flag.Bool("calibrate", false, "print the measured values behind the frozen constants (cache budgets, arrival rates, deadline)")
	)
	flag.Uint64Var(&graphSeedOverride, "graph-seed", 0, "generate every workload's graph from this seed instead of the frozen one (0 = frozen)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out, *selfcheck, *compare, *calibrate, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, out string, selfcheck, compare, calibrate bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(args[0], args[1])
	case selfcheck:
		return selfCheck(seed, seconds)
	case calibrate:
		return printCalibration()
	case name == "all":
		set, err := runAll(seed, seconds)
		if err != nil {
			return err
		}
		if out != "" {
			if err := writeJSON(out, set); err != nil {
				return err
			}
		}
		if n := set.failed(); n > 0 {
			return fmt.Errorf("%d ops failed", n)
		}
		return nil
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	res, err := runOne(w, seed, seconds, trace)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	printResult(os.Stdout, w, res, trace)
	// The driver's contract: the last line of standard output is one JSON
	// object with exactly these keys.
	metrics := res.EndToEnd
	if trace != 0 {
		metrics = res.PerLayer
	}
	line := map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": contractMetrics(metrics),
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOne runs one workload in this process.
func runOne(w *workload, seed uint64, seconds float64, trace int) (*runResult, error) {
	if trace == 0 {
		return measure(w, seed, seconds, false)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return perLayer(w, seed, false, filepath.Join(outDir, w.name+".trace.json"))
}

func contractMetrics(m map[string]sample) map[string]any {
	out := make(map[string]any, len(m))
	for k, s := range m {
		out[k] = map[string]any{"value": s.Value, "unit": s.Unit}
	}
	return out
}

func printResult(w *os.File, wl *workload, res *runResult, trace int) {
	fmt.Fprintf(w, "workload %s  seed %d  passes %d  ops %d  failed %d  wall %.1fs  sim-digest %s\n",
		res.Workload, res.Seed, res.Passes, res.Attempted, res.Failed, res.WallS, res.Digest)
	fmt.Fprintf(w, "op = %s\n", wl.opDesc)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	defs, vals := endToEndMetrics, res.EndToEnd
	if trace != 0 {
		defs, vals = perLayerMetrics, res.PerLayer
	}
	fmt.Fprintf(w, "%-34s %18s %-8s %6s\n", "metric", "value", "unit", "n")
	for _, d := range defs {
		s := vals[d.Name]
		n := ""
		if s.N > 0 {
			n = fmt.Sprint(s.N)
		}
		fmt.Fprintf(w, "%-34s %18.6g %-8s %6s\n", d.Name, s.Value, s.Unit, n)
	}
	if len(res.SelfTimes) > 0 {
		writeSelfTimes(w, res.Workload, res.SelfTimes)
	}
}

// resultSet is a result file: every workload's end-to-end and per-layer
// metrics from one commit on one host.
type resultSet struct {
	Header  map[string]any `json:"header"`
	Results []*runResult   `json:"results"`
}

func (s *resultSet) failed() int {
	n := 0
	for _, r := range s.Results {
		n += r.Failed
	}
	return n
}

func (s *resultSet) find(workload string) *runResult {
	for _, r := range s.Results {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

func hostHeader(seed uint64, seconds float64) map[string]any {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"seed": seed, "graph_seed_override": graphSeedOverride, "held_out_seed": heldOutSeed, "seconds": seconds,
		"commit": commit, "date": time.Now().UTC().Format(time.RFC3339),
		"real_workers": 1,
	}
}

// runAll runs every workload, untraced then traced, each in a fresh child
// process so that setup_s and host_peak_rss_mb do not depend on workload
// order.
func runAll(seed uint64, seconds float64) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	set := &resultSet{Header: hostHeader(seed, seconds)}
	for _, w := range workloads {
		var merged *runResult
		for trace := 0; trace <= 1; trace++ {
			tmp := filepath.Join(outDir, fmt.Sprintf(".%s.%d.json", w.name, trace))
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-graph-seed", fmt.Sprint(graphSeedOverride),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res runResult
			if err := readJSON(tmp, &res); err != nil {
				if runErr != nil {
					return nil, fmt.Errorf("%s -trace %d: %w", w.name, trace, runErr)
				}
				return nil, err
			}
			os.Remove(tmp)
			if trace == 0 {
				merged = &res
				continue
			}
			if res.Digest != merged.Digest {
				res.Failed += res.Attempted - res.Failed
				res.Notes = append(res.Notes, fmt.Sprintf(
					"FAIL: traced process digest %s != untraced process digest %s", res.Digest, merged.Digest))
			}
			merged.PerLayer, merged.SelfTimes = res.PerLayer, res.SelfTimes
			if err := writeSelfTimeFile(w.name, res.SelfTimes); err != nil {
				return nil, err
			}
			merged.Attempted += res.Attempted
			merged.Failed += res.Failed
			merged.Notes = append(merged.Notes, res.Notes...)
			merged.WallS += res.WallS
		}
		set.Results = append(set.Results, merged)
	}
	return set, nil
}

// writeSelfTimeFile keeps a workload's per-layer self-time table beside the
// result file (bench/baseline/ holds a copy from the baseline commit).
func writeSelfTimeFile(workload string, rows []selfTimeRow) error {
	f, err := os.Create(filepath.Join(outDir, workload+".selftime.txt"))
	if err != nil {
		return err
	}
	writeSelfTimes(f, workload, rows)
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
