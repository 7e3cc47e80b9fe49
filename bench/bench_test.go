package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON renders spec.go in BENCHMARK.json's schema.
func benchmarkJSON(t *testing.T) []byte {
	t.Helper()
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBenchmarkJSON keeps BENCHMARK.json and spec.go in step. Set
// BENCH_WRITE_JSON=1 to regenerate the file after editing spec.go.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON(t)
	const path = "../BENCHMARK.json"
	if os.Getenv("BENCH_WRITE_JSON") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of step with bench/spec.go; rerun with BENCH_WRITE_JSON=1")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}

func checkNames(t *testing.T, what string, defs []metricDef, got map[string]sample) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(defs))
	}
	for _, d := range defs {
		s, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not reported", what, d.Name)
		} else if s.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, s.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload at SCALE 10, untraced and traced: each
// emits exactly the declared metric names with their units, no op fails,
// and the virtual-clock digest (every virtual time, count and tree hash)
// repeats across passes and between the two in-process runs.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measure(w, defaultSeed, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, "end-to-end", endToEndMetrics, e2e.EndToEnd)
			for _, d := range endToEndMetrics {
				if e2e.EndToEnd[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive on every workload", d.Name, e2e.EndToEnd[d.Name].Value)
				}
			}
			layers, err := perLayer(w, defaultSeed, true, "")
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, "per-layer", perLayerMetrics, layers.PerLayer)
			for _, r := range []*runResult{e2e, layers} {
				if r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("%d of %d ops failed:\n%s", r.Failed, r.Attempted, strings.Join(r.Notes, "\n"))
				}
			}
			if e2e.Digest != layers.Digest {
				t.Errorf("virtual-clock digest differs between two runs: %s vs %s", e2e.Digest, layers.Digest)
			}
			if len(layers.SelfTimes) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestBypass checks the control workload's prediction: the storage layers
// do nothing on g500-dram.
func TestBypass(t *testing.T) {
	res, err := perLayer(g500DRAM, defaultSeed, true, "")
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range res.PerLayer {
		for _, prefix := range []string{"nvm.", "semiext.", "enc."} {
			if strings.HasPrefix(name, prefix) && s.Value != 0 {
				t.Errorf("g500-dram reports %s = %v, want no storage activity", name, s.Value)
			}
		}
	}
}

// TestCorruptOutputFails damages one output per workload before validation:
// the failure must be counted.
func TestCorruptOutputFails(t *testing.T) {
	for _, w := range workloads {
		ctx := w.ctx(defaultSeed, true)
		ctx.validate, ctx.corruptTree = true, true
		p, err := w.run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if p.failed == 0 {
			t.Errorf("%s: a corrupted output did not raise the failure count", w.name)
		}
	}
}

// TestTracerSelfTimes checks the span bookkeeping: per-layer self times sum
// to the root spans, and parents resolve to the enclosing span.
func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.begin("harness", "op", nil)
	tr.begin("bfs", "Run", nil)
	tr.begin("media", "ReadAt", nil)
	tr.end(nil)
	tr.begin("media", "ReadAt", nil)
	tr.end(nil)
	tr.endSim(1000)
	tr.end(nil)
	tr.begin("harness", "op", nil)
	tr.end(nil)
	rows, total := tr.selfTimes()
	var sum float64
	for _, r := range rows {
		sum += r.SelfMs
	}
	if diff := sum - total; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("self times sum to %v ms, root spans to %v ms", sum, total)
	}
	tr.resolveParents()
	// Close order: media, media, bfs, harness, harness.
	wantParent := []int{2, 2, 3, -1, -1}
	for i, s := range tr.spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s.%s) has parent %d, want %d", i, s.Layer, s.Name, s.Parent, wantParent[i])
		}
	}
	if tr.spans[2].VEnd-tr.spans[2].VStart != 1000 {
		t.Errorf("engine span carries %d virtual ns, want 1000", tr.spans[2].VEnd-tr.spans[2].VStart)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "host_op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_teps_hmean", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		def       metricDef
		base, cur sample
		want      string
	}{
		{lower, sample{Value: 100}, sample{Value: 105}, verdictSame},
		{lower, sample{Value: 100}, sample{Value: 120}, verdictWorse},
		{lower, sample{Value: 100}, sample{Value: 80}, verdictSame},
		{lower, sample{Value: 100, Spread: 0.3}, sample{Value: 120}, verdictUnresolved},
		{higher, sample{Value: 100}, sample{Value: 80}, verdictWorse},
		{higher, sample{Value: 100}, sample{Value: 130}, verdictSame},
	} {
		if _, got := judge(c.def, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.def.Name, c.base.Value, c.cur.Value, got, c.want)
		}
	}
}
