package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// verdict of one (metric, workload) pairing under the benchmark's bounds.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies the regression rule: new is worse when it moved in the bad
// direction by more than bound of base; when the metric's own pass-to-pass
// spread exceeds the bound the pairing is unresolved, not unchanged.
func judge(def metricDef, base, cur sample) (rel float64, verdict string) {
	switch {
	case base.Value == cur.Value:
		return 0, verdictSame
	case base.Value == 0:
		rel = 1
	case def.Better == "lower":
		rel = (cur.Value - base.Value) / base.Value
	default:
		rel = (base.Value - cur.Value) / base.Value
	}
	if base.Spread > def.Bound || cur.Spread > def.Bound {
		return rel, verdictUnresolved
	}
	if rel > def.Bound {
		return rel, verdictWorse
	}
	return rel, verdictSame
}

// compareSets prints base / new / ratio / bound / verdict for every
// (end-to-end metric, workload) and returns the number of "worse" rows.
// With exact set, every virtual-clock metric and count must also be
// bit-identical (same code, same seed).
func compareSets(w io.Writer, base, cur *resultSet, exact bool) int {
	worse := 0
	fmt.Fprintf(w, "%-14s %-20s %16s %16s %8s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, b := range base.Results {
		c := cur.find(b.Workload)
		if c == nil {
			fmt.Fprintf(w, "%-14s missing from the new set\n", b.Workload)
			worse++
			continue
		}
		for _, def := range endToEndMetrics {
			bs, cs := b.EndToEnd[def.Name], c.EndToEnd[def.Name]
			_, v := judge(def, bs, cs)
			if exact && strings.HasPrefix(def.Name, "sim_") && bs.Value != cs.Value {
				v = verdictWorse + " (virtual-clock value differs on the same code and seed)"
			}
			if strings.HasPrefix(v, verdictWorse) {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-20s %16.6g %16.6g %8.4f %6.1f%%  %s\n",
				b.Workload, def.Name, bs.Value, cs.Value, ratio(cs.Value, bs.Value), 100*def.Bound, v)
		}
		bf, cf := ratio(float64(b.Failed), float64(b.Attempted)), ratio(float64(c.Failed), float64(c.Attempted))
		v := verdictSame
		if cf > bf {
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(w, "%-14s %-20s %16.6g %16.6g %8s %6.1f%%  %s\n", b.Workload, "fail_frac", bf, cf, "", 0.0, v)
		if exact && b.Digest != c.Digest {
			fmt.Fprintf(w, "%-14s sim-digest %s != %s: virtual times, counts or trees differ\n", b.Workload, b.Digest, c.Digest)
			worse++
		}
	}
	return worse
}

func compareFiles(basePath, curPath string) error {
	var base, cur resultSet
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(curPath, &cur); err != nil {
		return err
	}
	if n := compareSets(os.Stdout, &base, &cur, false); n > 0 {
		return fmt.Errorf("%d (metric, workload) pairings are worse than %s by more than their bound", n, basePath)
	}
	return nil
}

// selfCheck runs every workload twice on the same code and seed and holds
// the benchmark to its own bounds.
func selfCheck(seed uint64, seconds float64) error {
	var sets [2]*resultSet
	for i := range sets {
		set, err := runAll(seed, seconds)
		if err != nil {
			return err
		}
		if err := writeJSON(fmt.Sprintf("%s/selfcheck.%d.json", outDir, i), set); err != nil {
			return err
		}
		sets[i] = set
	}
	worse := compareSets(os.Stdout, sets[0], sets[1], true)
	if f := sets[0].failed() + sets[1].failed(); f > 0 {
		return fmt.Errorf("%d ops failed", f)
	}
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pairings disagree between two runs of the same code", worse)
	}
	fmt.Println("selfcheck passed: two runs of the same code agree within the benchmark's bounds; virtual-clock digests identical")
	return nil
}
