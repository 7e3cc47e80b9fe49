package experiments

import (
	"fmt"
	"strings"
)

// Entry is one registered experiment. cmd/analyze and the repository's
// bench_test.go are loops over All(), so registering an entry is all it
// takes to give an experiment a CLI name, three output formats and a
// benchmark.
type Entry struct {
	// Name selects the experiment (analyze -exp Name).
	Name string
	// Doc says in one line which table, figure or claim it regenerates.
	Doc string
	Run func(Options) (Result, error)
}

// Result is what one experiment run produced.
type Result struct {
	// Rows are the experiment's typed rows; the JSON rendering is
	// encoding/json of exactly this value.
	Rows any
	// Table is the flat view of Rows; Table.Text() and Table.CSV() are
	// the other two renderings.
	Table Table
	// Headline holds the few numbers the experiment exists to show.
	Headline []Metric
}

// Metric is one headline number; Name doubles as the unit of the custom
// benchmark metric, so it carries no spaces.
type Metric struct {
	Name  string
	Value float64
}

// Text renders the result for reading: the aligned table, then one line
// per headline metric.
func (r Result) Text() string {
	var b strings.Builder
	b.WriteString(r.Table.Text())
	for _, m := range r.Headline {
		fmt.Fprintf(&b, "%s: %s\n", m.Name, formatFloat(m.Value))
	}
	return b.String()
}

// flat describes an experiment by its typed rows. Its table is the rows
// themselves (rowTable) unless table tabulates a view of them instead.
type flat[R any] struct {
	name, doc string
	run       func(Options) ([]R, error)
	title     string
	table     func(title string, rows []R) Table // optional
	headline  func([]R) []Metric                 // optional
}

func (f flat[R]) entry() Entry {
	return Entry{Name: f.name, Doc: f.doc, Run: func(opts Options) (Result, error) {
		rows, err := f.run(opts)
		if err != nil {
			return Result{}, err
		}
		table := f.table
		if table == nil {
			table = rowTable[R]
		}
		res := Result{Rows: rows, Table: table(f.title, rows)}
		if f.headline != nil {
			res.Headline = f.headline(rows)
		}
		return res, nil
	}}
}

// registry lists every experiment in the order "all" runs them: the
// paper's tables and figures in paper order, then the extensions.
var registry = []Entry{
	tableIEntry, tableIIEntry, fig3Entry, headlineEntry,
	fig7Entry, fig8Entry, fig9Entry, fig10Entry, fig11Entry, fig12And13Entry, fig14Entry,
	greenEntry, pearceEntry, traceEntry, ablationsEntry,
	faultsEntry, cacheEntry, failoverEntry, partialEntry, ioEntry,
	queryEntry, loadEntry, updateEntry, algoEntry,
	scalingEntry, scaling2DEntry,
}

// All returns every registered experiment.
func All() []Entry { return registry }

// Select resolves a comma-separated -exp value ("all" or names) against
// the registry; an unknown name is an error that lists the valid ones.
func Select(spec string) ([]Entry, error) {
	if spec == "all" {
		return registry, nil
	}
	var out []Entry
next:
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		for _, e := range registry {
			if e.Name == name {
				out = append(out, e)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown experiment %q; valid names: %s, all", name, strings.Join(Names(), ", "))
	}
	return out, nil
}

// Names lists the registered experiment names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}
