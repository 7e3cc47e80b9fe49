package experiments

import (
	"encoding/csv"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"semibfs/internal/stats"
)

// Table is the one flat rendering every experiment shares: a grid of
// typed cells under described columns. Text aligns it for reading; CSV
// keeps every number raw for plotting.
type Table struct {
	// Title heads the text rendering; it may span lines (the paper's
	// reference numbers usually ride on a second line).
	Title string
	// Names are the CSV headers and Heads the text headings, one per
	// column; an empty head keeps a detail column out of the text table.
	Names, Heads []string
	Rows         [][]any // one cell per column
}

// rowTable lays rows out as a table whose columns are the row type's
// fields: one per field encoding/json names, in field order, under its JSON
// name in CSV. A `text:"heading[,kind]"` tag also shows the field in the
// text table under heading, its cell typed by kind (a key of cellKinds); a
// field without one is CSV-only. An unknown kind panics.
func rowTable[R any](title string, rows []R) Table {
	typ := reflect.TypeFor[R]()
	t := Table{Title: title, Rows: make([][]any, len(rows))}
	var fields []int
	var kinds []reflect.Type
	for i := range typ.NumField() {
		f := typ.Field(i)
		tag := f.Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if !f.IsExported() || tag == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		head, kind, _ := strings.Cut(f.Tag.Get("text"), ",")
		cell, ok := cellKinds[kind]
		if !ok {
			panic(fmt.Sprintf("experiments: %s.%s: unknown cell kind %q", typ, f.Name, kind))
		}
		t.Names, t.Heads = append(t.Names, name), append(t.Heads, head)
		fields, kinds = append(fields, i), append(kinds, cell)
	}
	for r, row := range rows {
		v := reflect.ValueOf(row)
		t.Rows[r] = make([]any, len(fields))
		for j, i := range fields {
			if c := v.Field(i); kinds[j] != nil {
				t.Rows[r][j] = c.Convert(kinds[j]).Interface()
			} else {
				t.Rows[r][j] = c.Interface()
			}
		}
	}
	return t
}

// cellKinds are the typed cells a text tag may name; no kind keeps the
// field's own value.
var cellKinds = map[string]reflect.Type{
	"":       nil,
	"teps":   reflect.TypeFor[TEPS](),
	"bytes":  reflect.TypeFor[Bytes](),
	"pct":    reflect.TypeFor[Pct](),
	"frac":   reflect.TypeFor[Frac](),
	"times":  reflect.TypeFor[Times](),
	"budget": reflect.TypeFor[Budget](),
}

// Typed cells: each formats itself for the text table and stays the plain
// number it wraps in CSV.
type (
	TEPS   float64 // an edge rate, "4.22G"; zero (not applicable) is "-"
	Bytes  int64   // a size, "40.1 GiB"
	Pct    float64 // a percentage, "19.18%"
	Frac   float64 // a 0..1 ratio shown as a percentage, "90.0%"
	Times  float64 // a multiple, "2.02x"
	Budget float64 // a cache budget as a fraction of the graph, "1/8" or "off"
)

func (v TEPS) String() string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.0fM", float64(v)/1e6)
	default:
		return fmt.Sprintf("%.0fk", float64(v)/1e3)
	}
}
func (v Bytes) String() string { return stats.FormatBytes(int64(v)) }
func (v Pct) String() string   { return fmt.Sprintf("%.2f%%", float64(v)) }
func (v Frac) String() string  { return fmt.Sprintf("%.1f%%", 100*float64(v)) }
func (v Times) String() string { return fmt.Sprintf("%.2fx", float64(v)) }
func (v Budget) String() string {
	if v == 0 {
		return "off"
	}
	return fmt.Sprintf("1/%.0f", 1/float64(v))
}

// formatFloat renders a bare float for reading: four significant digits,
// without the exponent %g would switch to for large values.
func formatFloat(v float64) string {
	if v >= 1e4 || v <= -1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func textCell(c any) string {
	switch v := c.(type) {
	case fmt.Stringer:
		return v.String()
	case float64:
		return formatFloat(v)
	}
	return fmt.Sprint(c)
}

// csvCell renders the number (or string) a cell wraps, at full precision.
func csvCell(c any) string {
	switch v := reflect.ValueOf(c); v.Kind() {
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	}
	return fmt.Sprint(c)
}

// Text renders the title and the columns that have a Head, padded to a
// common width: words flush left, numbers flush right.
func (t Table) Text() string {
	var show []int
	for i, head := range t.Heads {
		if head != "" {
			show = append(show, i)
		}
	}
	lines := make([][]string, 1+len(t.Rows))
	width := make([]int, len(show))
	left := make([]bool, len(show))
	for k, i := range show {
		lines[0] = append(lines[0], t.Heads[i])
		for r, row := range t.Rows {
			lines[1+r] = append(lines[1+r], textCell(row[i]))
		}
		left[k] = len(t.Rows) == 0 || isWord(t.Rows[0][i])
		for _, line := range lines {
			if n := utf8.RuneCountInString(line[k]); n > width[k] {
				width[k] = n
			}
		}
	}
	var b strings.Builder
	fmt.Fprintln(&b, t.Title)
	for _, line := range lines {
		var out strings.Builder
		for k, s := range line {
			pad := strings.Repeat(" ", width[k]-utf8.RuneCountInString(s))
			if k > 0 {
				out.WriteString("  ")
			}
			if left[k] {
				out.WriteString(s + pad)
			} else {
				out.WriteString(pad + s)
			}
		}
		fmt.Fprintln(&b, strings.TrimRight(out.String(), " "))
	}
	return b.String()
}

func isWord(c any) bool {
	k := reflect.ValueOf(c).Kind()
	return k == reflect.String || k == reflect.Bool
}

// CSV renders every column, one header line then one line per row,
// quoting per RFC 4180 where a cell needs it.
func (t Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Names) // cannot fail: a strings.Builder never errors
	rec := make([]string, len(t.Names))
	for _, row := range t.Rows {
		for i, c := range row {
			rec[i] = csvCell(c)
		}
		w.Write(rec)
	}
	w.Flush()
	return b.String()
}
