package experiments

import (
	"testing"

	"semibfs/internal/vtime"
)

type goldenRow struct {
	Name  string
	N     int
	Rate  float64
	Size  int64
	Wait  vtime.Duration
	Ready bool
}

var goldenCols = []Col[goldenRow]{
	{"name", "name", func(r goldenRow) any { return r.Name }},
	{"n", "", func(r goldenRow) any { return r.N }},
	{"budget", "budget", func(r goldenRow) any { return Budget(1 / float64(r.N)) }},
	{"rate", "TEPS", func(r goldenRow) any { return TEPS(r.Rate) }},
	{"raw", "raw", func(r goldenRow) any { return r.Rate }},
	{"size_bytes", "size", func(r goldenRow) any { return Bytes(r.Size) }},
	{"wait_ns", "wait", func(r goldenRow) any { return r.Wait }},
	{"ready", "ready", func(r goldenRow) any { return r.Ready }},
}

// TestTableGolden pins the renderer itself: column alignment (words left,
// numbers right, width from the widest cell), typed cells formatting
// themselves in text while CSV keeps the raw number, Head-less columns
// staying out of the text, and RFC 4180 quoting of a cell that contains a
// comma.
func TestTableGolden(t *testing.T) {
	rows := []goldenRow{
		{"plain", 8, 4.22e9, 1 << 20, 50 * vtime.Microsecond, true},
		{"with, comma", 32, 123456.789, 3 << 30, 0, false},
	}
	tab := tabulate("Golden: title\n(second title line)", rows, goldenCols)
	wantText := "Golden: title\n(second title line)\n" +
		"name         budget   TEPS         raw     size  wait  ready\n" +
		"plain           1/8  4.22G  4220000000  1.0 MiB  50µs  true\n" +
		"with, comma    1/32   123k      123457  3.0 GiB    0s  false\n"
	if got := tab.Text(); got != wantText {
		t.Errorf("text:\n%s\nwant:\n%s", got, wantText)
	}
	wantCSV := "name,n,budget,rate,raw,size_bytes,wait_ns,ready\n" +
		"plain,8,0.125,4.22e+09,4.22e+09,1048576,50000,true\n" +
		"\"with, comma\",32,0.03125,123456.789,123456.789,3221225472,0,false\n"
	if got := tab.CSV(); got != wantCSV {
		t.Errorf("csv:\n%s\nwant:\n%s", got, wantCSV)
	}
}

// TestTableEmpty: no rows still renders the title and both headers.
func TestTableEmpty(t *testing.T) {
	tab := tabulate("Empty", nil, goldenCols)
	if got, want := tab.Text(), "Empty\nname  budget  TEPS  raw  size  wait  ready\n"; got != want {
		t.Errorf("text %q, want %q", got, want)
	}
	if got, want := tab.CSV(), "name,n,budget,rate,raw,size_bytes,wait_ns,ready\n"; got != want {
		t.Errorf("csv %q, want %q", got, want)
	}
}
