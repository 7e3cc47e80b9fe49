package experiments

import (
	"fmt"
	"strings"
	"testing"

	"semibfs/internal/vtime"
)

type goldenRow struct {
	Name   string         `json:"name" text:"name"`
	N      int            `json:"n"`
	Budget float64        `json:"budget" text:"budget,budget"`
	Rate   float64        `json:"rate" text:"TEPS,teps"`
	Raw    float64        `json:"raw" text:"raw"`
	Size   int64          `json:"size_bytes" text:"size,bytes"`
	Wait   vtime.Duration `json:"wait_ns" text:"wait"`
	Ready  bool           `json:"ready" text:"ready"`
	Skip   int            `json:"-"` // no column, as in JSON
}

// TestTableGolden pins the renderer itself: column alignment (words left,
// numbers right, width from the widest cell), typed cells formatting
// themselves in text while CSV keeps the raw number, Head-less columns
// staying out of the text, and RFC 4180 quoting of a cell that contains a
// comma.
func TestTableGolden(t *testing.T) {
	rows := []goldenRow{
		{Name: "plain", N: 8, Budget: 1.0 / 8, Rate: 4.22e9, Raw: 4.22e9, Size: 1 << 20, Wait: 50 * vtime.Microsecond, Ready: true},
		{Name: "with, comma", N: 32, Budget: 1.0 / 32, Rate: 123456.789, Raw: 123456.789, Size: 3 << 30},
	}
	tab := rowTable("Golden: title\n(second title line)", rows)
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
	tab := rowTable[goldenRow]("Empty", nil)
	if got, want := tab.Text(), "Empty\nname  budget  TEPS  raw  size  wait  ready\n"; got != want {
		t.Errorf("text %q, want %q", got, want)
	}
	if got, want := tab.CSV(), "name,n,budget,rate,raw,size_bytes,wait_ns,ready\n"; got != want {
		t.Errorf("csv %q, want %q", got, want)
	}
}

// TestTableUnknownCellKind: a typo in a text tag's kind panics, naming the
// field, the first time the table is built.
func TestTableUnknownCellKind(t *testing.T) {
	type typoRow struct {
		Rate float64 `json:"rate" text:"TEPS,tesp"`
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "typoRow.Rate") {
			t.Errorf("recovered %v, want a panic naming typoRow.Rate", r)
		}
	}()
	rowTable[typoRow]("Typo", nil)
}
