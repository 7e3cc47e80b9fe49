package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRegistryEntriesRunAndRender is the one rendering test every
// experiment shares: each registered entry runs on the tiny instance and
// must render as text, as CSV whose every line has as many fields as its
// header, and as JSON that round-trips through the entry's typed rows.
func TestRegistryEntriesRunAndRender(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.Name == "" || e.Doc == "" || seen[e.Name] {
			t.Fatalf("entry %q: empty or duplicate name, or no doc", e.Name)
		}
		seen[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(tinyOpts())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Table.Rows) == 0 {
				t.Fatal("no rows")
			}
			text := res.Text()
			if !strings.Contains(text, "\n") || strings.Contains(text, "%!") {
				t.Errorf("bad text rendering:\n%s", text)
			}
			for _, m := range res.Headline {
				if m.Name == "" || strings.ContainsAny(m.Name, " \t") {
					t.Errorf("headline metric %q is not a benchmark unit", m.Name)
				}
			}

			// csv.Reader rejects any record whose field count differs
			// from the header's.
			records, err := csv.NewReader(strings.NewReader(res.Table.CSV())).ReadAll()
			if err != nil {
				t.Fatalf("CSV: %v\n%s", err, res.Table.CSV())
			}
			if len(records) != 1+len(res.Table.Rows) {
				t.Errorf("CSV has %d lines for %d rows", len(records), len(res.Table.Rows))
			}

			js, err := json.Marshal(res.Rows)
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			back := reflect.New(reflect.TypeOf(res.Rows))
			if err := json.Unmarshal(js, back.Interface()); err != nil {
				t.Fatalf("JSON does not decode into %T: %v", res.Rows, err)
			}
			again, err := json.Marshal(back.Elem().Interface())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js, again) {
				t.Errorf("JSON does not round-trip through %T:\n%s\n%s", res.Rows, js, again)
			}
		})
	}
}

// TestSelect pins the front door's name resolution: "all" is every entry,
// a list keeps its order, and an unknown name is an error naming the
// valid ones.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(All()) || len(all) != 26 {
		t.Fatalf("all: %d entries (registry %d, want 26), err %v", len(all), len(All()), err)
	}
	two, err := Select("fig9, headline")
	if err != nil || len(two) != 2 || two[0].Name != "fig9" || two[1].Name != "headline" {
		t.Fatalf("list: %+v, err %v", two, err)
	}
	_, err = Select("headline,nosuch")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
