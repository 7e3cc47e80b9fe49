package experiments

import (
	"testing"
)

// key identifies a Scaling2D cell up to encoding.
type scaling2dKey struct {
	machines int
	layout   string
	device   string
}

// TestScaling2DInvariants is the comm-accounting satellite: for every
// Scaling2D row the per-phase split must sum to the total, compressed
// wire traffic must not exceed raw in any bucket, and on the fixed graph
// the 2D bottom-up allgather must both undercut 1D at P=16 and grow
// slower with P (sqrt(P)-1 column fan-out vs P-1).
func TestScaling2DInvariants(t *testing.T) {
	rows, err := Scaling2D(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(Scaling2DMachines) * len(scaling2DDevices()) * 2 * 2
	if len(rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(rows), wantRows)
	}

	raw := map[scaling2dKey]Scaling2DRow{}
	cmp := map[scaling2dKey]Scaling2DRow{}
	for _, r := range rows {
		if !r.Validated {
			t.Fatalf("row %+v not validated", r)
		}
		if r.TEPS <= 0 {
			t.Fatalf("row %+v: non-positive TEPS", r)
		}
		// Per-phase split sums to the total.
		if got := r.Comm.Total(); got != r.CommBytes {
			t.Fatalf("row %+v: phase sum %d != total %d", r, got, r.CommBytes)
		}
		k := scaling2dKey{r.Machines, r.Layout, r.Device}
		if r.Compressed {
			cmp[k] = r
		} else {
			raw[k] = r
		}
	}

	// Compressed wire <= raw, bucket by bucket.
	for k, rr := range raw {
		cr, ok := cmp[k]
		if !ok {
			t.Fatalf("no compressed row for %+v", k)
		}
		type bucket struct {
			name     string
			raw, cmp int64
		}
		for _, b := range []bucket{
			{"td_frontier", rr.Comm.TDFrontier, cr.Comm.TDFrontier},
			{"td_candidate", rr.Comm.TDCandidate, cr.Comm.TDCandidate},
			{"bu_allgather", rr.Comm.BUAllgather, cr.Comm.BUAllgather},
			{"bu_ring", rr.Comm.BURing, cr.Comm.BURing},
			{"total", rr.CommBytes, cr.CommBytes},
		} {
			if b.cmp > b.raw {
				t.Errorf("%+v: compressed %s %d exceeds raw %d", k, b.name, b.cmp, b.raw)
			}
		}
	}

	// The layout claim, on every device/encoding: at P=16 the 2D
	// allgather spans R-1 = 3 machines instead of P-1 = 15, and its
	// growth from P=4 to P=16 is strictly slower than 1D's.
	for _, dev := range scaling2DDevices() {
		for _, compressed := range []bool{false, true} {
			pick := func(p int, layout string) Scaling2DRow {
				m := raw
				if compressed {
					m = cmp
				}
				r, ok := m[scaling2dKey{p, layout, dev.Name}]
				if !ok {
					t.Fatalf("missing row p=%d layout=%s dev=%s", p, layout, dev.Name)
				}
				return r
			}
			oneD16, twoD16 := pick(16, "1d"), pick(16, "2d")
			if twoD16.Comm.BUAllgather*2 > oneD16.Comm.BUAllgather {
				t.Errorf("dev=%s compressed=%v: P=16 2D allgather %d not well below 1D %d",
					dev.Name, compressed, twoD16.Comm.BUAllgather, oneD16.Comm.BUAllgather)
			}
			oneD4, twoD4 := pick(4, "1d"), pick(4, "2d")
			grow1 := float64(oneD16.Comm.BUAllgather) / float64(oneD4.Comm.BUAllgather)
			grow2 := float64(twoD16.Comm.BUAllgather) / float64(twoD4.Comm.BUAllgather)
			if grow2 >= grow1 {
				t.Errorf("dev=%s compressed=%v: 2D allgather growth %.2fx not below 1D %.2fx",
					dev.Name, compressed, grow2, grow1)
			}
		}
	}
}
