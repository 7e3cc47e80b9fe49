package bitmap

import (
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Test(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestCount(t *testing.T) {
	b := New(1000)
	if b.Count() != 0 {
		t.Fatal("fresh bitmap non-empty")
	}
	for i := 0; i < 1000; i += 7 {
		b.Set(i)
	}
	want := (1000 + 6) / 7
	if got := b.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestCountRange(t *testing.T) {
	b := New(300)
	set := map[int]bool{}
	for i := 0; i < 300; i += 3 {
		b.Set(i)
		set[i] = true
	}
	for _, r := range [][2]int{{0, 300}, {0, 1}, {1, 2}, {63, 65}, {64, 128}, {100, 100}, {150, 299}, {5, 6}} {
		want := 0
		for i := r[0]; i < r[1]; i++ {
			if set[i] {
				want++
			}
		}
		if got := b.CountRange(r[0], r[1]); got != want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", r[0], r[1], got, want)
		}
	}
}

func TestForEachSet(t *testing.T) {
	b := New(500)
	want := []int{3, 64, 65, 130, 255, 256, 449}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEachSet(0, 500, func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Windowed iteration.
	got = got[:0]
	b.ForEachSet(64, 256, func(i int) { got = append(got, i) })
	wantWin := []int{64, 65, 130, 255}
	if len(got) != len(wantWin) {
		t.Fatalf("window [64,256): got %v, want %v", got, wantWin)
	}
	for i := range wantWin {
		if got[i] != wantWin[i] {
			t.Fatalf("window [64,256): got %v, want %v", got, wantWin)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(128), New(128)
	a.Set(5)
	a.Set(127)
	b.CopyFrom(a)
	if !b.Test(5) || !b.Test(127) || b.Count() != 2 {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestQuickBitmapMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 512
		b := New(n)
		ref := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			switch (op >> 12) % 3 {
			case 0:
				b.Set(i)
				ref[i] = true
			case 1:
				b.Clear(i)
				delete(ref, i)
			case 2:
				if b.Test(i) != ref[i] {
					return false
				}
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTestAndSet(t *testing.T) {
	b := New(130)
	if !b.TestAndSet(10) {
		t.Fatal("first TestAndSet lost")
	}
	if b.TestAndSet(10) {
		t.Fatal("second TestAndSet won")
	}
	if !b.TestAndSet(129) || !b.Test(129) || b.Test(128) {
		t.Fatal("TestAndSet in the last word")
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d, want 2", b.Count())
	}
}

func TestLen(t *testing.T) {
	if New(100).Len() != 100 {
		t.Fatal("Bitmap.Len")
	}
}

func BenchmarkBitmapSet(b *testing.B) {
	bm := New(1 << 20)
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<20 - 1))
	}
}

func BenchmarkBitmapTestAndSet(b *testing.B) {
	bm := New(1 << 20)
	for i := 0; i < b.N; i++ {
		bm.TestAndSet(i & (1<<20 - 1))
	}
}

func BenchmarkBitmapCount(b *testing.B) {
	bm := New(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		bm.Set(i)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = bm.Count()
	}
	_ = sink
}
