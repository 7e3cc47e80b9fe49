package bitmap

import (
	"math/bits"
	"testing"
)

func TestLaneMask(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 3, 63: (1 << 63) - 1, 64: ^uint64(0), 70: ^uint64(0)}
	for lanes, want := range cases {
		if got := LaneMask(lanes); got != want {
			t.Errorf("LaneMask(%d) = %#x, want %#x", lanes, got, want)
		}
	}
}

func TestLanesBasics(t *testing.T) {
	l := NewLanes(10)
	if l.Len() != 10 {
		t.Fatalf("Len = %d, want 10", l.Len())
	}
	l.Set(3, 5)
	if !l.Test(3, 5) || l.Test(3, 4) || l.Test(2, 5) {
		t.Fatal("Set/Test mismatch")
	}
	if got := l.Word(3); got != 1<<5 {
		t.Fatalf("Word(3) = %#x", got)
	}
	if add := l.Or(3, 0b1100000); add != 1<<6 {
		t.Fatalf("Or newly-set = %#x, want %#x", add, uint64(1<<6))
	}
	if got := l.AndNot(3, 1<<5); got != 1<<6 {
		t.Fatalf("AndNot = %#x, want %#x", got, uint64(1<<6))
	}
	if got := l.CountRange(0, 10); got != 2 {
		t.Fatalf("CountRange = %d, want 2", got)
	}
	if got := l.CountRange(4, 10); got != 0 {
		t.Fatalf("CountRange(4,10) = %d, want 0", got)
	}
	l.ResetRange(0, 10)
	if got := l.CountRange(0, 10); got != 0 {
		t.Fatalf("after ResetRange CountRange = %d", got)
	}
}

func TestLanesOrReturnsNewBits(t *testing.T) {
	l := NewLanes(4)
	if add := l.Or(2, 0b1010); add != 0b1010 {
		t.Fatalf("first Or = %#x", add)
	}
	if add := l.Or(2, 0b1110); add != 0b0100 {
		t.Fatalf("second Or = %#x", add)
	}
	if add := l.Or(2, 0b1010); add != 0 {
		t.Fatalf("repeat Or = %#x", add)
	}
	if got := l.Word(2); got != 0b1110 {
		t.Fatalf("Word = %#x", got)
	}
}

// FuzzLaneOps drives a Lanes with a fuzz-chosen sequence of set/or/and-not
// operations and cross-checks every step against a naive per-bit model (a
// [][]bool matrix).
func FuzzLaneOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(4), uint8(7))
	f.Add([]byte{9, 9, 9}, uint8(1), uint8(64))
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f}, uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, nv uint8, lanes uint8) {
		n := int(nv)%16 + 1
		b := int(lanes)%MaxLanes + 1
		mask := LaneMask(b)
		plain := NewLanes(n)
		model := make([][]bool, n)
		for i := range model {
			model[i] = make([]bool, MaxLanes)
		}
		modelWord := func(v int) uint64 {
			var w uint64
			for l, set := range model[v] {
				if set {
					w |= 1 << uint(l)
				}
			}
			return w
		}
		for i := 0; i+2 < len(ops); i += 3 {
			v := int(ops[i]) % n
			op := ops[i+1] % 3
			arg := (uint64(ops[i+2])*0x9e3779b97f4a7c15 ^ uint64(ops[i])) & mask
			switch op {
			case 0: // single-lane set
				lane := int(ops[i+2]) % b
				plain.Set(v, lane)
				model[v][lane] = true
			case 1: // word OR, checking the newly-set return
				wantAdd := arg &^ modelWord(v)
				if add := plain.Or(v, arg); add != wantAdd {
					t.Fatalf("Lanes.Or(%d,%#x) new = %#x, want %#x", v, arg, add, wantAdd)
				}
				for l := 0; l < MaxLanes; l++ {
					if arg&(1<<uint(l)) != 0 {
						model[v][l] = true
					}
				}
			case 2: // and-not probe, no mutation
				want := modelWord(v) &^ arg
				if got := plain.AndNot(v, arg); got != want {
					t.Fatalf("AndNot(%d,%#x) = %#x, want %#x", v, arg, got, want)
				}
			}
			// Round-trip invariants after every mutation.
			if plain.Word(v) != modelWord(v) {
				t.Fatalf("Lanes word %d = %#x, model %#x", v, plain.Word(v), modelWord(v))
			}
		}
		var wantCount int64
		for v := 0; v < n; v++ {
			wantCount += int64(bits.OnesCount64(modelWord(v)))
			for l := 0; l < b; l++ {
				if plain.Test(v, l) != model[v][l] {
					t.Fatalf("Test(%d,%d) = %v, model %v", v, l, plain.Test(v, l), model[v][l])
				}
			}
		}
		if got := plain.CountRange(0, n); got != wantCount {
			t.Fatalf("CountRange = %d, model %d", got, wantCount)
		}
	})
}
