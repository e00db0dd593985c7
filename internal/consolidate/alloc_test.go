package consolidate

import (
	"testing"

	"consolidation/internal/lang"
)

// pairAllocBound pins the heap allocations of one Pair over nested
// conditionals: 6,264 per run on linux/amd64 with go1.24, plus about 12%
// headroom. Each arm and loop scope marks and undoes the one symbolic
// context (sym.Context.Mark / Undo); copying the context per arm, as Ω did
// before, took 8,865 per run on the same programs.
const pairAllocBound = 7000

// TestPairAllocs fails when Ω's per-branch cost grows back toward a copy
// of the symbolic context: two programs whose definitions fill the context
// before conditionals nested three deep, each embedding the other's.
func TestPairAllocs(t *testing.T) {
	p1 := lang.MustParse(`func a(r) {
		a1 := f1(r); a2 := f2(r); a3 := f3(r); a4 := f4(r); a5 := f5(r);
		a6 := f6(r); a7 := f7(r); a8 := f8(r); a9 := f9(r); a10 := f10(r);
		if (a1 > 10) {
			if (a2 > 5) {
				if (a3 < 50) { notify 1 true; } else { notify 1 (a4 > a5); }
			} else { notify 1 (a6 > 2); }
		} else {
			if (a7 > 30) { notify 1 (a8 < a9); } else { notify 1 (a10 > 0); }
		}
	}`)
	p2 := lang.MustParse(`func b(r) {
		b1 := f1(r); b2 := f2(r); b3 := f3(r); b4 := f4(r); b5 := f5(r);
		b6 := f6(r); b7 := f7(r); b8 := f8(r); b9 := f9(r); b10 := f10(r);
		if (b1 > 12) {
			if (b3 < 40) {
				if (b5 > 3) { notify 2 true; } else { notify 2 (b2 > b4); }
			} else { notify 2 (b6 > b7); }
		} else {
			if (b8 > 7) { notify 2 (b9 > b10); } else { notify 2 false; }
		}
	}`)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(DefaultOptions()).Pair(p1, p2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Pair", allocs)
	if allocs > pairAllocBound {
		t.Errorf("Pair allocated %.0f times per run, bound %d", allocs, pairAllocBound)
	}
}
