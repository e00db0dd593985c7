package consolidate

import (
	"testing"

	"consolidation/internal/lang"
)

// TestChainedPairRenamesFresh chains Pair on its own output. In
// Pair(Pair(a, b), c), b's x is already x$2 when c's x clashes with a's:
// c's x must get a name that neither a⊗b nor c uses, or it and b's x
// become one variable.
func TestChainedPairRenamesFresh(t *testing.T) {
	a := lang.MustParse(`func a(n) { i := 0; x := 0; while (i < 3) { x := x + n; i := i + 1; } notify 1 (x > 5); }`)
	b := lang.MustParse(`func b(n) { i := 0; x := 1; while (i < 3) { x := x + 2; i := i + 1; } notify 2 (x > n); }`)
	c := lang.MustParse(`func c(n) { i := 0; x := 5; while (i < 3) { x := x - n; i := i + 1; } notify 3 (x > 0); }`)
	var inputs [][]int64
	for n := int64(-10); n <= 10; n++ {
		inputs = append(inputs, []int64{n})
	}
	for _, noDCE := range []bool{false, true} {
		opts := DefaultOptions()
		opts.NoDCE = noDCE
		ab, err := New(opts).Pair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		abc, err := New(opts).Pair(ab, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify([]*lang.Program{a, b, c}, abc, &lang.MapLibrary{}, nil, inputs, false); err != nil {
			t.Errorf("NoDCE=%v: %v\n%s", noDCE, err, lang.Format(abc))
		}
	}
}
