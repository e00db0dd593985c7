package consolidation_test

import (
	"testing"

	"consolidation"
)

// TestConsolidateChained merges a third program into Consolidate's own
// output. The second merge must rename the third program's clashing locals
// to names the first merge did not already use.
func TestConsolidateChained(t *testing.T) {
	a := consolidation.MustParse(`func a(n) { i := 0; x := 0; while (i < 3) { x := x + n; i := i + 1; } notify 1 (x > 5); }`)
	b := consolidation.MustParse(`func b(n) { i := 0; x := 1; while (i < 3) { x := x + 2; i := i + 1; } notify 2 (x > n); }`)
	c := consolidation.MustParse(`func c(n) { i := 0; x := 5; while (i < 3) { x := x - n; i := i + 1; } notify 3 (x > 0); }`)
	ab, _, err := consolidation.Consolidate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	abc, _, err := consolidation.Consolidate(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]int64
	for n := int64(-10); n <= 10; n++ {
		inputs = append(inputs, []int64{n})
	}
	if err := consolidation.Verify([]*consolidation.Program{a, b, c}, abc, &consolidation.MapLibrary{}, inputs, false); err != nil {
		t.Fatalf("%v\n%s", err, consolidation.Format(abc))
	}
}
