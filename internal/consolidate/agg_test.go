package consolidate

import (
	"strings"
	"testing"

	"consolidation/internal/lang"
	"consolidation/internal/smt"
)

// aggLib is the record-access library for the aggregation tests: cheap
// accessors plus one expensive shared call whose deduplication is the point
// of the merge. Record values are pure functions of the record index so the
// VM runs deterministically.
func aggLib() *lang.MapLibrary {
	lib := &lang.MapLibrary{}
	lib.Define("temp", 25, func(a []int64) (int64, error) { return (a[0]*7)%41 - 5, nil })
	lib.Define("rain", 25, func(a []int64) (int64, error) { return (a[0] * 3) % 11, nil })
	lib.Define("city", 4, func(a []int64) (int64, error) { return a[0] % 3, nil })
	return lib
}

const weatherAggsSrc = `
agg hot(r) window 4 {
  acc hi = -9999;
  fold {
    t := temp(r);
    if (hi < t) { hi := t; }
  }
  emit { notify 0 (hi > 20); }
}
agg swing(r) window 4 {
  acc lo = 9999;
  acc sum = 0;
  fold {
    t := temp(r);
    if (t < lo) { lo := t; }
    sum := sum + t;
  }
  emit {
    notify 0 (lo < 0);
    notify 1 (sum > 40);
  }
}
`

func mustMerge(t *testing.T, src string) ([]*lang.AggProgram, []*AggGroup) {
	t.Helper()
	aggs, err := lang.ParseAggs(src)
	if err != nil {
		t.Fatalf("ParseAggs: %v", err)
	}
	groups, err := MergeAggs(aggs, Options{})
	if err != nil {
		t.Fatalf("MergeAggs: %v", err)
	}
	return aggs, groups
}

// countCalls counts Call nodes of fn in a statement.
func countCalls(s lang.Stmt, fn string) int {
	n := 0
	var walkInt func(e lang.IntExpr)
	var walkBool func(e lang.BoolExpr)
	walkInt = func(e lang.IntExpr) {
		switch t := e.(type) {
		case lang.Call:
			if t.Func == fn {
				n++
			}
			for _, a := range t.Args {
				walkInt(a)
			}
		case lang.BinInt:
			walkInt(t.L)
			walkInt(t.R)
		}
	}
	walkBool = func(e lang.BoolExpr) {
		switch t := e.(type) {
		case lang.Cmp:
			walkInt(t.L)
			walkInt(t.R)
		case lang.Not:
			walkBool(t.E)
		case lang.BinBool:
			walkBool(t.L)
			walkBool(t.R)
		}
	}
	var walk func(s lang.Stmt)
	walk = func(s lang.Stmt) {
		switch t := s.(type) {
		case lang.Assign:
			walkInt(t.E)
		case lang.Seq:
			walk(t.L)
			walk(t.R)
		case lang.Cond:
			walkBool(t.Test)
			walk(t.Then)
			walk(t.Else)
		case lang.While:
			walkBool(t.Test)
			walk(t.Body)
		}
	}
	walk(s)
	return n
}

// TestMergeAggsSharedTraversal: two aggregations over the same window both
// call the expensive accessor; the merged fold must pay it once.
func TestMergeAggsSharedTraversal(t *testing.T) {
	_, groups := mustMerge(t, weatherAggsSrc)
	if len(groups) != 1 {
		t.Fatalf("want one group, got %d", len(groups))
	}
	g := groups[0]
	if got := countCalls(g.Fold.Body, "temp"); got != 1 {
		t.Fatalf("merged fold calls temp %d times, want 1:\n%s", got, lang.Format(g.Fold))
	}
	if len(g.Accs) != 3 || len(g.Outputs) != 3 {
		t.Fatalf("accs=%d outputs=%d, want 3 and 3", len(g.Accs), len(g.Outputs))
	}
	wantOut := []AggOutputRef{{Member: 0, Local: 0}, {Member: 1, Local: 0}, {Member: 1, Local: 1}}
	for i, w := range wantOut {
		if g.Outputs[i] != w {
			t.Fatalf("Outputs[%d] = %+v, want %+v", i, g.Outputs[i], w)
		}
	}
	wantParams := append([]string{AggRecordParam}, "q0_hi", "q1_lo", "q1_sum")
	if strings.Join(g.Fold.Params, ",") != strings.Join(wantParams, ",") {
		t.Fatalf("fold params = %v, want %v", g.Fold.Params, wantParams)
	}
	if !g.Homomorphic {
		t.Fatalf("max/min/sum group should verify homomorphic")
	}
	wantOps := []HomOp{HomMax, HomMin, HomSum}
	for i, op := range wantOps {
		if g.Hom[i] != op {
			t.Fatalf("Hom[%d] = %v, want %v", i, g.Hom[i], op)
		}
	}
}

// TestMergeAggsGroupsByWindow: only aggregations with identical window
// specs share a traversal; size and key partition both separate.
func TestMergeAggsGroupsByWindow(t *testing.T) {
	src := weatherAggsSrc + `
agg keyed(r) window 4 by city {
  acc n = 0;
  fold { n := n + 1; }
  emit { notify 0 (n == 4); }
}
agg wide(r) window 8 {
  acc n = 0;
  fold { n := n + 1; }
  emit { notify 0 (n == 8); }
}
`
	_, groups := mustMerge(t, src)
	if len(groups) != 3 {
		t.Fatalf("want 3 groups (w4, w4-by-city, w8), got %d", len(groups))
	}
	if len(groups[0].Members) != 2 || groups[0].Members[0] != 0 || groups[0].Members[1] != 1 {
		t.Fatalf("group 0 members = %v", groups[0].Members)
	}
	if groups[1].Window != (lang.WindowSpec{Size: 4, KeyFunc: "city"}) {
		t.Fatalf("group 1 window = %+v", groups[1].Window)
	}
	if groups[2].Window != (lang.WindowSpec{Size: 8}) {
		t.Fatalf("group 2 window = %+v", groups[2].Window)
	}
}

// TestMergeAggsNonHomFallsBack: an accumulator whose update reads another
// accumulator is not a homomorphism; the group must still merge but stay on
// the unsplit path.
func TestMergeAggsNonHomFallsBack(t *testing.T) {
	src := `
agg tricky(r) window 3 {
  acc a = 0;
  acc b = 0;
  fold {
    t := temp(r);
    a := a + t;
    b := b + a;
  }
  emit { notify 0 (b > a); }
}
`
	_, groups := mustMerge(t, src)
	if len(groups) != 1 {
		t.Fatalf("want one group, got %d", len(groups))
	}
	if groups[0].Homomorphic {
		t.Fatalf("prefix-sum-of-sums must not classify as homomorphic")
	}
}

// TestMergeAggsRejects: invalid inputs surface as errors, not panics.
func TestMergeAggsRejects(t *testing.T) {
	if _, err := MergeAggs(nil, Options{}); err == nil {
		t.Fatal("empty input should error")
	}
	a := lang.MustParseAgg(`agg a(r) window 2 { acc x = 0; fold { x := x + 1; } emit { notify 0 (x > 0); } }`)
	b := lang.MustParseAgg(`agg a(s) window 3 { acc y = 0; fold { y := y + 1; } emit { notify 0 (y > 0); } }`)
	if _, err := MergeAggs([]*lang.AggProgram{a, b}, Options{}); err == nil || !strings.Contains(err.Error(), "duplicate aggregation name") {
		t.Fatalf("duplicate names: err = %v", err)
	}
}

// foldWindow runs a compiled fold serially over records [lo,hi) starting
// from the given accumulator values and returns the final values.
func foldWindow(t *testing.T, p *lang.Program, accs []string, init []int64, lo, hi int64, lib lang.Library) []int64 {
	t.Helper()
	c, err := lang.Compile(p)
	if err != nil {
		t.Fatalf("compile %s: %v", p.Name, err)
	}
	rn := lang.NewRunner(c, lib)
	slots := make([]int, len(accs))
	for i, a := range accs {
		s, ok := c.SlotIndex(a)
		if !ok {
			t.Fatalf("%s: no slot for accumulator %q", p.Name, a)
		}
		slots[i] = s
	}
	cur := append([]int64(nil), init...)
	args := make([]int64, 1+len(cur))
	for rec := lo; rec < hi; rec++ {
		args[0] = rec
		copy(args[1:], cur)
		if _, err := rn.RunDense(args); err != nil {
			t.Fatalf("%s on record %d: %v", p.Name, rec, err)
		}
		for i, s := range slots {
			v, ok := rn.SlotAt(s)
			if !ok {
				t.Fatalf("%s: accumulator %q unbound", p.Name, accs[i])
			}
			cur[i] = v
		}
	}
	return cur
}

// runEmit evaluates a compiled emit over final accumulator values and
// returns the notification values keyed by id.
func runEmit(t *testing.T, p *lang.Program, accs []int64, lib lang.Library) map[int]bool {
	t.Helper()
	c, err := lang.Compile(p)
	if err != nil {
		t.Fatalf("compile %s: %v", p.Name, err)
	}
	rn := lang.NewRunner(c, lib)
	if _, err := rn.RunDense(accs); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	out := map[int]bool{}
	for _, id := range c.NoteIDs() {
		k, _ := c.NoteIndex(id)
		if v, ok := rn.NoteAt(k); ok {
			out[id] = v
		}
	}
	return out
}

// TestMergedFoldEquivalence replays a window through the merged fold and
// through each member's own fold and checks every output bit agrees — the
// consolidate-layer version of the engine oracle.
func TestMergedFoldEquivalence(t *testing.T) {
	aggs, groups := mustMerge(t, weatherAggsSrc)
	g := groups[0]
	lib := aggLib()

	init := make([]int64, len(g.Accs))
	for i, d := range g.Accs {
		init[i] = d.Init
	}
	accNames := make([]string, len(g.Accs))
	for i, d := range g.Accs {
		accNames[i] = d.Name
	}
	const lo, hi = 0, 4
	mergedAccs := foldWindow(t, g.Fold, accNames, init, lo, hi, lib)
	mergedNotes := runEmit(t, g.Emit, mergedAccs, lib)

	// Per-member replay from scratch.
	accBase := 0
	for mi, gi := range g.Members {
		a := aggs[gi]
		names := a.AccNames()
		ainit := make([]int64, len(names))
		for i, d := range a.Accs {
			ainit[i] = d.Init
		}
		got := foldWindow(t, a.FoldProgram(), names, ainit, lo, hi, lib)
		for i := range names {
			if got[i] != mergedAccs[accBase+i] {
				t.Fatalf("member %d acc %q: merged %d, replay %d", gi, names[i], mergedAccs[accBase+i], got[i])
			}
		}
		notes := runEmit(t, a.EmitProgram(), got, lib)
		for j, id := range a.EmitIDs() {
			dense := -1
			for k, ref := range g.Outputs {
				if ref.Member == gi && ref.Local == j {
					dense = k
				}
			}
			if dense < 0 {
				t.Fatalf("no dense output for member %d local %d", gi, j)
			}
			mv, ok := mergedNotes[dense]
			if !ok {
				t.Fatalf("merged emit never notified dense id %d", dense)
			}
			if mv != notes[id] {
				t.Fatalf("member %d notify %d: merged %v, replay %v", gi, id, mv, notes[id])
			}
		}
		accBase += len(names)
		_ = mi
	}
}

// TestHomPartialCombineMatchesSerial splits a window into batches, folds
// each batch from the operator identities, combines in batch order on top
// of the declared inits, and checks the result equals the serial fold —
// the exact contract the batched engine relies on.
func TestHomPartialCombineMatchesSerial(t *testing.T) {
	_, groups := mustMerge(t, weatherAggsSrc)
	g := groups[0]
	if !g.Homomorphic {
		t.Fatal("test needs a homomorphic group")
	}
	lib := aggLib()
	accNames := make([]string, len(g.Accs))
	init := make([]int64, len(g.Accs))
	for i, d := range g.Accs {
		accNames[i] = d.Name
		init[i] = d.Init
	}
	const lo, hi = 10, 22 // 12 records
	serial := foldWindow(t, g.Fold, accNames, init, lo, hi, lib)

	for _, batch := range []int64{1, 2, 3, 5, 7, 12} {
		comb := append([]int64(nil), init...)
		for b := int64(lo); b < hi; b += batch {
			end := b + batch
			if end > hi {
				end = hi
			}
			ident := make([]int64, len(g.Hom))
			for i, op := range g.Hom {
				ident[i] = op.Identity()
			}
			part := foldWindow(t, g.Fold, accNames, ident, b, end, lib)
			for i, op := range g.Hom {
				comb[i] = op.Combine(comb[i], part[i])
			}
		}
		for i := range comb {
			if comb[i] != serial[i] {
				t.Fatalf("batch=%d acc %q: combined %d, serial %d", batch, accNames[i], comb[i], serial[i])
			}
		}
	}
}

// TestClassifyFoldShapes exercises the structural classifier directly on
// corner shapes the merger may produce.
func TestClassifyFoldShapes(t *testing.T) {
	parse := func(src string) lang.Stmt {
		p := lang.MustParse("func f(r, a, b) {" + src + "}")
		return p.Body
	}
	cases := []struct {
		name string
		src  string
		ok   bool
		ops  []HomOp
	}{
		{"sum both orders", "a := a + 1; b := temp(r) + b;", true, []HomOp{HomSum, HomSum}},
		{"max le variant", "t := temp(r); if (a <= t) { a := t; }", true, []HomOp{HomMax, HomSum}},
		{"min", "t := temp(r); if (t < b) { b := t; }", true, []HomOp{HomSum, HomMin}},
		{"guarded sum", "if (temp(r) > 0) { a := a + 2; }", true, []HomOp{HomSum, HomSum}},
		{"acc in local", "t := a + 1; b := b + t;", false, nil},
		{"acc-dependent addend", "a := a + b;", false, nil},
		{"mixed shapes", "a := a + 1; if (a < temp(r)) { a := temp(r); }", false, nil},
		{"max with else", "t := temp(r); if (a < t) { a := t; } else { b := b + 1; }", false, nil},
		{"non-add update", "a := a * 2;", false, nil},
		{"guard reads acc", "if (a > 0) { b := b + 1; }", false, nil},
		{"loop", "while (a < 3) { a := a + 1; }", false, nil},
	}
	for _, c := range cases {
		ops, ok := classifyFold(parse(c.src), []string{"a", "b"})
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		for i := range c.ops {
			if ops[i] != c.ops[i] {
				t.Errorf("%s: ops[%d] = %v, want %v", c.name, i, ops[i], c.ops[i])
			}
		}
	}
}

// TestVerifyHomRejectsMisclassified feeds the verifier a deliberately wrong
// operator assignment and checks the SMT pass catches it: `a := a + t` does
// not satisfy the max law a ≤ final on paths where t is negative.
func TestVerifyHomRejectsMisclassified(t *testing.T) {
	p := lang.MustParse("func f(r, a) { a := a + temp(r); }")
	solver := smt.New()
	if verifyHom(solver, p.Body, []string{"a"}, []HomOp{HomMax}) {
		t.Fatal("sum update must fail the max law")
	}
	if !verifyHom(solver, p.Body, []string{"a"}, []HomOp{HomSum}) {
		t.Fatal("sum update must pass the sum law")
	}
}

// TestPairFoldsContract: the fold pair contract is a shared record
// parameter first, then each side's accumulators; the result takes the
// record parameter, then the left accumulators, then the right ones.
func TestPairFoldsContract(t *testing.T) {
	co := New(Options{})
	p, err := co.pairFolds(
		lang.MustParse("func f(r, q0_a) { q0_x := temp(r); q0_a := q0_a + q0_x; }"),
		lang.MustParse("func g(r, q1_b, q1_c) { q1_x := temp(r); q1_b := q1_b + q1_x; q1_c := q1_c + 1; }"))
	if err != nil {
		t.Fatalf("pairFolds: %v", err)
	}
	if got := strings.Join(p.Params, ","); got != "r,q0_a,q1_b,q1_c" {
		t.Fatalf("params = %s", got)
	}
	if got := countCalls(p.Body, "temp"); got != 1 {
		t.Fatalf("merged fold calls temp %d times, want 1:\n%s", got, lang.Format(p))
	}
	_, err = co.pairFolds(lang.MustParse("func f(r, a) { a := a + 1; }"), lang.MustParse("func g(s, b) { b := b + 1; }"))
	if err == nil || !strings.Contains(err.Error(), "share a record parameter") {
		t.Errorf("record mismatch: err = %v", err)
	}
}

// TestMergeAggsKeepsUpdateGuardsFlat: Ω embeds no member under another
// member's max/min update guard. Such a guard reads only its own member's
// accumulator, so embedding would duplicate the rest of the group into both
// branches and buy no simplification; at every merge-tree level above the
// leaves it would duplicate a whole subtree.
func TestMergeAggsKeepsUpdateGuardsFlat(t *testing.T) {
	_, groups := mustMerge(t, weatherAggsSrc)
	g := groups[0]
	isAcc := map[string]bool{}
	for _, d := range g.Accs {
		isAcc[d.Name] = true
	}
	var walk func(s lang.Stmt)
	walk = func(s lang.Stmt) {
		switch x := s.(type) {
		case lang.Seq:
			walk(x.L)
			walk(x.R)
		case lang.Cond:
			if readsAcc(x.Test, isAcc) && len(lang.Flatten(x.Then))+len(lang.Flatten(x.Else)) > 1 {
				t.Fatalf("update guard carries other members' statements:\n%s", lang.FormatStmt(x))
			}
			walk(x.Then)
			walk(x.Else)
		}
	}
	walk(g.Fold.Body)
}
