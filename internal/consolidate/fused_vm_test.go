package consolidate_test

import (
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
)

// TestMergedNewsLoopRunsOnVM consolidates eight news Q3 (maximum word
// length) queries, whose loops Ω fuses into one loop of max-accumulator
// updates, and diffs the VM against the interpreter on the merged program
// over generated articles: notes, total cost, per-notification stamps and
// errors, under the default and a prime cost model. It also pins how the
// fused loop body lowers, so a lowering regression shows up as a count.
func TestMergedNewsLoopRunsOnVM(t *testing.T) {
	progs, err := queries.Gen("news", "Q3", 8, 20140609)
	if err != nil {
		t.Fatal(err)
	}
	news := data.GenNews(data.NewsConfig{Articles: 40, VocabSize: 500, Seed: 5})
	opts := consolidate.DefaultOptions()
	opts.FuncCoster = news
	merged, _, err := consolidate.All(progs, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}

	// The body of the fused loop with the most guarded moves.
	var body lang.Stmt
	moves := 0
	for _, st := range lang.Flatten(merged.Body) {
		w, ok := st.(lang.While)
		if !ok {
			continue
		}
		n := 0
		for _, b := range lang.Flatten(w.Body) {
			if _, ok := b.(lang.Cond); ok {
				n++
			}
		}
		if n > moves {
			body, moves = w.Body, n
		}
	}
	if moves < 2 {
		t.Fatalf("no fused max-accumulator loop in the merged program:\n%s", lang.Format(merged))
	}
	// Unfused, every move is a test-and-branch, a load, a store and a jump.
	// Fused, the body is the shared wordLen call, the increment, and one
	// instruction per run of moves the increment leaves on either side.
	bodyProg := &lang.Program{Name: "body", Params: merged.Params, Body: body}
	if got, want := lang.MustCompile(bodyProg).Len(), 4; got != want || len(lang.Flatten(body)) != moves+2 {
		t.Errorf("fused loop body (%d moves) lowers to %d instructions, want %d:\n%s",
			moves, got, want, lang.Format(bodyProg))
	}

	comp := lang.MustCompile(merged)
	for _, cm := range []*lang.CostModel{lang.DefaultCostModel(), {
		IntConst: 2, BoolConst: 3, Var: 5, Arith: 7, Cmp: 11,
		Neg: 13, BoolOp: 17, Assign: 19, Notify: 23, Branch: 29, CallBase: 31,
	}} {
		rn := lang.NewRunner(comp, news, lang.WithCostModel(cm))
		in := lang.NewInterp(news)
		in.CM = cm
		for i := 0; i < news.NumRecords(); i++ {
			news.SetRecord(i)
			want, err1 := in.Run(merged, []int64{int64(i)})
			notes, stamps, cost, err2 := rn.Run([]int64{int64(i)})
			if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
				t.Fatalf("record %d: errors %v vs %v", i, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !want.Notes.Equal(notes) || want.Cost != cost {
				t.Fatalf("record %d: interpreter %v/%d, VM %v/%d", i, want.Notes, want.Cost, notes, cost)
			}
			for id, c := range want.NoteCosts {
				if stamps[id] != c {
					t.Fatalf("record %d: stamp of %d: interpreter %d, VM %d", i, id, c, stamps[id])
				}
			}
		}
	}
}
