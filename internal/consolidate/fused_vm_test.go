package consolidate_test

import (
	"slices"
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
)

// mergeFamily consolidates n generated queries of one family.
func mergeFamily(t *testing.T, domain, family string, n int, lib lang.FuncCoster) *lang.Program {
	t.Helper()
	progs, err := queries.Gen(domain, family, n, 20140609)
	if err != nil {
		t.Fatal(err)
	}
	opts := consolidate.DefaultOptions()
	opts.FuncCoster = lib
	merged, _, err := consolidate.All(progs, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// fusedLoopBody returns the body of merged's largest loop and its top-level
// statement count.
func fusedLoopBody(merged *lang.Program) (lang.Stmt, int) {
	var body lang.Stmt
	size := 0
	for _, st := range lang.Flatten(merged.Body) {
		if w, ok := st.(lang.While); ok && len(lang.Flatten(w.Body)) > size {
			body, size = w.Body, len(lang.Flatten(w.Body))
		}
	}
	return body, size
}

// boundProgram wraps s in a program whose parameters are merged's and
// every variable s reads, so each read is bound at entry, as the loop's
// variables are on entry to the loop in merged.
func boundProgram(merged *lang.Program, s lang.Stmt) *lang.Program {
	params := slices.Clone(merged.Params)
	for v := range lang.UsedVars(s) {
		if !slices.Contains(params, v) {
			params = append(params, v)
		}
	}
	slices.Sort(params[len(merged.Params):])
	return &lang.Program{Name: "body", Params: params, Body: s}
}

// diffMergedOnVM diffs the VM against the interpreter on merged over every
// record of ds, under the default and a prime cost model: notes, total
// cost, per-notification stamps and errors.
func diffMergedOnVM(t *testing.T, merged *lang.Program, ds engine.RecordLibrary) {
	t.Helper()
	comp := lang.MustCompile(merged)
	for _, cm := range []*lang.CostModel{lang.DefaultCostModel(), {
		IntConst: 2, BoolConst: 3, Var: 5, Arith: 7, Cmp: 11,
		Neg: 13, BoolOp: 17, Assign: 19, Notify: 23, Branch: 29, CallBase: 31,
	}} {
		rn := lang.NewRunner(comp, ds, lang.WithCostModel(cm))
		in := lang.NewInterp(ds)
		in.CM = cm
		for i := 0; i < ds.NumRecords(); i++ {
			ds.SetRecord(i)
			want, err1 := in.Run(merged, []int64{int64(i)})
			notes, stamps, cost, err2 := rn.Run([]int64{int64(i)})
			if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
				t.Fatalf("%s record %d: errors %v vs %v", merged.Name, i, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !want.Notes.Equal(notes) || want.Cost != cost {
				t.Fatalf("%s record %d: interpreter %v/%d, VM %v/%d", merged.Name, i, want.Notes, want.Cost, notes, cost)
			}
			for id, c := range want.NoteCosts {
				if stamps[id] != c {
					t.Fatalf("%s record %d: stamp of %d: interpreter %d, VM %d", merged.Name, i, id, c, stamps[id])
				}
			}
		}
	}
}

// TestMergedNewsLoopRunsOnVM consolidates eight news Q3 (maximum word
// length) queries, whose loops Ω fuses into one loop of max-accumulator
// updates, and diffs the VM against the interpreter on the merged program
// over generated articles. It also pins how the fused loop body lowers, so
// a lowering regression shows up as a count.
func TestMergedNewsLoopRunsOnVM(t *testing.T) {
	news := data.GenNews(data.NewsConfig{Articles: 40, VocabSize: 500, Seed: 5})
	merged := mergeFamily(t, "news", "Q3", 8, news)
	body, size := fusedLoopBody(merged)
	moves := 0
	for _, b := range lang.Flatten(body) {
		if _, ok := b.(lang.Cond); ok {
			moves++
		}
	}
	if moves < 2 {
		t.Fatalf("no fused max-accumulator loop in the merged program:\n%s", lang.Format(merged))
	}
	// Unfused, every move is a test-and-branch, a load, a store and a jump.
	// Fused, the body is the shared wordLen call, the increment, and one
	// instruction per run of moves the increment leaves on either side.
	bodyProg := boundProgram(merged, body)
	if got, want := lang.MustCompile(bodyProg).Len(), 4; got != want || size != moves+2 {
		t.Errorf("fused loop body (%d moves) lowers to %d instructions, want %d:\n%s",
			moves, got, want, lang.Format(bodyProg))
	}
	diffMergedOnVM(t, merged, news)
}

// TestMergedSumLoopsRunOnVM consolidates stock Q3 (4 UDFs, each summing c
// and c·c over the days) and weather Q3 (6 UDFs, each summing a year of
// temperatures), whose loops Ω fuses into one loop of per-query sum
// updates, and diffs the VM against the interpreter on each merged program
// over generated records. It pins the fused body's lowering: every
// `s := s + t` and `q := q + c*c` update is one instruction (vAddSS,
// vMAddSS).
func TestMergedSumLoopsRunOnVM(t *testing.T) {
	cases := []struct {
		domain string
		n      int
		ds     engine.RecordLibrary
		// sums is the number of sum updates in the fused body, and insts
		// the instructions the body lowers to.
		sums, insts int
	}{
		// closeAt, 4·(s + c), 4·(q + c·c), the increment.
		{"stock", 4, data.GenStock(data.StockConfig{Companies: 8, Days: 90, Seed: 5}), 8, 10},
		// Two tempOfMonth calls (the second's argument m + 12 takes the
		// generic path: 5), 6·(s + t) and two increments.
		{"weather", 6, data.GenWeather(data.WeatherConfig{Cities: 40, Months: 24, Seed: 5}), 6, 14},
	}
	for _, tc := range cases {
		merged := mergeFamily(t, tc.domain, "Q3", tc.n, tc.ds)
		body, _ := fusedLoopBody(merged)
		var sums []lang.Stmt
		for _, st := range lang.Flatten(body) {
			if a, ok := st.(lang.Assign); ok {
				if e, ok := a.E.(lang.BinInt); ok && e.Op == lang.Add && !isConst(e.R) {
					sums = append(sums, st)
				}
			}
		}
		sumProg := boundProgram(merged, lang.SeqOf(sums...))
		if got := lang.MustCompile(sumProg).Len(); len(sums) != tc.sums || got != tc.sums {
			t.Errorf("%s: %d sum updates lower to %d instructions, want %d and %d:\n%s",
				tc.domain, len(sums), got, tc.sums, tc.sums, lang.Format(sumProg))
		}
		bodyProg := boundProgram(merged, body)
		if got := lang.MustCompile(bodyProg).Len(); got != tc.insts {
			t.Errorf("%s: fused loop body lowers to %d instructions, want %d:\n%s",
				tc.domain, got, tc.insts, lang.Format(bodyProg))
		}
		diffMergedOnVM(t, merged, tc.ds)
	}
}

func isConst(e lang.IntExpr) bool {
	_, ok := e.(lang.IntConst)
	return ok
}
