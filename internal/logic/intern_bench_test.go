package logic

import "testing"

// internBenchFormula builds a consolidation-shaped conjunction: versioned
// variables constrained against library-call terms, the kind of Ψ ∧ ¬goal
// query the pair workers issue by the thousands.
func internBenchFormula(k int64) Formula {
	v := func(n string) Term { return TVar{Name: n} }
	call := func(fn string, args ...Term) Term {
		return TApp{Func: fn, Args: args}
	}
	return And(
		EqT(v("t%1"), call("tempOfMonth", v("r"), Num(k%12))),
		EqT(v("u%1"), TBin{Op: Add, L: v("t%1"), R: Num(1)}),
		Atom(Le, Num(k), v("t%1")),
		Atom(Lt, v("u%1"), Num(k+40)),
		Not(Atom(Eq, call("humidity", v("r")), v("u%1"))),
	)
}

// BenchmarkIntern measures the hash-consing arena on the paths the solver
// and contexts hit: first interning of a fresh structure, dedup re-intern
// of an already-present one (the overwhelmingly common case under query
// re-issue), and MkAnd composition over interned pieces.
func BenchmarkIntern(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := NewInterner()
			for k := int64(0); k < 8; k++ {
				in.InternFormula(internBenchFormula(k))
			}
		}
	})
	b.Run("dedup", func(b *testing.B) {
		in := NewInterner()
		fs := make([]Formula, 8)
		for k := range fs {
			fs[k] = internBenchFormula(int64(k))
			in.InternFormula(fs[k])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				in.InternFormula(f)
			}
		}
	})
	b.Run("mkand", func(b *testing.B) {
		in := NewInterner()
		ids := make([]NodeID, 0, 16)
		for k := int64(0); k < 16; k++ {
			ids = append(ids, in.InternFormula(Atom(Le, Num(k), TVar{Name: "x"})))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in.MkAnd(ids)
		}
	})
}
