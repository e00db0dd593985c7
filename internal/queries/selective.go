package queries

import (
	"math/rand"

	"consolidation/internal/lang"
)

// Selective gates every program on a cheap admission clause, turning a
// query family into a low-selectivity workload: each program binds one
// extra local to call(r) — a cheap record field such as twitter's
// followerCount — and every `notify id true` site fires only when that
// local clears a threshold drawn from the dataset's quantile function.
//
// selectivity is the target fraction of records admitted (0.01 = 1%);
// per-query thresholds are jittered by ±25% around it so the programs
// do not all share one literal constant (the pre-filter synthesizer
// must discover the covering interval, not a single repeated atom). The
// transform is what makes predicate pushdown observable end to end: the
// admission clause is the only cheap-fragment conjunct on every
// notification path, so internal/prefilter projects it into a guard and
// the engine skips full record decodes for the ~1-selectivity share of
// the stream that fails it.
//
// quant maps a probability p to the value at that quantile of the gating
// field (so the threshold for selectivity s is quant(1-s)). Programs are
// not mutated; gated copies are returned.
func Selective(progs []*lang.Program, call string, quant func(p float64) int64, selectivity float64, seed int64) []*lang.Program {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*lang.Program, len(progs))
	for i, p := range progs {
		s := selectivity * (0.75 + 0.5*rng.Float64())
		if s <= 0 {
			s = selectivity
		}
		if s > 1 {
			s = 1
		}
		thr := quant(1 - s)
		gv := freshVar(p)
		guard := lang.Cmp{Op: lang.Le, L: lang.IntConst{Value: thr}, R: lang.Var{Name: gv}}
		q := *p
		q.Body = lang.SeqOf(
			lang.Assign{Var: gv, E: lang.Call{Func: call, Args: []lang.IntExpr{lang.Var{Name: p.Params[0]}}}},
			gateNotifies(p.Body, guard),
		)
		out[i] = &q
	}
	return out
}

// freshVar picks a local name the program neither assigns nor takes as a
// parameter.
func freshVar(p *lang.Program) string {
	used := lang.AssignedVars(p.Body)
	for _, prm := range p.Params {
		used[prm] = true
	}
	for _, cand := range []string{"gate", "gate0", "gate1", "gate2"} {
		if !used[cand] {
			return cand
		}
	}
	return "gate_x" // programs never generate underscored locals
}

// gateNotifies rewrites every `notify id true` site into a conditional on
// the guard, so the site still notifies its id exactly once but only
// fires true when the guard holds. `notify id false` sites are untouched.
func gateNotifies(s lang.Stmt, guard lang.BoolExpr) lang.Stmt {
	return lang.Rewrite(s, func(n lang.Node) (lang.Node, bool) {
		switch t := n.(type) {
		case lang.Seq, lang.Cond, lang.While:
			return n, true
		case lang.Notify:
			if t.Value {
				return lang.Cond{Test: guard, Then: t, Else: lang.Notify{ID: t.ID, Value: false}}, false
			}
		}
		return n, false
	})
}
