package prefilter

import (
	"math"

	"consolidation/internal/lang"
	"consolidation/internal/logic"
)

// pickCandidate generates syntactic weakenings of g0, verifies each against
// the SMT layer (g0 ⇒ candidate; a candidate the solver cannot confirm is
// discarded), and returns the cheapest verified formula under the Figure 2
// cost model. g0 itself needs no verification.
func pickCandidate(g0 logic.Formula, opts *Options) (best logic.Formula, candidates, verified int) {
	best = g0
	bestCost := formulaCost(g0, opts)
	candidates = 1

	single := singleLiteral(g0)
	cands := []logic.Formula{
		intervalMerge(g0),
		single,
		intervalMerge(single),
	}
	in := logic.NewInterner()
	seen := map[logic.NodeID]bool{in.InternFormula(g0): true}
	for _, c := range cands {
		id := in.InternFormula(c)
		if seen[id] {
			continue
		}
		seen[id] = true
		candidates++
		cost := formulaCost(c, opts)
		if cost >= bestCost {
			continue
		}
		if !opts.Solver.Entails(g0, c) {
			continue
		}
		verified++
		best, bestCost = c, cost
	}
	return best, candidates, verified
}

func formulaCost(f logic.Formula, opts *Options) int64 {
	e, ok := toBoolExpr(f)
	if !ok {
		return math.MaxInt64
	}
	return costModel.StaticBoolCost(e, opts.Coster)
}

func disjunctsOf(f logic.Formula) []logic.Formula {
	switch x := f.(type) {
	case logic.FOr:
		return x.Fs
	case logic.FFalse:
		return nil
	}
	return []logic.Formula{f}
}

// bounds accumulates, per compared term, the union of threshold atoms seen
// as disjuncts: lower bounds (lb ≤ t), upper bounds (t ≤ ub) and equality
// points, normalized to closed integer bounds.
type bounds struct {
	term       logic.Term
	lb, ub     int64
	hasLB      bool
	hasUB      bool
	points     []int64
	firstOrder int
}

// intervalMerge collapses single-atom threshold disjuncts over the same
// term into their weakest covering bound: {c₁ ≤ t, c₂ ≤ t, …} becomes
// min(cᵢ) ≤ t, dually for upper bounds, and ≥3 equality points become the
// covering interval. The result is a superset of the union (a weakening),
// which pickCandidate re-verifies against the solver anyway.
func intervalMerge(f logic.Formula) logic.Formula {
	ds := disjunctsOf(f)
	groups := map[string]*bounds{}
	var order []string
	var rest []logic.Formula
	for _, d := range ds {
		a, ok := d.(logic.FAtom)
		if !ok {
			rest = append(rest, d)
			continue
		}
		cL, lConst := a.L.(logic.TConst)
		cR, rConst := a.R.(logic.TConst)
		var term logic.Term
		var lb, ub int64
		var hasLB, hasUB bool
		var pt *int64
		switch {
		case lConst && !rConst:
			// c PRED t
			term = a.R
			switch a.Pred {
			case logic.Lt:
				if cL.Value == math.MaxInt64 {
					rest = append(rest, d)
					continue
				}
				lb, hasLB = cL.Value+1, true
			case logic.Le:
				lb, hasLB = cL.Value, true
			case logic.Eq:
				v := cL.Value
				pt = &v
			}
		case rConst && !lConst:
			// t PRED c
			term = a.L
			switch a.Pred {
			case logic.Lt:
				if cR.Value == math.MinInt64 {
					rest = append(rest, d)
					continue
				}
				ub, hasUB = cR.Value-1, true
			case logic.Le:
				ub, hasUB = cR.Value, true
			case logic.Eq:
				v := cR.Value
				pt = &v
			}
		default:
			rest = append(rest, d)
			continue
		}
		k := term.String()
		g := groups[k]
		if g == nil {
			g = &bounds{term: term, firstOrder: len(order)}
			groups[k] = g
			order = append(order, k)
		}
		switch {
		case hasLB:
			if !g.hasLB || lb < g.lb {
				g.lb, g.hasLB = lb, true
			}
		case hasUB:
			if !g.hasUB || ub > g.ub {
				g.ub, g.hasUB = ub, true
			}
		default:
			g.points = append(g.points, *pt)
		}
	}

	var out []logic.Formula
	for _, k := range order {
		g := groups[k]
		lb, hasLB, ub, hasUB := g.lb, g.hasLB, g.ub, g.hasUB
		if hasLB || hasUB {
			// Absorb points into the existing bounds.
			for _, p := range g.points {
				if hasLB && p < lb {
					lb = p
				}
				if hasUB && p > ub {
					ub = p
				}
			}
			if hasLB && hasUB && lb <= ub+1 {
				// (t ≥ lb) ∪ (t ≤ ub) covers every integer.
				return logic.FTrue{}
			}
			if hasLB {
				out = append(out, logic.FAtom{Pred: logic.Le, L: logic.TConst{Value: lb}, R: g.term})
			}
			if hasUB {
				out = append(out, logic.FAtom{Pred: logic.Le, L: g.term, R: logic.TConst{Value: ub}})
			}
			continue
		}
		// Points only: ≥3 collapse to the covering interval, fewer stay exact.
		if len(g.points) >= 3 {
			lo, hi := g.points[0], g.points[0]
			for _, p := range g.points[1:] {
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
			out = append(out, logic.And(
				logic.FAtom{Pred: logic.Le, L: logic.TConst{Value: lo}, R: g.term},
				logic.FAtom{Pred: logic.Le, L: g.term, R: logic.TConst{Value: hi}},
			))
			continue
		}
		for _, p := range g.points {
			out = append(out, logic.EqT(g.term, logic.TConst{Value: p}))
		}
	}
	out = append(out, rest...)
	return logic.Or(out...)
}

// singleLiteral weakens every conjunction disjunct to one of its literals —
// dropping conjuncts of a disjunct only widens it — choosing the literal
// whose compared term is shared by the most disjuncts (so interval merging
// can collapse them afterwards), breaking ties toward the cheapest.
func singleLiteral(f logic.Formula) logic.Formula {
	ds := disjunctsOf(f)
	freq := map[string]int{}
	for _, d := range ds {
		seen := map[string]bool{}
		for _, l := range literalsOf(d) {
			if k, ok := literalTermKey(l); ok && !seen[k] {
				seen[k] = true
				freq[k]++
			}
		}
	}
	out := make([]logic.Formula, len(ds))
	for i, d := range ds {
		lits := literalsOf(d)
		if len(lits) <= 1 {
			out[i] = d
			continue
		}
		bestLit := lits[0]
		bestScore := int64(math.MinInt64)
		for _, l := range lits {
			score := int64(-literalSize(l))
			if k, ok := literalTermKey(l); ok {
				score += int64(freq[k]) * 1000
			}
			if score > bestScore {
				bestScore, bestLit = score, l
			}
		}
		out[i] = bestLit
	}
	return logic.Or(out...)
}

// literalsOf returns a disjunct's top-level literals when it is a
// conjunction of literals; otherwise the disjunct itself as one unit.
func literalsOf(d logic.Formula) []logic.Formula {
	and, ok := d.(logic.FAnd)
	if !ok {
		return []logic.Formula{d}
	}
	for _, f := range and.Fs {
		switch x := f.(type) {
		case logic.FAtom:
		case logic.FNot:
			if _, ok := x.F.(logic.FAtom); !ok {
				return []logic.Formula{d}
			}
		default:
			return []logic.Formula{d}
		}
	}
	return and.Fs
}

// literalTermKey identifies the non-constant side of a threshold literal,
// the grouping key interval merging uses.
func literalTermKey(l logic.Formula) (string, bool) {
	a, ok := l.(logic.FAtom)
	if !ok {
		if n, isNot := l.(logic.FNot); isNot {
			a, ok = n.F.(logic.FAtom)
		}
		if !ok {
			return "", false
		}
	}
	_, lConst := a.L.(logic.TConst)
	_, rConst := a.R.(logic.TConst)
	switch {
	case lConst && !rConst:
		return a.R.String(), true
	case rConst && !lConst:
		return a.L.String(), true
	}
	return "", false
}

func literalSize(l logic.Formula) int {
	e, ok := toBoolExpr(l)
	if !ok {
		return math.MaxInt32
	}
	return lang.Size(e)
}
