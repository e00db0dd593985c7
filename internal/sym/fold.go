package sym

import (
	"consolidation/internal/lang"
)

// This file provides bounded symbolic path enumeration over loop-free
// statements. The aggregation calculus uses it to verify homomorphism laws
// of fold bodies: every control-flow path of a fold is summarised as the
// branch conditions taken (expressed over the initial state) together with
// the final symbolic value of each assigned variable, and the laws are
// discharged per path by the SMT solver.

// PathSummary is one control-flow path through a loop-free statement.
type PathSummary struct {
	// Conds are the branch conditions taken along the path, substituted to
	// the initial state (a reference to x means x's value at entry).
	Conds []lang.BoolExpr
	// Final maps each variable assigned on the path to its final symbolic
	// value over the initial state. Variables not in the map are unchanged.
	Final map[string]lang.IntExpr
}

// FinalValue returns the symbolic final value of x: its path value if
// assigned, else x itself.
func (p *PathSummary) FinalValue(x string) lang.IntExpr {
	if e, ok := p.Final[x]; ok {
		return e
	}
	return lang.Var{Name: x}
}

// Summarize enumerates the control-flow paths of s, up to max paths.
// It reports ok=false — no summaries — when s contains a loop or a
// notification, or when the path count would exceed max: callers treat
// that as "shape too complex to verify" and fall back.
func Summarize(s lang.Stmt, max int) ([]PathSummary, bool) {
	paths := []PathSummary{{Final: map[string]lang.IntExpr{}}}
	var walk func(s lang.Stmt) bool
	walk = func(s lang.Stmt) bool {
		switch t := s.(type) {
		case lang.Skip:
			return true
		case lang.Seq:
			return walk(t.L) && walk(t.R)
		case lang.Assign:
			for i := range paths {
				paths[i].Final[t.Var] = Subst(t.E, paths[i].Final)
			}
			return true
		case lang.Cond:
			if len(paths)*2 > max {
				return false
			}
			// Fork: each pending path continues through both branches. The
			// branches are walked on separate path sets and re-joined.
			saved := paths
			thenPaths := clonePaths(saved)
			paths = thenPaths
			for i := range paths {
				paths[i].Conds = append(paths[i].Conds, Subst(t.Test, paths[i].Final))
			}
			if !walk(t.Then) {
				return false
			}
			thenPaths = paths
			elsePaths := clonePaths(saved)
			paths = elsePaths
			for i := range paths {
				paths[i].Conds = append(paths[i].Conds, lang.Not{E: Subst(t.Test, paths[i].Final)})
			}
			if !walk(t.Else) {
				return false
			}
			paths = append(thenPaths, paths...)
			return len(paths) <= max
		default:
			// While loops have unbounded paths; notifications do not occur
			// in fold bodies. Either way: not summarisable.
			return false
		}
	}
	if !walk(s) {
		return nil, false
	}
	return paths, true
}

func clonePaths(in []PathSummary) []PathSummary {
	out := make([]PathSummary, len(in))
	for i, p := range in {
		conds := make([]lang.BoolExpr, len(p.Conds))
		copy(conds, p.Conds)
		final := make(map[string]lang.IntExpr, len(p.Final))
		for k, v := range p.Final {
			final[k] = v
		}
		out[i] = PathSummary{Conds: conds, Final: final}
	}
	return out
}

// Subst substitutes sub's bindings for variable reads in e. A substituted
// expression is not rescanned.
func Subst[T lang.Node](e T, sub map[string]lang.IntExpr) T {
	return lang.Rewrite(e, func(n lang.Node) (lang.Node, bool) {
		if v, ok := n.(lang.Var); ok {
			if r, ok := sub[v.Name]; ok {
				return r, false
			}
		}
		return n, true
	})
}
