// Package invariant infers inductive loop invariants for the loop
// consolidation rules (Figure 7). The paper's LoopInv(while e do S, Ψ) is
// realised Houdini-style: a finite family of candidate linear facts is
// filtered to those that hold on loop entry under Ψ and are preserved by
// one execution of the body; the conjunction of the survivors is inductive.
//
// The candidate family — variable differences x - y = c for small c,
// orderings x ≤ y and x < y, and variable/constant bounds — covers the
// synchronisation facts loop fusion needs in practice (e.g. j = i - 1 in
// the paper's Example 6). It is not cheap: on loop families inference is
// most of consolidation time — in Houdini's post-body checks on fused Q3
// loops, and in the loop-entry filter on call-heavy mixes, whose loop
// heads carry many facts the symbolic entry evaluation cannot decide —
// and a check that refutes a candidate costs several times one that
// entails it. So both check phases reuse their refutations: the entry
// filter checks every candidate against Ψ at the loop head and each
// Houdini round against its post-body hypothesis, and within the filter
// or a round the assignment a refuting check ended on drops every later
// candidate that it falsifies, without a query and without changing the
// result.
package invariant

import (
	"fmt"
	"maps"
	"sort"

	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/sym"
)

// Candidate generation bounds, tuned for the paper's workloads (loops over
// months, days, word indices).
const (
	// maxVars bounds the number of variables considered for pairwise
	// candidates; the guard variables are preferred.
	maxVars = 8
	// diffRange generates x - y = c candidates for |c| ≤ diffRange.
	diffRange = 3
)

// Infer returns boolean expressions over program variables that hold on
// entry to `while (guard) { body }` under ctx and are preserved by the
// body. The conjunction of the result is an inductive invariant. ctx is
// not modified.
func Infer(ctx *sym.Context, guard lang.BoolExpr, body lang.Stmt) []lang.BoolExpr {
	stable, unstable := entryCandidates(ctx, guard, body, (&refuter{ctx: ctx}).entails)

	// Houdini: drop candidates not preserved by the body until fixpoint.
	// Every round but the last drops one at least, so there are at most
	// len(unstable)+1 rounds. One shared post-body context per round
	// suffices — the hypothesis (all live candidates plus the guard) is the
	// same for every candidate, so one refuter checks the whole round.
	for len(unstable) > 0 {
		r := &refuter{ctx: postContext(ctx, guard, body, stable, unstable)}
		var keep []lang.BoolExpr
		for _, cand := range unstable {
			if r.entails(cand) {
				keep = append(keep, cand)
			}
		}
		if len(keep) == len(unstable) {
			break
		}
		unstable = keep
	}
	return append(stable, unstable...)
}

// refuter checks candidates against one hypothesis, reusing refutations.
// Every check has the same hypothesis, so the assignment a refuting check
// ended on is a state that satisfies it: a later candidate the assignment
// falsifies (Refutes checks it against that candidate's cone) is not
// entailed either, and is dropped without a query. The verdicts are those
// of one solver check per candidate; only the queries issued shrink. The
// pool holds only literal-path assignments, which the SMT cache stores
// with their verdicts, so what is pruned depends on the queries alone:
// it is the same on any number of workers and on a warm cache.
type refuter struct {
	ctx  *sym.Context
	cexs []*logic.Model
}

// entails reports whether the hypothesis entails cand.
func (r *refuter) entails(cand lang.BoolExpr) bool {
	if r.ctx.Refutes(cand, r.cexs) {
		return false
	}
	ok, m := r.ctx.EntailsModel(cand)
	if !ok && m != nil {
		r.cexs = append(r.cexs, m)
	}
	return ok
}

// entryCandidates returns the candidates that hold at loop entry, split
// into those the body preserves by construction (stable) and those Houdini
// must check (unstable). check decides entry validity under ctx for the
// candidates entryEval leaves open.
func entryCandidates(ctx *sym.Context, guard lang.BoolExpr, body lang.Stmt, check func(lang.BoolExpr) bool) (stable, unstable []lang.BoolExpr) {
	guardVars := lang.UsedVars(guard)
	vars := relevantVars(ctx, guardVars, body, maxVars)
	cands := candidates(ctx, vars, guardVars, mineConsts(guard))
	entry := make(map[string]logic.Term, len(vars))
	for _, v := range vars {
		entry[v], _ = entryVar(ctx, v)
	}

	// Keep candidates valid at entry. Most candidates are decided without
	// the solver: when the operands' definitions reduce to comparable
	// linear forms, entry validity is evaluated symbolically.
	var live []lang.BoolExpr
	for _, cand := range cands {
		switch entryEval(entry, cand) {
		case evalTrue:
			live = append(live, cand)
		case evalFalse:
		default:
			if check(cand) {
				live = append(live, cand)
			}
		}
	}

	// Split candidates into those preserved by construction — decided from
	// the body's constant per-variable deltas (i := i + 1 and friends) —
	// and those needing solver-backed Houdini filtering. Counter
	// synchronisation facts, the ones loop fusion depends on, land almost
	// entirely in the first class.
	deltas := bodyDeltas(body)
	for _, cand := range live {
		if preservedByDeltas(cand, deltas) {
			stable = append(stable, cand)
		} else {
			unstable = append(unstable, cand)
		}
	}
	return stable, unstable
}

// postContext is Houdini's hypothesis for one round: the candidates and the
// guard assumed at the loop head, then the body applied.
func postContext(ctx *sym.Context, guard lang.BoolExpr, body lang.Stmt, stable, unstable []lang.BoolExpr) *sym.Context {
	post := sym.NewContext(ctx.Solver())
	if sc := ctx.SolvingContext(); sc != nil {
		post.UseSolvingContext(sc)
	}
	for _, f := range stable {
		post.AssumeBool(f)
	}
	for _, f := range unstable {
		post.AssumeBool(f)
	}
	post.AssumeBool(guard)
	post.ApplyStmt(body)
	return post
}

// delta describes a variable's net change across one body execution.
type delta struct {
	known bool
	d     int64
}

// bodyDeltas computes, per variable, the body's net constant increment
// when every assignment to the variable is an unconditional v := v + c (or
// v := v - c); anything else — conditional updates, non-self right-hand
// sides — marks the variable unknown.
func bodyDeltas(body lang.Stmt) map[string]delta {
	out := map[string]delta{}
	for _, s := range lang.Flatten(body) {
		switch t := s.(type) {
		case lang.Assign:
			if d, seen := out[t.Var]; seen && !d.known {
				continue // already unknown
			}
			if inc, isInc := selfIncrement(t.Var, t.E); isInc {
				out[t.Var] = delta{known: true, d: out[t.Var].d + inc}
			} else {
				out[t.Var] = delta{known: false}
			}
		default:
			for v := range lang.AssignedVars(s) {
				out[v] = delta{known: false}
			}
		}
	}
	return out
}

// selfIncrement recognises v + c, c + v, and v - c.
func selfIncrement(v string, e lang.IntExpr) (int64, bool) {
	b, ok := e.(lang.BinInt)
	if !ok {
		return 0, false
	}
	switch b.Op {
	case lang.Add:
		if l, ok := b.L.(lang.Var); ok && l.Name == v {
			if c, ok := b.R.(lang.IntConst); ok {
				return c.Value, true
			}
		}
		if r, ok := b.R.(lang.Var); ok && r.Name == v {
			if c, ok := b.L.(lang.IntConst); ok {
				return c.Value, true
			}
		}
	case lang.Sub:
		if l, ok := b.L.(lang.Var); ok && l.Name == v {
			if c, ok := b.R.(lang.IntConst); ok {
				return -c.Value, true
			}
		}
	}
	return 0, false
}

// preservedByDeltas decides preservation from constant deltas alone:
// x - y = c survives equal deltas, x ≤ y survives dx ≤ dy, c ≤ x survives
// dx ≥ 0, x ≤ c survives dx ≤ 0; candidates over unmodified variables
// always survive. A false answer only means "ask the solver".
func preservedByDeltas(cand lang.BoolExpr, deltas map[string]delta) bool {
	cmp, ok := cand.(lang.Cmp)
	if !ok {
		return false
	}
	var dOf func(e lang.IntExpr) (int64, bool)
	dOf = func(e lang.IntExpr) (int64, bool) {
		switch t := e.(type) {
		case lang.IntConst:
			return 0, true
		case lang.Var:
			d, modified := deltas[t.Name]
			if !modified {
				return 0, true
			}
			return d.d, d.known
		case lang.BinInt:
			l, okl := dOf(t.L)
			r, okr := dOf(t.R)
			if !okl || !okr {
				return 0, false
			}
			switch t.Op {
			case lang.Add:
				return l + r, true
			case lang.Sub:
				return l - r, true
			case lang.Mul:
				if l == 0 && r == 0 {
					return 0, true
				}
			}
		}
		return 0, false
	}
	dl, okl := dOf(cmp.L)
	dr, okr := dOf(cmp.R)
	if !okl || !okr {
		return false
	}
	switch cmp.Op {
	case lang.Eq:
		return dl == dr
	case lang.Le, lang.Lt:
		return dl <= dr
	}
	return false
}

// relevantVars picks the variables to build candidates over: guard
// variables first, then body-assigned variables that have a recorded
// definition at loop entry. Variables first assigned inside the loop
// (temporaries) are excluded — no fact about them can hold at entry, so
// every candidate involving them is a wasted solver query.
func relevantVars(ctx *sym.Context, inGuard map[string]bool, body lang.Stmt, maxVars int) []string {
	assigned := lang.AssignedVars(body)
	var vs []string
	var rest []string
	seen := map[string]bool{}
	for v := range inGuard {
		vs = append(vs, v)
		seen[v] = true
	}
	sort.Strings(vs)
	for v := range assigned {
		if seen[v] {
			continue
		}
		if _, ok := ctx.CurDef(v); ok {
			rest = append(rest, v)
		}
	}
	sort.Strings(rest)
	vs = append(vs, rest...)
	if len(vs) > maxVars {
		vs = vs[:maxVars]
	}
	return vs
}

// mineConsts collects integer literals from the guard — the loop bounds —
// plus 0 and 1. Body constants are deliberately excluded: bound candidates
// against them almost never matter for fusion but flood the solver.
func mineConsts(guard lang.BoolExpr) []int64 {
	set := map[int64]bool{0: true, 1: true}
	lang.Inspect(guard, func(n lang.Node) bool {
		if c, ok := n.(lang.IntConst); ok {
			set[c.Value] = true
		}
		return true
	})
	out := make([]int64, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

func candidates(ctx *sym.Context, vars []string, guardVars map[string]bool, consts []int64) []lang.BoolExpr {
	var out []lang.BoolExpr
	v := func(s string) lang.IntExpr { return lang.Var{Name: s} }
	n := func(c int64) lang.IntExpr { return lang.IntConst{Value: c} }
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			x, y := vars[i], vars[j]
			// x - y = c: when both variables' definitions are linear over
			// the same base the entry difference is computed symbolically
			// and only that single candidate is generated; otherwise a
			// small range is probed.
			if c, ok := entryDiff(ctx, x, y); ok {
				if c >= -diffRange*4 && c <= diffRange*4 {
					out = append(out, lang.Cmp{Op: lang.Eq,
						L: lang.BinInt{Op: lang.Sub, L: v(x), R: v(y)}, R: n(c)})
				}
			} else {
				for c := int64(-diffRange); c <= diffRange; c++ {
					out = append(out, lang.Cmp{Op: lang.Eq,
						L: lang.BinInt{Op: lang.Sub, L: v(x), R: v(y)}, R: n(c)})
				}
			}
			// Orderings are generated only when a guard variable is
			// involved: they feed the Loop 2/3 exit reasoning, whereas
			// orderings between accumulators almost never pay for their
			// solver time.
			if guardVars[x] || guardVars[y] {
				out = append(out,
					lang.Cmp{Op: lang.Le, L: v(x), R: v(y)},
					lang.Cmp{Op: lang.Le, L: v(y), R: v(x)},
					lang.Cmp{Op: lang.Lt, L: v(x), R: v(y)},
					lang.Cmp{Op: lang.Lt, L: v(y), R: v(x)},
				)
			}
		}
		// Bounds against guard constants, for guard variables only: these
		// are what the Loop 2/3 exit checks need.
		if guardVars[vars[i]] {
			for _, c := range consts {
				out = append(out,
					lang.Cmp{Op: lang.Le, L: v(vars[i]), R: n(c)},
					lang.Cmp{Op: lang.Le, L: n(c), R: v(vars[i])},
				)
			}
		}
	}
	return out
}

// entryEval decides a candidate at loop entry symbolically when possible:
// both comparison operands, with each variable replaced by its entry term
// (entry maps every variable cand reads to its entryVar), must reduce to
// linear forms whose difference is constant. Definitions are equalities in
// Ψ, so a symbolic verdict coincides with entailment.
type entryVerdict int

const (
	evalUnknown entryVerdict = iota
	evalTrue
	evalFalse
)

func entryEval(entry map[string]logic.Term, cand lang.BoolExpr) entryVerdict {
	cmp, ok := cand.(lang.Cmp)
	if !ok {
		return evalUnknown
	}
	// d = L - R must be constant to decide. Calls stay applications, on
	// which linearForm fails.
	d, ok := constDiff(logic.FromIntExpr(cmp.L, entry), logic.FromIntExpr(cmp.R, entry))
	if !ok {
		return evalUnknown
	}
	var holds bool
	switch cmp.Op {
	case lang.Lt:
		holds = d < 0
	case lang.Eq:
		holds = d == 0
	case lang.Le:
		holds = d <= 0
	}
	if holds {
		return evalTrue
	}
	return evalFalse
}

// entryVar is x at loop entry: its current definition when it has one
// (reported by the second result), its current SSA name otherwise.
func entryVar(ctx *sym.Context, x string) (logic.Term, bool) {
	if def, ok := ctx.CurDef(x); ok {
		return def, true
	}
	return ctx.CurTerm(x), false
}

// entryDiff computes x - y at loop entry symbolically from the recorded
// definitions, when both reduce to linear terms over the same variables.
func entryDiff(ctx *sym.Context, x, y string) (int64, bool) {
	tx, okx := entryVar(ctx, x)
	ty, oky := entryVar(ctx, y)
	if !okx && !oky {
		return 0, false
	}
	return constDiff(tx, ty)
}

// constDiff returns a - b when the linear forms of a and b differ by a
// constant.
func constDiff(a, b logic.Term) (int64, bool) {
	fa, oka := linearForm(a)
	fb, okb := linearForm(b)
	if !oka || !okb || !maps.Equal(fa.coef, fb.coef) {
		return 0, false
	}
	return fa.c - fb.c, true
}

type linForm struct {
	coef map[string]int64
	c    int64
}

// linearForm flattens a term into Σ coef·var + c; apps and nonlinear
// products fail.
func linearForm(t logic.Term) (linForm, bool) {
	switch x := t.(type) {
	case logic.TConst:
		return linForm{coef: map[string]int64{}, c: x.Value}, true
	case logic.TVar:
		return linForm{coef: map[string]int64{x.Name: 1}}, true
	case logic.TBin:
		l, okl := linearForm(x.L)
		r, okr := linearForm(x.R)
		if !okl || !okr {
			return linForm{}, false
		}
		switch x.Op {
		case logic.Add, logic.Sub:
			sign := int64(1)
			if x.Op == logic.Sub {
				sign = -1
			}
			out := linForm{coef: map[string]int64{}, c: l.c + sign*r.c}
			for k, v := range l.coef {
				out.coef[k] += v
			}
			for k, v := range r.coef {
				out.coef[k] += sign * v
				if out.coef[k] == 0 {
					delete(out.coef, k)
				}
			}
			return out, true
		case logic.Mul:
			if len(l.coef) == 0 {
				out := linForm{coef: map[string]int64{}, c: l.c * r.c}
				for k, v := range r.coef {
					if l.c*v != 0 {
						out.coef[k] = l.c * v
					}
				}
				return out, true
			}
			if len(r.coef) == 0 {
				return linearForm(logic.TBin{Op: logic.Mul, L: x.R, R: x.L})
			}
		}
	}
	return linForm{}, false
}

// String renders an invariant set for diagnostics.
func String(inv []lang.BoolExpr) string {
	if len(inv) == 0 {
		return "true"
	}
	s := ""
	for i, f := range inv {
		if i > 0 {
			s += " ∧ "
		}
		s += fmt.Sprint(f)
	}
	return s
}
