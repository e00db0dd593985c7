package sym

import (
	"consolidation/internal/lang"
	"consolidation/internal/logic"
)

// NotifyCond pairs one reachable `notify id true` site with the path
// condition under which it executes: the strongest postcondition Ψ of the
// statements leading to the site, as a conjunct list over SSA-versioned
// variables (branch assumptions plus the defining equalities of
// AssumeAssign).
//
// The condition over-approximates reachability: control flow the walk joins
// over (code after a conditional, loop bodies) is handled by havocking the
// assigned variables, so every concrete execution that reaches the site
// satisfies the recorded condition, but not necessarily vice versa. That
// direction is exactly what admission-guard synthesis needs — a guard
// implied by the disjunction of these conditions is implied by every real
// notification.
type NotifyCond struct {
	ID        int
	Conjuncts []logic.Formula
}

// CollectNotifyTrue walks p and returns the path condition of every
// `notify id true` site. The walk runs each branch and loop body in a
// scope of one context, undone when the branch ends (linear in program
// size: the continuation resumes on the havoc-joined parent), and bounds
// the number of scopes it opens, plus the root, by maxCtxs. complete is
// false when the bound was hit, in which case the returned conditions may
// omit sites and MUST NOT be used as a necessary condition for
// notification.
func CollectNotifyTrue(p *lang.Program, maxCtxs int) (conds []NotifyCond, complete bool) {
	c := &collector{max: maxCtxs, ctxs: 1}
	c.walk(p.Body, NewContext(nil))
	return c.conds, !c.overflow
}

type collector struct {
	conds    []NotifyCond
	ctxs     int
	max      int
	overflow bool
}

// scope walks s in a scope of ctx opened by prep, then undoes it.
func (c *collector) scope(ctx *Context, s lang.Stmt, prep func()) {
	c.ctxs++
	if c.max > 0 && c.ctxs > c.max {
		c.overflow = true
	}
	m := ctx.Mark()
	prep()
	c.walk(s, ctx)
	ctx.Undo(m)
}

func (c *collector) walk(s lang.Stmt, ctx *Context) {
	if c.overflow {
		return
	}
	switch t := s.(type) {
	case lang.Skip:
	case lang.Assign:
		ctx.AssumeAssign(t.Var, t.E)
	case lang.Seq:
		c.walk(t.L, ctx)
		c.walk(t.R, ctx)
	case lang.Notify:
		if t.Value {
			c.conds = append(c.conds, NotifyCond{ID: t.ID, Conjuncts: ctx.Conjuncts()})
		}
	case lang.Cond:
		c.scope(ctx, t.Then, func() { ctx.AssumeBool(t.Test) })
		c.scope(ctx, t.Else, func() { ctx.AssumeBool(lang.Not{E: t.Test}) })
		// The continuation joins over both branches: havoc what they assign.
		ctx.ApplyStmt(s)
	case lang.While:
		// Notifies inside the body run in some iteration: at that point the
		// loop-carried variables hold unknown values and the guard held.
		c.scope(ctx, t.Body, func() {
			ctx.HavocSet(lang.AssignedVars(t.Body))
			ctx.AssumeBool(t.Test)
		})
		// The continuation sees havocked loop variables and the negated
		// guard (big-step: code after a diverging loop never runs).
		ctx.ApplyStmt(s)
	}
}
