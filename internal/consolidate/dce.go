package consolidate

import (
	"consolidation/internal/lang"
)

// EliminateDeadCode removes assignments to variables that are never read
// afterwards. Loop fusion routinely leaves such code behind: when
// while (e1 ∧ e2) collapses to while (e1), the counter of the second loop
// is still incremented every iteration but no longer read anywhere. The
// pass is an extension over the paper's calculus, and is trivially sound
// under Definition 1: library calls are side-effect free, so removing a
// dead assignment preserves all notifications and can only reduce cost.
//
// The analysis is a standard backward liveness fixpoint over the
// structured AST. Removing an assignment can make earlier assignments
// dead, so the pass iterates to a fixpoint.
func EliminateDeadCode(p *lang.Program) *lang.Program {
	return EliminateDeadCodeLive(p, nil)
}

// EliminateDeadCodeLive is EliminateDeadCode with an explicit live-out
// set. Fold programs of the aggregation calculus carry their results in
// accumulator variables rather than notifications, so dead-store
// elimination must treat the accumulators as live at exit or it would
// delete the entire fold.
func EliminateDeadCodeLive(p *lang.Program, liveOut map[string]bool) *lang.Program {
	body := p.Body
	for {
		next, _, changed := dce(body, cloneSet(liveOut))
		body = next
		if !changed {
			break
		}
	}
	return &lang.Program{Name: p.Name, Params: p.Params, Body: body}
}

// dce rewrites s given the variables live after it, returning the new
// statement, the variables live before it, and whether it removed code.
func dce(s lang.Stmt, liveOut map[string]bool) (lang.Stmt, map[string]bool, bool) {
	switch t := s.(type) {
	case lang.Skip, lang.Notify:
		return s, liveOut, false

	case lang.Assign:
		if !liveOut[t.Var] {
			// Dead store: the value is never read. Library calls are pure,
			// so the whole assignment disappears.
			return lang.Skip{}, liveOut, true
		}
		liveIn := cloneSet(liveOut)
		delete(liveIn, t.Var)
		lang.AddUsedVars(t.E, liveIn)
		return s, liveIn, false

	case lang.Seq:
		r, mid, ch2 := dce(t.R, liveOut)
		l, in, ch1 := dce(t.L, mid)
		return lang.SeqOf(l, r), in, ch1 || ch2

	case lang.Cond:
		th, inT, c1 := dce(t.Then, liveOut)
		el, inE, c2 := dce(t.Else, liveOut)
		in := unionSets(inT, inE)
		lang.AddUsedVars(t.Test, in)
		return lang.Cond{Test: t.Test, Then: th, Else: el}, in, c1 || c2

	case lang.While:
		// Fixpoint over the loop: a variable is live into the loop if it is
		// live after it, read by the guard, or read by the body under the
		// loop's own live set.
		live := cloneSet(liveOut)
		lang.AddUsedVars(t.Test, live)
		for {
			_, bodyIn, _ := dce(t.Body, live)
			merged := unionSets(live, bodyIn)
			lang.AddUsedVars(t.Test, merged)
			if equalSets(merged, live) {
				break
			}
			live = merged
		}
		body, _, changed := dce(t.Body, live)
		return lang.While{Test: t.Test, Body: body}, live, changed
	}
	return s, liveOut, false
}

func cloneSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func unionSets(a, b map[string]bool) map[string]bool {
	out := cloneSet(a)
	for k := range b {
		out[k] = true
	}
	return out
}

func equalSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// PropagateCopies rewrites reads of x to y wherever x := y is the reaching
// definition and y has not been reassigned in between, turning copy chains
// left behind by memoization (q2_t := q0_t) into direct references so that
// dead-store elimination can delete the copies. Replacing a variable read
// with another variable read has identical cost, so Definition 1 is
// unaffected; the payoff comes from the DCE pass that follows.
func PropagateCopies(p *lang.Program) *lang.Program {
	body, _ := copyProp(p.Body, map[string]string{})
	return &lang.Program{Name: p.Name, Params: p.Params, Body: body}
}

// copyProp rewrites s under the copy environment env (x → y meaning x
// currently holds y's value); it returns the rewritten statement. env is
// updated in place to the state after s.
func copyProp(s lang.Stmt, env map[string]string) (lang.Stmt, map[string]string) {
	switch t := s.(type) {
	case lang.Skip, lang.Notify:
		return s, env

	case lang.Assign:
		e := substituteCopies(t.E, env)
		invalidateCopies(env, t.Var)
		if v, ok := e.(lang.Var); ok && v.Name != t.Var {
			env[t.Var] = v.Name
		}
		return lang.Assign{Var: t.Var, E: e}, env

	case lang.Seq:
		l, env := copyProp(t.L, env)
		r, env := copyProp(t.R, env)
		return lang.SeqOf(l, r), env

	case lang.Cond:
		test := substituteCopies(t.Test, env)
		thenEnv := cloneCopies(env)
		th, _ := copyProp(t.Then, thenEnv)
		elseEnv := cloneCopies(env)
		el, _ := copyProp(t.Else, elseEnv)
		for v := range lang.AssignedVars(t) {
			invalidateCopies(env, v)
		}
		return lang.Cond{Test: test, Then: th, Else: el}, env

	case lang.While:
		// Bindings touching variables the body assigns are invalid across
		// iterations; drop them first, then rewrite with the survivors,
		// which hold throughout the loop.
		for v := range lang.AssignedVars(t.Body) {
			invalidateCopies(env, v)
		}
		stable := cloneCopies(env)
		body, _ := copyProp(t.Body, stable)
		return lang.While{Test: substituteCopies(t.Test, env), Body: body}, env
	}
	return s, env
}

func cloneCopies(env map[string]string) map[string]string {
	out := make(map[string]string, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// invalidateCopies removes bindings involving v (as source or target).
func invalidateCopies(env map[string]string, v string) {
	delete(env, v)
	for k, y := range env {
		if y == v {
			delete(env, k)
		}
	}
}

// substituteCopies rewrites each read of a variable bound in env to a read
// of the variable it copies.
func substituteCopies[T lang.Node](e T, env map[string]string) T {
	return lang.Rewrite(e, func(n lang.Node) (lang.Node, bool) {
		if v, ok := n.(lang.Var); ok {
			if y, ok := env[v.Name]; ok {
				return lang.Var{Name: y}, false
			}
		}
		return n, true
	})
}
