package oracle

import (
	"consolidation/internal/lang"
)

// DefaultShrinkBudget bounds re-check executions during shrinking. Each
// re-check is a full consolidation (or churn replay), so the budget is
// the shrinker's real cost knob.
const DefaultShrinkBudget = 400

// Shrink minimises the batch attached to f by greedy delta debugging:
// drop whole programs, drop probe inputs, replace statement subtrees with
// skip, guards with false, and integer subexpressions with 0 — accepting
// a candidate only if re-running the failed check fails with the same
// check name (so a shrink that merely breaks the generator invariants,
// turning a Definition 1 violation into a registry rejection, is
// discarded). The returned Failure describes the smallest accepted batch;
// smt-soundness and batch-less failures are returned unchanged.
func Shrink(f *Failure, budget int) *Failure {
	if f == nil || f.Batch == nil {
		return f
	}
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	rerun := rerunFor(f.Check)
	if rerun == nil {
		return f
	}

	best := f
	runs := 0
	// try re-runs the check on cand; the candidate is kept only when it
	// still fails the same way.
	try := func(cand *Batch) bool {
		if runs >= budget {
			return false
		}
		runs++
		if g := rerun(cand, f.Events); g != nil && g.Check == f.Check {
			best = g
			return true
		}
		return false
	}

	for pass := 0; pass < 8; pass++ {
		changed := false

		// Drop whole programs (a minimal reproducer usually needs two, and
		// sometimes just one: leaf preparation and cleanup run even for N=1).
		for i := 0; len(best.Batch.Progs) > 1 && i < len(best.Batch.Progs); i++ {
			cand := best.Batch.Clone()
			cand.Progs = append(cand.Progs[:i:i], cand.Progs[i+1:]...)
			if try(cand) {
				changed = true
				i--
			}
		}

		// Drop probe inputs: halve first, then one at a time.
		for len(best.Batch.Inputs) > 1 {
			cand := best.Batch.Clone()
			cand.Inputs = cand.Inputs[:len(cand.Inputs)/2]
			if !try(cand) {
				break
			}
			changed = true
		}
		for i := 0; len(best.Batch.Inputs) > 1 && i < len(best.Batch.Inputs); i++ {
			cand := best.Batch.Clone()
			cand.Inputs = append(cand.Inputs[:i:i], cand.Inputs[i+1:]...)
			if try(cand) {
				changed = true
				i--
			}
		}

		// Replace statement subtrees with skip. Indices shift after every
		// accepted replacement, so restart the scan on success. No-op
		// replacements (the node already is the replacement) are skipped,
		// or they would re-accept forever and drain the budget.
		for pi := range best.Batch.Progs {
			for idx := 0; idx < lang.CountStmtNodes(best.Batch.Progs[pi].Body); idx++ {
				cand := best.Batch.Clone()
				q := *cand.Progs[pi]
				q.Body = lang.ReplaceStmtNode(q.Body, idx, lang.Skip{})
				if lang.EqualStmt(q.Body, best.Batch.Progs[pi].Body) {
					continue
				}
				cand.Progs[pi] = &q
				if try(cand) {
					changed = true
					idx = -1
				}
			}
		}

		// Replace guards with false — never true: a tautological while
		// guard would make the re-check diverge.
		for pi := range best.Batch.Progs {
			for idx := 0; idx < lang.CountBoolExprs(best.Batch.Progs[pi].Body); idx++ {
				cand := best.Batch.Clone()
				q := *cand.Progs[pi]
				q.Body = lang.ReplaceBoolExpr(q.Body, idx, lang.BoolConst{Value: false})
				if lang.EqualStmt(q.Body, best.Batch.Progs[pi].Body) {
					continue
				}
				cand.Progs[pi] = &q
				if try(cand) {
					changed = true
					idx = -1
				}
			}
		}

		// Replace integer subexpressions with 0.
		for pi := range best.Batch.Progs {
			for idx := 0; idx < lang.CountIntExprs(best.Batch.Progs[pi].Body); idx++ {
				cand := best.Batch.Clone()
				q := *cand.Progs[pi]
				q.Body = lang.ReplaceIntExpr(q.Body, idx, lang.IntConst{Value: 0})
				if lang.EqualStmt(q.Body, best.Batch.Progs[pi].Body) {
					continue
				}
				cand.Progs[pi] = &q
				if try(cand) {
					changed = true
					idx = -1
				}
			}
		}

		if !changed || runs >= budget {
			break
		}
	}
	return best
}
