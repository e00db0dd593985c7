package invariant

import (
	"consolidation/internal/lang"
	"consolidation/internal/sym"
)

// InferRef exposes inferRef to the external tests.
var InferRef = inferRef

// inferRef is Infer without counterexample pruning: one solver check per
// candidate entryEval leaves open at entry, then Houdini's round loop run
// to its fixpoint with one solver check per unstable candidate per round.
// Pruning drops only candidates those checks would reject, so Infer must
// return exactly inferRef's list.
func inferRef(ctx *sym.Context, guard lang.BoolExpr, body lang.Stmt) []lang.BoolExpr {
	stable, unstable := entryCandidates(ctx, guard, body, ctx.EntailsBool)
	for len(unstable) > 0 {
		post := postContext(ctx, guard, body, stable, unstable)
		var keep []lang.BoolExpr
		for _, cand := range unstable {
			if post.EntailsBool(cand) {
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
