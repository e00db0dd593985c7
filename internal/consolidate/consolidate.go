package consolidate

import (
	"fmt"
	"strconv"
	"time"

	"consolidation/internal/invariant"
	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/smt"
	"consolidation/internal/sym"
)

// Options tunes the consolidation algorithm.
type Options struct {
	// CostModel prices operations; nil means lang.DefaultCostModel.
	CostModel *lang.CostModel
	// FuncCoster prices library calls for the ⊢ cost comparisons.
	FuncCoster lang.FuncCoster
	// MaxEmbedSize disables the duplicating If 3/If 4 rules when the code
	// to embed exceeds this many AST nodes, falling back to If 5. This is
	// the paper's cross-simplification vs code-size trade-off knob.
	// 0 means DefaultMaxEmbedSize. Besides cmd/consolidate's -max-embed
	// flag, only the ablation tests set it.
	MaxEmbedSize int
	// NoDCE disables the dead-store elimination post-pass (an extension
	// over the paper's calculus; see EliminateDeadCode). Only the ablation
	// tests set it.
	NoDCE bool
	// MaxFuel overrides the Ω work bound of one Pair call; 0 keeps the
	// size-proportional default. When the fuel runs out the remaining
	// statements are emitted verbatim (sound, but unoptimised) and
	// Stats.FuelExhausted counts the event — tiny values force the
	// fallback, which the degraded-plan tests rely on.
	MaxFuel int
	// Solver supplies an existing solver (one consolidation at a time);
	// nil creates a fresh one. Because a Solver is not concurrency-safe,
	// setting it makes the builder run in line — prefer Cache to share
	// solver work across parallel pair workers.
	Solver *smt.Solver
	// Cache supplies a shared SMT query cache. It is concurrency-safe, so
	// the builder's parallel pair workers each get a fresh solver backed by
	// this cache and reuse verdicts across pairs and levels. nil makes the
	// builder create one cache per run (and New one per solver). Ignored when
	// Solver is set (the solver brings its own cache).
	Cache *smt.Cache
	// NoSolvingContext disables incremental solving contexts entirely,
	// restoring stateless per-query solving. The differential oracle uses
	// it to compare the two pipelines.
	NoSolvingContext bool
}

// DefaultMaxEmbedSize is the If 3/If 4 embedding bound, in AST nodes, that
// a zero Options.MaxEmbedSize means.
const DefaultMaxEmbedSize = 6000

// DefaultOptions mirror the paper's implementation choices.
func DefaultOptions() Options {
	return Options{
		CostModel:    lang.DefaultCostModel(),
		MaxEmbedSize: DefaultMaxEmbedSize,
	}
}

// Stats reports which calculus rules fired and how much solver work the
// consolidation performed.
type Stats struct {
	If1, If2, If3, If4, If5       int
	Loop2, Loop3, LoopsSequential int
	AssignsSimplified             int
	SMTQueries                    int
	// Context reports the incremental solving context's amortization over
	// the run (zero when NoSolvingContext is set).
	Context    smt.ContextStats
	Duration   time.Duration
	OutputSize int
	// FuelExhausted counts Ω fuel exhaustions: each one means a suffix of
	// the pending programs was emitted verbatim instead of consolidated.
	// The output is still sound (verbatim = sequential execution) but
	// degraded; callers distinguishing an optimised plan from a fallback
	// must check this counter.
	FuelExhausted int
}

// Consolidator carries the state of one consolidation run. It is not safe
// for concurrent use; the divide-and-conquer driver creates one per pair.
type Consolidator struct {
	opts   Options
	solver *smt.Solver
	sctx   *smt.Context
	simp   *Simplifier
	feats  *featTab
	stats  Stats
	// fuel bounds the total work of one Pair call. Loop 3 re-inserts loops
	// into the pending lists, so a syntactic termination argument does not
	// cover every adversarial input; when the fuel runs out the remaining
	// statements are emitted verbatim, which is sound (it is exactly
	// sequential execution) and costs nothing extra.
	fuel int
	// embedBudget bounds the *cumulative* duplication the If 3/If 4 rules
	// may introduce in one Pair call. Each event duplicates at most
	// MaxEmbedSize nodes, but dozens of events across nested conditionals
	// would still blow the program up; the budget keeps the output within a
	// constant factor of the inputs, which is where the paper's "few
	// thousand lines" programs live.
	embedBudget int
	// accs are the accumulator parameters of the fold pair being merged
	// (pairFolds); nil under Pair.
	accs map[string]bool
}

// New returns a consolidator with the given options.
func New(opts Options) *Consolidator { return newConsolidator(opts, nil) }

// newConsolidator is New with sctx as its incremental solving context —
// a Memo's persistent per-node context; nil creates a private one.
func newConsolidator(opts Options, sctx *smt.Context) *Consolidator {
	if opts.CostModel == nil {
		opts.CostModel = lang.DefaultCostModel()
	}
	if opts.MaxEmbedSize == 0 {
		opts.MaxEmbedSize = DefaultMaxEmbedSize
	}
	if opts.NoSolvingContext {
		sctx = nil
	} else if sctx == nil {
		sctx = smt.NewSolvingContext()
	}
	return &Consolidator{
		opts:   opts,
		solver: newSolver(opts),
		sctx:   sctx,
		simp:   NewSimplifier(opts.CostModel, opts.FuncCoster),
		feats:  newFeatTab(),
	}
}

// newSolver returns opts.Solver, else a fresh solver over opts.Cache, else
// one with a private cache.
func newSolver(opts Options) *smt.Solver {
	switch {
	case opts.Solver != nil:
		return opts.Solver
	case opts.Cache != nil:
		return smt.NewWithCache(opts.Cache)
	}
	return smt.New()
}

// Stats returns the statistics of the last Pair call.
func (co *Consolidator) Stats() Stats { return co.stats }

// Pair computes Π1 ⊗ Π2 (Definition 1): a single program with the same
// parameters whose run on any input broadcasts exactly the notifications of
// Π1 followed by Π2, at a cost no greater than the sum of their costs.
//
// Both programs must take the same parameters, must not assign to them, and
// must use disjoint notification identifiers. Local variables are renamed
// apart automatically when they clash.
func (co *Consolidator) Pair(p1, p2 *lang.Program) (*lang.Program, error) {
	start := time.Now()
	co.stats = Stats{}
	co.accs = nil
	if len(p1.Params) != len(p2.Params) {
		return nil, fmt.Errorf("consolidate: %s and %s take different parameters", p1.Name, p2.Name)
	}
	params := map[string]bool{}
	a1, a2 := lang.AssignedVars(p1.Body), lang.AssignedVars(p2.Body)
	for i, p := range p1.Params {
		if p != p2.Params[i] {
			return nil, fmt.Errorf("consolidate: parameter mismatch %q vs %q", p, p2.Params[i])
		}
		if a1[p] || a2[p] {
			return nil, fmt.Errorf("consolidate: programs must not assign parameter %q", p)
		}
		params[p] = true
	}
	ids2 := lang.NotifyIDs(p2.Body)
	for id := range lang.NotifyIDs(p1.Body) {
		if ids2[id] {
			return nil, fmt.Errorf("consolidate: notification id %d used by both programs", id)
		}
	}
	merged := co.merge(p1, p2, params, append([]string(nil), p1.Params...))
	if !co.opts.NoDCE {
		merged = EliminateDeadCode(PropagateCopies(merged))
	}
	co.stats.Duration = time.Since(start)
	co.stats.OutputSize = lang.Size(merged.Body)
	return merged, nil
}

// pairFolds is Pair under the aggregation tier's fold contract: both
// programs take a shared record parameter first, then their own
// accumulators, which they assign. The record parameter is never assigned
// and fold bodies carry no notifications (lang.CheckAgg), so Ω's premises
// hold as for Pair. Accumulators are renamed apart by construction: member
// k of a group owns the q<k>_ prefix (mergeGroup), and the builder gives
// leaf k's locals the same one. The result takes the record parameter, p1's
// accumulators, then p2's. No clean-up runs here: plain dead-store
// elimination would delete the accumulator updates, so the builder
// finishes the root with the accumulator-live variant.
func (co *Consolidator) pairFolds(p1, p2 *lang.Program) (*lang.Program, error) {
	co.stats = Stats{}
	if len(p1.Params) == 0 || len(p2.Params) == 0 || p1.Params[0] != p2.Params[0] {
		return nil, fmt.Errorf("consolidate: folds %s and %s do not share a record parameter", p1.Name, p2.Name)
	}
	out := append(append([]string(nil), p1.Params...), p2.Params[1:]...)
	co.accs = make(map[string]bool, len(out)-1)
	for _, a := range out[1:] {
		co.accs[a] = true
	}
	return co.merge(p1, p2, map[string]bool{out[0]: true}, out), nil
}

// merge is the core both Pair contracts share: it renames p2's locals that
// clash with p1's apart (renameApart), runs Ω over the two bodies in one
// solving-context run under size-scaled fuel and embedding budgets, and
// returns the merged body under outParams. params are the names exempt
// from clash renaming.
func (co *Consolidator) merge(p1, p2 *lang.Program, params map[string]bool, outParams []string) *lang.Program {
	body2 := renameApart(p1.Body, p2.Body, params)

	ctx := sym.NewContext(co.solver)
	var cs0 smt.ContextStats
	if co.sctx != nil {
		co.sctx.BeginRun(co.solver)
		cs0 = co.sctx.Stats()
		ctx.UseSolvingContext(co.sctx)
	}
	q0 := co.solver.Stats.Queries
	co.fuel = 200 * (lang.Size(p1.Body) + lang.Size(body2))
	if co.fuel < 20000 {
		co.fuel = 20000
	}
	if co.opts.MaxFuel > 0 {
		co.fuel = co.opts.MaxFuel
	}
	co.embedBudget = 2 * (lang.Size(p1.Body) + lang.Size(body2))
	if co.embedBudget < 400 {
		co.embedBudget = 400
	}
	if co.embedBudget > co.opts.MaxEmbedSize {
		co.embedBudget = co.opts.MaxEmbedSize
	}
	out := co.omega(ctx, lang.Flatten(p1.Body), lang.Flatten(body2))
	co.stats.SMTQueries = co.solver.Stats.Queries - q0
	if co.sctx != nil {
		co.stats.Context = co.sctx.Stats().Diff(cs0)
		co.sctx.EndRun()
	}
	return &lang.Program{
		Name:   p1.Name + "⊗" + p2.Name,
		Params: outParams,
		Body:   lang.SeqOf(out...),
	}
}

// renameApart renames b2's non-parameter variables that b1 also mentions
// to v$k, with the least k ≥ 2 for which no new name is a parameter or is
// mentioned by either body. A chained merge's first program already
// carries $2 names, so a fixed suffix could make two programs' locals one.
func renameApart(b1, b2 lang.Stmt, params map[string]bool) lang.Stmt {
	v1, v2 := mentionedVars(b1), mentionedVars(b2)
	clash := map[string]bool{}
	for v := range v2 {
		if v1[v] && !params[v] {
			clash[v] = true
		}
	}
	if len(clash) == 0 {
		return b2
	}
	suffix := ""
	for k := 2; suffix == ""; k++ {
		suffix = "$" + strconv.Itoa(k)
		for v := range clash {
			if n := v + suffix; v1[n] || v2[n] || params[n] {
				suffix = ""
				break
			}
		}
	}
	return lang.RenameVars(b2, func(v string) string {
		if clash[v] {
			return v + suffix
		}
		return v
	})
}

// mentionedVars returns the variables s reads or assigns.
func mentionedVars(s lang.Stmt) map[string]bool {
	vs := lang.UsedVars(s)
	for v := range lang.AssignedVars(s) {
		vs[v] = true
	}
	return vs
}

// omega is the consolidation algorithm Ω′ of Figure 8 over flattened
// statement lists. Each iteration consumes at least one statement of s1 or
// s2 (or strictly shrinks the pending work), mirroring the paper's
// strategy: consume non-control statements into the context, embed the
// second program under related conditionals, fuse provably-synchronised
// loops, and commute only when the first program is exhausted or starts
// with a loop the second cannot match.
func (co *Consolidator) omega(ctx *sym.Context, s1, s2 []lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	for {
		co.fuel--
		if co.fuel < 0 {
			if len(s1) > 0 || len(s2) > 0 {
				co.stats.FuelExhausted++
			}
			out = append(out, s1...)
			out = append(out, s2...)
			return out
		}
		if len(s1) == 0 {
			if len(s2) == 0 {
				return out
			}
			// Line 5 (Com): the first program is consumed; continue with
			// the second alone so it simplifies against the full context.
			s1, s2 = s2, nil
			continue
		}
		switch h := s1[0].(type) {
		case lang.Skip:
			s1 = s1[1:]
		case lang.Notify:
			// Line 8 (Step): notifications carry no reusable computation.
			out = append(out, h)
			s1 = s1[1:]
		case lang.Assign:
			// Line 7 (Assign): simplify the right-hand side under Ψ, emit,
			// and absorb into the context via sp.
			e := co.simp.SimplifyInt(ctx, h.E)
			if !lang.EqualInt(e, h.E) {
				co.stats.AssignsSimplified++
			}
			out = append(out, lang.Assign{Var: h.Var, E: e})
			ctx.AssumeAssign(h.Var, e)
			s1 = s1[1:]
		case lang.Cond:
			out = append(out, co.conditional(ctx, h, &s1, &s2)...)
			if s1 == nil && s2 == nil {
				return out
			}
		case lang.While:
			if len(s2) > 0 {
				if _, ok := s2[0].(lang.While); ok {
					out = append(out, co.loops(ctx, &s1, &s2)...)
					continue
				}
				// Line 32 (Com): let the second program run ahead so its
				// facts can simplify this loop's body.
				s1, s2 = s2, s1
				continue
			}
			out = append(out, co.finalizeLoop(ctx, h))
			s1 = s1[1:]
		default:
			panic(fmt.Sprintf("consolidate: unexpected statement %T", s1[0]))
		}
	}
}

// conditional implements lines 9–18 of Figure 8. It may fully consume both
// programs (If 3), in which case it signals completion by setting both
// lists to nil.
func (co *Consolidator) conditional(ctx *sym.Context, h lang.Cond, s1, s2 *[]lang.Stmt) []lang.Stmt {
	eb := co.simp.SimplifyBool(ctx, h.Test)
	if c, ok := eb.(lang.BoolConst); ok {
		// If 1 / If 2: the branch is statically decided; the test is not
		// emitted at all, eliminating the redundant computation.
		if c.Value {
			co.stats.If1++
			*s1 = append(lang.Flatten(h.Then), (*s1)[1:]...)
		} else {
			co.stats.If2++
			*s1 = append(lang.Flatten(h.Else), (*s1)[1:]...)
		}
		return nil
	}
	cont := (*s1)[1:]
	rest := *s2

	// dupCost is the number of nodes an embedding would duplicate (the
	// second copy of rest plus, for If 3, the second copy of cont).
	dupCost := func(extra []lang.Stmt) int {
		n := 0
		for _, s := range rest {
			n += lang.Size(s)
		}
		for _, s := range extra {
			n += lang.Size(s)
		}
		return n
	}
	withinBudget := func(extra []lang.Stmt) bool {
		return dupCost(extra) <= co.embedBudget
	}

	// A test over fold accumulator state (a max/min update guard) relates
	// to nothing: the accumulators are renamed apart and enter as free
	// parameters, so the test tells the rest nothing about what it reads,
	// and embedding the rest under it would only duplicate code.
	if len(rest) > 0 && (co.accs == nil || !boolReadsAcc(h.Test, co.accs)) &&
		related(co.feats.featuresOfBoolCtx(ctx, h.Test), co.feats.featuresOfStmts(rest)) {
		if related(co.feats.featuresOfStmts(cont), co.feats.featuresOfStmts(rest)) && withinBudget(cont) {
			// If 3: embed both the remainder C and the second program P in
			// the branches; everything is consumed.
			co.stats.If3++
			co.embedBudget -= dupCost(cont)
			thenCtx := ctx.Clone()
			thenCtx.AssumeBool(h.Test)
			thenB := co.omega(thenCtx, append(lang.Flatten(h.Then), cont...), rest)
			elseCtx := ctx.Clone()
			elseCtx.AssumeBool(lang.Not{E: h.Test})
			elseB := co.omega(elseCtx, append(lang.Flatten(h.Else), cont...), rest)
			*s1, *s2 = nil, nil
			return []lang.Stmt{condOrCollapse(eb, thenB, elseB)}
		}
		if withinBudget(nil) {
			// If 4: embed only P; C follows the conditional.
			co.stats.If4++
			co.embedBudget -= dupCost(nil)
			thenCtx := ctx.Clone()
			thenCtx.AssumeBool(h.Test)
			thenB := co.omega(thenCtx, lang.Flatten(h.Then), rest)
			elseCtx := ctx.Clone()
			elseCtx.AssumeBool(lang.Not{E: h.Test})
			elseB := co.omega(elseCtx, lang.Flatten(h.Else), rest)
			cond := condOrCollapse(eb, thenB, elseB)
			ctx.HavocSet(lang.AssignedVars(cond))
			*s1 = cont
			*s2 = nil
			return []lang.Stmt{cond}
		}
	}
	// If 5: simplify the branches in isolation and keep consolidating the
	// remainder against the second program.
	co.stats.If5++
	thenCtx := ctx.Clone()
	thenCtx.AssumeBool(h.Test)
	thenB := co.omega(thenCtx, lang.Flatten(h.Then), nil)
	elseCtx := ctx.Clone()
	elseCtx.AssumeBool(lang.Not{E: h.Test})
	elseB := co.omega(elseCtx, lang.Flatten(h.Else), nil)
	cond := condOrCollapse(eb, thenB, elseB)
	ctx.HavocSet(lang.AssignedVars(cond))
	*s1 = cont
	return []lang.Stmt{cond}
}

// condOrCollapse builds the consolidated conditional; when both branches
// came out identical the test is dropped entirely — evaluating it would be
// pure waste, and expressions are side-effect free.
func condOrCollapse(test lang.BoolExpr, thenB, elseB []lang.Stmt) lang.Stmt {
	t := lang.SeqOf(thenB...)
	e := lang.SeqOf(elseB...)
	if lang.EqualStmt(t, e) {
		return t
	}
	return lang.Cond{Test: test, Then: t, Else: e}
}

// loops implements lines 19–31 of Figure 8: given loop heads on both sides,
// prove a relationship between their iteration counts via an invariant of
// the fused loop and apply Loop 2 or Loop 3 (Figure 7); otherwise run the
// loops sequentially.
func (co *Consolidator) loops(ctx *sym.Context, s1, s2 *[]lang.Stmt) []lang.Stmt {
	w1 := (*s1)[0].(lang.While)
	w2 := (*s2)[0].(lang.While)
	fusedGuard := lang.BinBool{Op: lang.And, L: w1.Test, R: w2.Test}
	fusedBody := lang.SeqOf(w1.Body, w2.Body)
	inv := invariant.Infer(ctx, fusedGuard, fusedBody)

	// Ψ1: the loop-head context — modified variables havocked, invariant
	// assumed; facts about untouched variables survive from Ψ.
	invCtx := ctx.Clone()
	invCtx.HavocSet(lang.AssignedVars(fusedBody))
	for _, f := range inv {
		invCtx.AssumeBool(f)
	}

	exitCtx := invCtx.Clone()
	exitCtx.AssumeBool(lang.Not{E: fusedGuard})

	switch {
	case exitCtx.EntailsBool(lang.Not{E: w1.Test}) && exitCtx.EntailsBool(lang.Not{E: w2.Test}):
		// Loop 2: both loops exit together; run one fused loop guarded by e1.
		co.stats.Loop2++
		bodyCtx := invCtx.Clone()
		bodyCtx.AssumeBool(w1.Test)
		bodyCtx.AssumeBool(w2.Test) // entailed by e1 under Ψ1; sound to assume
		body := co.omega(bodyCtx, lang.Flatten(w1.Body), lang.Flatten(w2.Body))
		*ctx = *invCtx
		ctx.AssumeBool(lang.Not{E: w1.Test})
		*s1 = (*s1)[1:]
		*s2 = (*s2)[1:]
		return []lang.Stmt{lang.While{Test: w1.Test, Body: lang.SeqOf(body...)}}

	case exitCtx.EntailsBool(w1.Test):
		// Loop 3: the first loop outlives the second; fuse while e2 holds,
		// then resume the first program with S1; while e1 do S1; C1.
		co.stats.Loop3++
		bodyCtx := invCtx.Clone()
		bodyCtx.AssumeBool(w2.Test)
		bodyCtx.AssumeBool(w1.Test)
		body := co.omega(bodyCtx, lang.Flatten(w1.Body), lang.Flatten(w2.Body))
		*ctx = *invCtx
		ctx.AssumeBool(lang.Not{E: w2.Test})
		ctx.AssumeBool(w1.Test)
		*s1 = append(append(lang.Flatten(w1.Body), lang.Stmt(w1)), (*s1)[1:]...)
		*s2 = (*s2)[1:]
		return []lang.Stmt{lang.While{Test: w2.Test, Body: lang.SeqOf(body...)}}

	case exitCtx.EntailsBool(w2.Test):
		// Loop 3 with the arguments swapped (implicit Com, line 27).
		co.stats.Loop3++
		bodyCtx := invCtx.Clone()
		bodyCtx.AssumeBool(w1.Test)
		bodyCtx.AssumeBool(w2.Test)
		body := co.omega(bodyCtx, lang.Flatten(w2.Body), lang.Flatten(w1.Body))
		*ctx = *invCtx
		ctx.AssumeBool(lang.Not{E: w1.Test})
		ctx.AssumeBool(w2.Test)
		*s2 = append(append(lang.Flatten(w2.Body), lang.Stmt(w2)), (*s2)[1:]...)
		*s1 = (*s1)[1:]
		return []lang.Stmt{lang.While{Test: w1.Test, Body: lang.SeqOf(body...)}}

	default:
		// No provable relationship: execute the first loop, then continue
		// (Step/Seq, lines 29-31).
		co.stats.LoopsSequential++
		loop := co.finalizeLoop(ctx, w1)
		*s1 = (*s1)[1:]
		return []lang.Stmt{loop}
	}
}

// finalizeLoop emits a loop whose partner program is exhausted: the guard
// and body are cross-simplified under the loop invariant, and the context
// is advanced to the post-loop state.
func (co *Consolidator) finalizeLoop(ctx *sym.Context, w lang.While) lang.Stmt {
	inv := invariant.Infer(ctx, w.Test, w.Body)
	invCtx := ctx.Clone()
	invCtx.HavocSet(lang.AssignedVars(w.Body))
	for _, f := range inv {
		invCtx.AssumeBool(f)
	}
	// The guard is evaluated at every loop head state, all of which satisfy
	// the invariant context, so simplifying under it is sound. A constant
	// result is kept only when it is `false` (never-entered loop); `true`
	// would change nothing semantically (the original diverges too) but we
	// keep the original test to preserve cost accounting transparency.
	guard := co.simp.SimplifyBool(invCtx, w.Test)
	if c, ok := guard.(lang.BoolConst); ok && c.Value {
		guard = w.Test
	}
	bodyCtx := invCtx.Clone()
	bodyCtx.AssumeBool(w.Test)
	body := co.omega(bodyCtx, lang.Flatten(w.Body), nil)
	*ctx = *invCtx
	ctx.AssumeBool(lang.Not{E: w.Test})
	return lang.While{Test: guard, Body: lang.SeqOf(body...)}
}

// feature is an interned fragment feature for the related() heuristic. The
// low two bits hold the kind — variable read, variable definition, or call
// instance / bare function — and the high bits a per-Consolidator table id
// dense in first-use order, so feature sets are small-integer maps and
// relating two fragments compares ints, never strings.
type feature uint32

const (
	featVar  feature = 0 // variable read; id indexes featTab.nameList
	featDef  feature = 1 // variable definition; id indexes featTab.nameList
	featCall feature = 2 // call instance or bare function; id indexes featTab.keys
)

// featureSet abstracts a code fragment for the related() heuristic.
// Precision matters: a feature is a specific call instance — the function
// name plus those arguments that are constants or parameters (variable
// arguments are wildcarded) — so that tempOfMonth(r, 3) relates to
// tempOfMonth(r, 3) but not to tempOfMonth(r, 7). Calls with non-constant
// arguments (loop indices) fall back to the bare function name, which is
// what lets loop bodies relate for fusion. Call-free fragments use the
// variables they read.
type featureSet map[feature]bool

// featTab interns feature identities for one Consolidator. Variable names
// and rendered call-instance keys get dense ids; rendering reuses one
// scratch buffer, replacing the quadratic `key += part` string building of
// the text-keyed implementation with a single append pass per call.
type featTab struct {
	names    map[string]uint32
	nameList []string
	keys     map[string]uint32
	buf      []byte
}

func newFeatTab() *featTab {
	return &featTab{names: map[string]uint32{}, keys: map[string]uint32{}}
}

func (t *featTab) nameID(name string) uint32 {
	id, ok := t.names[name]
	if !ok {
		id = uint32(len(t.nameList))
		t.names[name] = id
		t.nameList = append(t.nameList, name)
	}
	return id
}

func (t *featTab) varFeat(name string) feature { return feature(t.nameID(name))<<2 | featVar }
func (t *featTab) defFeat(name string) feature { return feature(t.nameID(name))<<2 | featDef }

// keyFeat interns the call key currently rendered in t.buf.
func (t *featTab) keyFeat() feature {
	id, ok := t.keys[string(t.buf)]
	if !ok {
		id = uint32(len(t.keys))
		t.keys[string(t.buf)] = id
	}
	return feature(id)<<2 | featCall
}

// callFeature renders and interns the feature of one source-level call: the
// function plus its constant/variable arguments, or the bare function name
// as soon as an argument is compound.
func (t *featTab) callFeature(c lang.Call) feature {
	t.buf = append(t.buf[:0], "call:"...)
	t.buf = append(t.buf, c.Func...)
	t.buf = append(t.buf, '(')
	for i, a := range c.Args {
		if i > 0 {
			t.buf = append(t.buf, ',')
		}
		switch x := a.(type) {
		case lang.IntConst:
			t.buf = strconv.AppendInt(t.buf, x.Value, 10)
		case lang.Var:
			t.buf = append(t.buf, x.Name...)
		default:
			t.buf = append(t.buf[:0], "fn:"...)
			t.buf = append(t.buf, c.Func...)
			return t.keyFeat()
		}
	}
	t.buf = append(t.buf, ')')
	return t.keyFeat()
}

func (t *featTab) addIntFeatures(e lang.IntExpr, fs featureSet) {
	switch x := e.(type) {
	case lang.Var:
		fs[t.varFeat(x.Name)] = true
	case lang.Call:
		fs[t.callFeature(x)] = true
		for _, a := range x.Args {
			t.addIntFeatures(a, fs)
		}
	case lang.BinInt:
		t.addIntFeatures(x.L, fs)
		t.addIntFeatures(x.R, fs)
	}
}

func (t *featTab) addBoolFeatures(e lang.BoolExpr, fs featureSet) {
	switch x := e.(type) {
	case lang.Cmp:
		t.addIntFeatures(x.L, fs)
		t.addIntFeatures(x.R, fs)
	case lang.Not:
		t.addBoolFeatures(x.E, fs)
	case lang.BinBool:
		t.addBoolFeatures(x.L, fs)
		t.addBoolFeatures(x.R, fs)
	}
}

func (t *featTab) addStmtFeatures(s lang.Stmt, fs featureSet) {
	switch x := s.(type) {
	case lang.Assign:
		t.addIntFeatures(x.E, fs)
		fs[t.defFeat(x.Var)] = true
	case lang.Seq:
		t.addStmtFeatures(x.L, fs)
		t.addStmtFeatures(x.R, fs)
	case lang.Cond:
		t.addBoolFeatures(x.Test, fs)
		t.addStmtFeatures(x.Then, fs)
		t.addStmtFeatures(x.Else, fs)
	case lang.While:
		t.addBoolFeatures(x.Test, fs)
		t.addStmtFeatures(x.Body, fs)
	}
}

func (t *featTab) featuresOfBool(e lang.BoolExpr) featureSet {
	fs := featureSet{}
	t.addBoolFeatures(e, fs)
	return fs
}

// featuresOfBoolCtx extends a test's features with the features of the
// definitions of the variables it reads: a test over `name` where
// name := airlineName(fi) carries the airlineName(fi) call feature, so it
// relates to another program computing the same call (the paper's
// Example 1). The variable reads are snapshotted before expanding: term
// features are only ever calls, so expansion cannot cascade.
func (t *featTab) featuresOfBoolCtx(ctx *sym.Context, e lang.BoolExpr) featureSet {
	fs := t.featuresOfBool(e)
	var vars []string
	for k := range fs {
		if k&3 == featVar {
			vars = append(vars, t.nameList[k>>2])
		}
	}
	for _, v := range vars {
		if def, ok := ctx.CurDef(v); ok {
			t.addTermFeatures(def, fs)
		}
	}
	return fs
}

// addTermFeatures derives call features from a logic term (a recorded
// definition right-hand side); SSA version suffixes are stripped so the
// features align with source-level ones.
func (t *featTab) addTermFeatures(tm logic.Term, fs featureSet) {
	switch x := tm.(type) {
	case logic.TApp:
		t.buf = append(t.buf[:0], "call:"...)
		t.buf = append(t.buf, x.Func...)
		t.buf = append(t.buf, '(')
		ok := true
		for i, a := range x.Args {
			if i > 0 {
				t.buf = append(t.buf, ',')
			}
			switch y := a.(type) {
			case logic.TConst:
				t.buf = strconv.AppendInt(t.buf, y.Value, 10)
			case logic.TVar:
				t.buf = append(t.buf, stripVersion(y.Name)...)
			default:
				ok = false
			}
		}
		if ok {
			t.buf = append(t.buf, ')')
		} else {
			t.buf = append(t.buf[:0], "fn:"...)
			t.buf = append(t.buf, x.Func...)
		}
		fs[t.keyFeat()] = true
		for _, a := range x.Args {
			t.addTermFeatures(a, fs)
		}
	case logic.TBin:
		t.addTermFeatures(x.L, fs)
		t.addTermFeatures(x.R, fs)
	}
}

func stripVersion(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '%' {
			return name[:i]
		}
	}
	return name
}

func (t *featTab) featuresOfStmts(ss []lang.Stmt) featureSet {
	fs := featureSet{}
	for _, s := range ss {
		t.addStmtFeatures(s, fs)
	}
	return fs
}

// related decides whether two fragments plausibly share computation: they
// contain the same call instance, read a shared variable, or one reads a
// variable the other defines. This is the paper's related() heuristic
// (Section 5); its precision controls the cross-simplification vs code-size
// trade-off of If 3/4/5.
func related(a, b featureSet) bool {
	for k := range a {
		if b[k] {
			return true
		}
		// var:X in one and def:X in the other: the kinds differ only in
		// the low bit over the same name id.
		if k&2 == 0 && b[k^1] {
			return true
		}
	}
	return false
}

func collectBoolVars(e lang.BoolExpr, out map[string]bool) {
	switch t := e.(type) {
	case lang.Cmp:
		collectIntVars(t.L, out)
		collectIntVars(t.R, out)
	case lang.Not:
		collectBoolVars(t.E, out)
	case lang.BinBool:
		collectBoolVars(t.L, out)
		collectBoolVars(t.R, out)
	}
}

func collectIntVars(e lang.IntExpr, out map[string]bool) {
	switch t := e.(type) {
	case lang.Var:
		out[t.Name] = true
	case lang.Call:
		for _, a := range t.Args {
			collectIntVars(a, out)
		}
	case lang.BinInt:
		collectIntVars(t.L, out)
		collectIntVars(t.R, out)
	}
}
