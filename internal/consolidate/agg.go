package consolidate

import (
	"fmt"
	"strings"

	"consolidation/internal/lang"
	"consolidation/internal/smt"
	"consolidation/internal/sym"
)

// Aggregation consolidation: windowed aggregation UDFs whose windows align
// (same size, same key partition) share one traversal. Their fold bodies
// are Ω-merged into a single fold over the union of the accumulators — the
// shared per-record scan pays common subexpressions (typically the
// expensive record-access calls) once — and their emits concatenate into
// one window-close program with the notification ids renumbered to dense
// group output positions. When the merged fold is homomorphic the group
// additionally runs as per-batch partials combined at window close
// (agghom.go), which is what lets the batched engine split a window across
// workers without changing a single output bit.

// AggRecordParam is the canonical record-parameter name of merged fold
// programs. Member parameters are renamed to it; the '$' keeps it out of
// the source-level identifier space, the same convention the pairwise
// consolidator uses for clash renames.
const AggRecordParam = "$r"

// AggOutputRef maps one dense output position of a merged group back to
// the member aggregation that owns it.
type AggOutputRef struct {
	// Member is the index of the aggregation in the MergeAggs input slice.
	Member int
	// Local is the rank of the notification id in that member's sorted
	// EmitIDs — its output column.
	Local int
}

// AggGroup is one window-aligned set of aggregations merged into a shared
// fold and emit.
type AggGroup struct {
	Window lang.WindowSpec
	// Members are the input indices of the grouped aggregations, in input
	// order.
	Members []int
	// Accs are the merged accumulator declarations (renamed apart per
	// member), in merged-fold parameter order.
	Accs []lang.AccDecl
	// Fold is the merged fold: parameters [AggRecordParam, accs...].
	Fold *lang.Program
	// Emit is the merged emit: parameters [accs...], notify ids renumbered
	// to dense group output positions 0..len(Outputs)-1.
	Emit *lang.Program
	// Outputs maps each dense output position back to its member.
	Outputs []AggOutputRef
	// Hom holds the per-accumulator combine operators when Homomorphic.
	Hom []HomOp
	// Homomorphic reports that the merged fold passed structural
	// classification and the per-path SMT laws, so the engine may run it as
	// per-batch partials combined at window close.
	Homomorphic bool
	// Stats accumulates the Ω and solver work of the group's merges,
	// including the homomorphism queries.
	Stats Stats
	// SumFoldSize is the total AST size of the unmerged fold bodies; with
	// Stats.OutputSize it measures sharing.
	SumFoldSize int
}

// MergeAggs consolidates a batch of windowed aggregations. Aggregations
// with identical window specifications merge into one AggGroup each, in
// first-member input order; every input appears in exactly one group.
func MergeAggs(aggs []*lang.AggProgram, opts Options) ([]*AggGroup, error) {
	co := New(opts)
	return co.MergeAggs(aggs)
}

// MergeAggs is the method form of the package-level MergeAggs, reusing the
// consolidator's solver and solving context across groups.
func (co *Consolidator) MergeAggs(aggs []*lang.AggProgram) ([]*AggGroup, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("consolidate: no aggregations to merge")
	}
	names := map[string]bool{}
	for _, a := range aggs {
		if err := lang.CheckAgg(a); err != nil {
			return nil, err
		}
		if names[a.Name] {
			return nil, fmt.Errorf("consolidate: duplicate aggregation name %q", a.Name)
		}
		names[a.Name] = true
	}
	var order []lang.WindowSpec
	byWindow := map[lang.WindowSpec][]int{}
	for i, a := range aggs {
		if _, ok := byWindow[a.Window]; !ok {
			order = append(order, a.Window)
		}
		byWindow[a.Window] = append(byWindow[a.Window], i)
	}
	groups := make([]*AggGroup, 0, len(order))
	for _, w := range order {
		g, err := co.mergeGroup(aggs, byWindow[w], w)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// mergeGroup builds one window-aligned group: members renamed apart,
// folds Ω-merged pairwise, emits concatenated with dense renumbering, and
// the merged fold classified and SMT-verified for the homomorphic split.
func (co *Consolidator) mergeGroup(aggs []*lang.AggProgram, members []int, w lang.WindowSpec) (*AggGroup, error) {
	g := &AggGroup{Window: w, Members: append([]int(nil), members...)}
	var (
		folds     []*lang.Program
		emitBody  []lang.Stmt
		nameParts []string
	)
	for _, gi := range members {
		a := aggs[gi]
		prefix := fmt.Sprintf("q%d_", gi)
		rename := func(v string) string {
			if v == a.Param {
				return AggRecordParam
			}
			return prefix + v
		}
		for _, d := range a.Accs {
			g.Accs = append(g.Accs, lang.AccDecl{Name: prefix + d.Name, Init: d.Init})
		}
		fold := lang.RenameVars(a.Fold, rename)
		foldParams := []string{AggRecordParam}
		for _, d := range a.Accs {
			foldParams = append(foldParams, prefix+d.Name)
		}
		folds = append(folds, &lang.Program{Name: a.Name + ".fold", Params: foldParams, Body: fold})
		g.SumFoldSize += lang.Size(a.Fold)

		// Emit: rename variables, then renumber this member's sorted notify
		// ids onto the group's dense output positions.
		ids := a.EmitIDs()
		rank := make(map[int]int, len(ids))
		base := len(g.Outputs)
		for j, id := range ids {
			rank[id] = base + j
			g.Outputs = append(g.Outputs, AggOutputRef{Member: gi, Local: j})
		}
		emit := lang.RenameVars(a.Emit, rename)
		emit = lang.RenameNotifyIDs(emit, func(id int) int { return rank[id] })
		emitBody = append(emitBody, emit)
		nameParts = append(nameParts, a.Name)
	}

	merged := folds[0]
	for _, next := range folds[1:] {
		merged = co.pairFolds(merged, next)
		g.Stats.add(co.stats)
	}
	accNames := make([]string, len(g.Accs))
	accLive := make(map[string]bool, len(g.Accs))
	for i, d := range g.Accs {
		accNames[i] = d.Name
		accLive[d.Name] = true
	}
	if !co.opts.NoDCE {
		merged = EliminateDeadCodeLive(PropagateCopies(merged), accLive)
	}
	merged.Name = "agg[" + strings.Join(nameParts, "⊗") + "].fold"
	g.Fold = merged
	g.Stats.OutputSize = lang.Size(merged.Body)

	emitParams := append([]string(nil), accNames...)
	g.Emit = &lang.Program{
		Name:   "agg[" + strings.Join(nameParts, "⊗") + "].emit",
		Params: emitParams,
		Body:   lang.SeqOf(emitBody...),
	}

	// The homomorphic split is decided on the fold that actually runs: the
	// merged one. Structural classification finds the per-accumulator
	// combine operators; the SMT pass then discharges the per-path laws.
	co.stats = Stats{}
	if ops, ok := classifyFold(g.Fold.Body, accNames); ok && co.verifyHom(g.Fold.Body, accNames, ops) {
		g.Hom = ops
		g.Homomorphic = true
	}
	g.Stats.SMTQueries += co.stats.SMTQueries
	return g, nil
}

// pairFolds is the Ω merge of two fold programs. Unlike Pair it does not
// require equal parameter lists or unassigned parameters: fold programs
// share only the record parameter, and their accumulator parameters — by
// construction renamed apart per member — are assigned by design. The
// record parameter itself is never assigned (CheckAgg), and fold bodies
// carry no notifications, so Ω's premises still hold. No clean-up passes
// run here; the caller finishes the group's root with the accumulator-live
// variant of DCE.
func (co *Consolidator) pairFolds(p1, p2 *lang.Program) *lang.Program {
	co.stats = Stats{}
	ctx := sym.NewContext(co.solver)
	var cs0 smt.ContextStats
	if co.sctx != nil {
		co.sctx.BeginRun(co.solver)
		cs0 = co.sctx.Stats()
		ctx.UseSolvingContext(co.sctx)
	}
	q0 := co.solver.Stats.Queries
	co.fuel = 200 * (lang.Size(p1.Body) + lang.Size(p2.Body))
	if co.fuel < 20000 {
		co.fuel = 20000
	}
	if co.opts.MaxFuel > 0 {
		co.fuel = co.opts.MaxFuel
	}
	co.embedBudget = 2 * (lang.Size(p1.Body) + lang.Size(p2.Body))
	if co.embedBudget < 400 {
		co.embedBudget = 400
	}
	if co.embedBudget > co.opts.MaxEmbedSize {
		co.embedBudget = co.opts.MaxEmbedSize
	}
	out := co.omega(ctx, lang.Flatten(p1.Body), lang.Flatten(p2.Body))
	co.stats.SMTQueries = co.solver.Stats.Queries - q0
	if co.sctx != nil {
		co.stats.Context = co.sctx.Stats().Diff(cs0)
		co.sctx.EndRun()
	}
	params := append([]string(nil), p1.Params...)
	params = append(params, p2.Params[1:]...) // shared record param first
	return &lang.Program{
		Name:   p1.Name + "⊗" + p2.Name,
		Params: params,
		Body:   lang.SeqOf(out...),
	}
}

// add accumulates pair-merge statistics into a group total.
func (s *Stats) add(o Stats) {
	s.If1 += o.If1
	s.If2 += o.If2
	s.If3 += o.If3
	s.If4 += o.If4
	s.If5 += o.If5
	s.Loop2 += o.Loop2
	s.Loop3 += o.Loop3
	s.LoopsSequential += o.LoopsSequential
	s.AssignsSimplified += o.AssignsSimplified
	s.SMTQueries += o.SMTQueries
	s.FuelExhausted += o.FuelExhausted
	s.Duration += o.Duration
}
