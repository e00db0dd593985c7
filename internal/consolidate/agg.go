package consolidate

import (
	"fmt"
	"strings"

	"consolidation/internal/lang"
	"consolidation/internal/smt"
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
}

// MergeAggs consolidates a batch of windowed aggregations. Aggregations
// with identical window specifications merge into one AggGroup each, in
// first-member input order; every input appears in exactly one group.
// Each group's folds merge by the divide-and-conquer builder that All and
// Build run (Section 6.1), with parallel pair workers; every group's
// merges and homomorphism checks share one SMT query cache.
func MergeAggs(aggs []*lang.AggProgram, opts Options) ([]*AggGroup, error) {
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
	if opts.Solver == nil && opts.Cache == nil {
		opts.Cache = smt.NewCache(0)
	}
	groups := make([]*AggGroup, 0, len(order))
	for _, w := range order {
		g, err := mergeGroup(aggs, byWindow[w], w, opts)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// mergeGroup builds one window-aligned group: members renamed apart, folds
// Ω-merged as the leaves of one build, emits concatenated with dense
// renumbering, the merged fold classified and SMT-verified for the
// homomorphic split. Member k of the group
// owns the q<k>_ prefix: the builder gives a leaf's locals its position's
// prefix, and the accumulators and the emit take the same one here.
func mergeGroup(aggs []*lang.AggProgram, members []int, w lang.WindowSpec, opts Options) (*AggGroup, error) {
	g := &AggGroup{Window: w, Members: append([]int(nil), members...)}
	var (
		leaves    []Leaf
		emitBody  []lang.Stmt
		nameParts []string
	)
	for pos, gi := range members {
		a := aggs[gi]
		prefix := fmt.Sprintf("q%d_", pos)
		isAcc := make(map[string]bool, len(a.Accs))
		foldParams := []string{AggRecordParam}
		for _, d := range a.Accs {
			isAcc[d.Name] = true
			g.Accs = append(g.Accs, lang.AccDecl{Name: prefix + d.Name, Init: d.Init})
			foldParams = append(foldParams, prefix+d.Name)
		}
		rename := func(v string) string {
			if v == a.Param {
				return AggRecordParam
			}
			return prefix + v
		}
		fold := lang.RenameVars(a.Fold, func(v string) string {
			if v == a.Param || isAcc[v] {
				return rename(v)
			}
			return v // a local: the builder renames it apart
		})
		leaves = append(leaves, Leaf{ID: gi, Prog: &lang.Program{Name: a.Name + ".fold", Params: foldParams, Body: fold}})

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

	merged, ms, err := build(leaves, opts, foldLeaves, allWorkers(true), nil, nil)
	if err != nil {
		return nil, err
	}
	merged.Name = "agg[" + strings.Join(nameParts, "⊗") + "].fold"
	g.Fold = merged
	g.Stats = ms.Rules
	g.Stats.SMTQueries = ms.SMTQueries
	g.Stats.Context = ms.Context
	g.Stats.Duration = ms.Duration
	g.Stats.OutputSize = ms.OutputSize

	accNames := merged.Params[1:]
	g.Emit = &lang.Program{
		Name:   "agg[" + strings.Join(nameParts, "⊗") + "].emit",
		Params: append([]string(nil), accNames...),
		Body:   lang.SeqOf(emitBody...),
	}

	// The homomorphic split is decided on the fold that actually runs: the
	// merged one. Structural classification finds the per-accumulator
	// combine operators; the SMT pass then discharges the per-path laws.
	if ops, ok := classifyFold(g.Fold.Body, accNames); ok {
		solver := newSolver(opts)
		q0 := solver.Stats.Queries
		g.Homomorphic = verifyHom(solver, g.Fold.Body, accNames, ops)
		if g.Homomorphic {
			g.Hom = ops
		}
		g.Stats.SMTQueries += solver.Stats.Queries - q0
	}
	return g, nil
}
