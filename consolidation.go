// Package consolidation is a Go implementation of program consolidation
// from "Consolidation of Queries with User-Defined Functions" (PLDI 2014):
// a purely static, SMT-driven optimisation that merges many user-defined
// functions (UDFs) operating on the same input into one program whose
// execution cost never exceeds — and usually undercuts by a large factor —
// the cost of running the UDFs sequentially.
//
// The package is a facade over the building blocks in internal/:
//
//   - a small imperative UDF language with a cost-annotated interpreter
//     (internal/lang),
//   - a from-scratch SMT solver for linear integer arithmetic plus
//     uninterpreted functions (internal/smt),
//   - symbolic contexts, loop-invariant inference and the consolidation
//     calculus itself (internal/sym, internal/invariant,
//     internal/consolidate),
//   - a miniature dataflow engine with whereMany / whereConsolidated
//     operators, datasets and query workloads reproducing the paper's
//     evaluation (internal/engine, internal/data, internal/queries;
//     cmd/figures prints the paper's tables).
//
// Quick start:
//
//	p1 := consolidation.MustParse(`func f1(x) { notify 1 (x > 10); }`)
//	p2 := consolidation.MustParse(`func f2(x) { notify 2 (x <= 10); }`)
//	merged, stats, err := consolidation.Consolidate(p1, p2)
//
// See examples/ for runnable end-to-end programs.
package consolidation

import (
	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/linq"
)

// Program is a UDF in the formal language of the paper (Figure 1).
type Program = lang.Program

// Library supplies the deterministic, side-effect-free external functions
// UDFs may call.
type Library = lang.Library

// MapLibrary is a Library built from explicit Go functions.
type MapLibrary = lang.MapLibrary

// Notifications maps notification identifiers to the booleans broadcast by
// a run.
type Notifications = lang.Notifications

// Stats reports which calculus rules fired during a consolidation.
type Stats = consolidate.Stats

// MultiStats aggregates a divide-and-conquer consolidation.
type MultiStats = consolidate.MultiStats

// Options tunes the consolidation algorithm; the zero value uses the
// paper's defaults.
type Options = consolidate.Options

// Parse parses one UDF from source text. The concrete syntax is
//
//	func name(r) {
//	  x := price(r);
//	  if (x < 100) { notify 1 true; } else { notify 1 false; }
//	}
//
// with >, >=, != and boolean-valued notify as sugar over the paper's core
// language.
func Parse(src string) (*Program, error) { return lang.Parse(src) }

// MustParse is Parse that panics on error.
func MustParse(src string) *Program { return lang.MustParse(src) }

// ParseAll parses a sequence of UDFs from one source text.
func ParseAll(src string) ([]*Program, error) { return lang.ParseAll(src) }

// Format renders a program as re-parseable indented source text.
func Format(p *Program) string { return lang.Format(p) }

// Consolidate merges two UDFs into one (Π1 ⊗ Π2). The result broadcasts
// exactly the notifications of both programs and never costs more than
// running them in sequence (Definition 1 of the paper).
func Consolidate(p1, p2 *Program) (*Program, Stats, error) {
	co := consolidate.New(consolidate.DefaultOptions())
	merged, err := co.Pair(p1, p2)
	return merged, co.Stats(), err
}

// ConsolidateWith is Consolidate with explicit options (cost model,
// library pricing, embedding budget).
func ConsolidateWith(opts Options, p1, p2 *Program) (*Program, Stats, error) {
	co := consolidate.New(opts)
	merged, err := co.Pair(p1, p2)
	return merged, co.Stats(), err
}

// ConsolidateAll merges n UDFs with the parallel divide-and-conquer scheme
// of Section 6.1. When renumber is true, each program's notification ids
// are rewritten to its index (required when programs reuse ids).
func ConsolidateAll(progs []*Program, opts Options, renumber bool) (*Program, *MultiStats, error) {
	return consolidate.All(progs, opts, renumber, true)
}

// Run executes a program against a library, returning its notification
// environment and abstract execution cost.
func Run(p *Program, lib Library, args []int64) (Notifications, int64, error) {
	res, err := lang.NewInterp(lib).Run(p, args)
	if err != nil {
		return nil, 0, err
	}
	return res.Notes, res.Cost, nil
}

// Verify checks the soundness and cost bound of a consolidation on
// concrete inputs: the merged program must broadcast exactly the union of
// the originals' notifications at no greater total cost. It returns an
// error describing the first violation.
func Verify(origs []*Program, merged *Program, lib Library, inputs [][]int64, renumbered bool) error {
	return consolidate.Verify(origs, merged, lib, nil, inputs, renumbered)
}

// CompileLINQ compiles a C#-style filter lambda — the paper's LINQ
// where-clause surface syntax — into a Program. String literals are
// interned through st (see NewStrings); pass nil when the filter uses no
// strings.
//
//	st := consolidation.NewStrings()
//	p, err := consolidation.CompileLINQ("q1",
//	    `fi => fi.airlineName == "united" && fi.price < 200`, 1, st)
func CompileLINQ(name, src string, notifyID int, st *Strings) (*Program, error) {
	return linq.Compile(name, src, notifyID, st)
}

// Strings interns string literals shared between compiled LINQ filters and
// the record library answering string-valued fields.
type Strings = linq.Strings

// NewStrings returns an empty string-interning table.
func NewStrings() *Strings { return linq.NewStrings() }

// AggProgram is a windowed aggregation UDF: declared accumulators, a
// per-record fold over a bounded window, and a notification emit that runs
// when the window closes. The concrete syntax is
//
//	agg hot(r) window 4 by cityOf {
//	  acc n = 0;
//	  fold { t := tempObs(r); if (20 < t) { n := n + 1; } }
//	  emit { notify 0 (n >= 2); }
//	}
//
// where `window k` groups the stream into tumbling windows of k records
// and the optional `by f` partitions by the value of library function f
// first (per-key windows).
type AggProgram = lang.AggProgram

// WindowSpec describes how a stream is grouped into windows: a size in
// records and an optional key-partitioning library function.
type WindowSpec = lang.WindowSpec

// AggGroup is one window-aligned set of aggregations merged into a shared
// fold and emit, with the per-accumulator combine operators when the
// merged fold verified homomorphic.
type AggGroup = consolidate.AggGroup

// ParseAgg parses one windowed aggregation from source text.
func ParseAgg(src string) (*AggProgram, error) { return lang.ParseAgg(src) }

// ParseAggs parses a sequence of windowed aggregations from one source
// text.
func ParseAggs(src string) ([]*AggProgram, error) { return lang.ParseAggs(src) }

// MustParseAgg is ParseAgg that panics on error.
func MustParseAgg(src string) *AggProgram { return lang.MustParseAgg(src) }

// FormatAgg renders an aggregation as re-parseable source text.
func FormatAgg(a *AggProgram) string { return lang.FormatAgg(a) }

// MergeAggs consolidates a batch of windowed aggregations: aggregations
// with identical window specifications merge into one AggGroup each, whose
// shared fold traverses the window once for every member. Groups whose
// merged fold is homomorphic (sum/max/min accumulators, SMT-verified) may
// additionally be executed as per-batch partials combined at window close.
func MergeAggs(aggs []*AggProgram, opts Options) ([]*AggGroup, error) {
	return consolidate.MergeAggs(aggs, opts)
}
