// Package engine is a miniature data-parallel query engine in the style of
// the Naiad system the paper builds on (Section 6.1): records stream from a
// dataset through filter operators that evaluate user-defined functions
// written in the formal language, with the stream partitioned across
// workers. Two operators matter for the evaluation:
//
//   - WhereMany evaluates n UDFs sequentially per record in a single pass
//     over the data (the paper's fair baseline — IO is already shared).
//   - WhereConsolidated consolidates the n UDFs into one program first and
//     evaluates that per record.
//
// Comparing the two isolates exactly the benefit of UDF consolidation, as
// in Figures 9 and 10.
//
// Every pass — these two, the live WhereSharded, and the windowed
// aggregations — runs on one claim loop (runClaims): the record
// stream is cut into fixed-size contiguous batches that workers claim
// dynamically. Every merged program runs in one evaluator (pass.go): per
// batch, the admission guards over the lite-decode span, then one full
// decode per admitted record and the merged-program VMs, so snapshot checks
// and guard setup are amortized across the batch, and the UDF clock is read
// on a one-in-eight sample of records (udfClock). The static pass and a
// sharded snapshot are two configurations of it. Verdicts, costs, and
// per-notification stamps are byte-identical at every Workers/BatchSize
// combination: every accumulation a pass performs is a commutative sum, and
// each verdict row is written by exactly one worker. Every filter pass
// reports its scalar totals in one record, Metrics, which Result and
// ShardedResult embed; Metrics.Invariant is the part that must repeat at
// every Workers × BatchSize.
package engine

import (
	"fmt"
	"runtime"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/smt"
)

// RecordLibrary is a dataset: a sequence of records plus the library
// functions UDFs use to access the current record's fields. SetRecord
// performs any per-record decoding, so each pass over the data pays the
// ingest cost exactly once per record, mirroring shared IO.
type RecordLibrary interface {
	lang.Library
	// NumRecords reports the dataset size.
	NumRecords() int
	// SetRecord selects (and decodes) the record subsequent calls refer to.
	SetRecord(i int)
	// Clone returns an independent view for another worker goroutine.
	Clone() RecordLibrary
}

// LiteRecordLibrary is a dataset whose cheap columnar accessors work without
// the full per-record decode: SetRecordLite selects a record for those
// accessors only, at near-zero cost. The admission pre-filter uses it to
// reject records before paying SetRecord.
type LiteRecordLibrary interface {
	RecordLibrary
	// SetRecordLite selects a record for the lite-safe accessors without
	// decoding it. Calling a non-lite function afterwards is an error.
	SetRecordLite(i int)
	// LiteCostBound returns the largest abstract cost of any lite-safe
	// function; guard synthesis is restricted to calls priced within it.
	LiteCostBound() int64
}

// LiteSpanLibrary is an optional LiteRecordLibrary extension for batched
// lite decoding: SetRecordLiteSpan(lo, hi) prepares the contiguous record
// span [lo, hi) for lite access in one call, so the per-record
// SetRecordLite inside the span only has to select the index — any
// invalidation of full-decode state happens once per span instead of once
// per record. A subsequent SetRecord ends the span (the guard stage is
// over). Verdicts must be byte-identical with and without the span hook.
type LiteSpanLibrary interface {
	LiteRecordLibrary
	// SetRecordLiteSpan prepares records [lo, hi) for lite selection.
	SetRecordLiteSpan(lo, hi int)
}

// Metrics is the one record of a filter pass's scalar totals: WhereMany,
// WherePlan and WhereSharded fill the same fields, and the evaluator's
// workers add into it directly. Every total but Batches, Swaps and the two
// wall times is a commutative per-record sum, so it is byte-identical at
// every Workers × BatchSize over the same input (see Invariant).
type Metrics struct {
	Records int
	// Batches counts batch dispatches (ceil(Records / batch size) on a
	// completed pass). Swaps counts generation changes a worker picked up at
	// a batch boundary of a live pass, so with several workers it depends
	// on scheduling. Each swap took effect atomically at a batch boundary,
	// so Swaps <= Batches and every record of a batch was evaluated against
	// the same generation; a static pass never swaps.
	Batches int
	Swaps   int
	// PendingRuns counts verbatim executions of not-yet-consolidated
	// queries; SuppressedNotifies counts notifications dropped because the
	// query unsubscribed after the running program was built. Both are
	// summed across clusters and zero on a static pass and while the served
	// snapshots are clean.
	PendingRuns        int
	SuppressedNotifies int
	// UDFCost is the summed abstract cost (Figure 2 semantics) of all UDF
	// evaluations — the engine-independent measure of computation: every
	// cluster's guard, merged program and pending queries, or whereMany's
	// UDFs one by one.
	UDFCost int64
	// GuardCost is the summed abstract cost of guard evaluations; it is also
	// included in UDFCost (the guard is part of the work the pass performs).
	GuardCost int64
	// Admitted and Rejected count the admission pre-filter's
	// per-(record, cluster) verdicts: each record receives one verdict from
	// every cluster of its batch's generation (clusters without a usable
	// guard admit unconditionally), so Admitted+Rejected = Records ×
	// Clusters on a quiescent pass. Unfiltered passes admit every record.
	Admitted int
	Rejected int
	// UDFTime is wall time spent inside UDF evaluation, full decode
	// excluded — the quantity Figures 9 and 10 compare. The guard stage is
	// measured, per batch, and includes the lite decode. Merged-program,
	// pending-query and whereMany evaluation are a sampled estimate: the
	// runs on every eighth record (by record index) are timed and the sum is
	// scaled by runs ÷ timed runs, per worker, so the pass does not read the
	// clock twice per record. All operators use the same estimator, so
	// their ratio stays like for like.
	UDFTime time.Duration
	// TotalTime is wall time for the whole pass, including record decode
	// and result collection.
	TotalTime time.Duration
}

// Invariant returns m without the totals that depend on the dispatch shape
// (Batches, Swaps, UDFTime, TotalTime): what is left is equal at every
// Workers × BatchSize over the same input, so parity checks compare the
// two results' Invariant with ==.
func (m Metrics) Invariant() Metrics {
	m.Batches, m.Swaps, m.UDFTime, m.TotalTime = 0, 0, 0, 0
	return m
}

// add folds one worker's totals into m.
func (m *Metrics) add(w Metrics) {
	m.Records += w.Records
	m.Batches += w.Batches
	m.Swaps += w.Swaps
	m.PendingRuns += w.PendingRuns
	m.SuppressedNotifies += w.SuppressedNotifies
	m.UDFCost += w.UDFCost
	m.GuardCost += w.GuardCost
	m.Admitted += w.Admitted
	m.Rejected += w.Rejected
	m.UDFTime += w.UDFTime
	m.TotalTime += w.TotalTime
}

// Result of a filter operator: Bools[i][q] reports whether record i passed
// UDF q, the per-UDF counts, and the pass's totals.
type Result struct {
	Bools [][]bool
	UDFs  int
	// Selected counts records each UDF accepted.
	Selected []int
	// LatencySum[q] accumulates, over all records, the abstract cost at
	// which UDF q's notification was broadcast (counting, under whereMany,
	// the cost of the UDFs that ran before it on that record). Divided by
	// Records it is the mean notification latency the paper's Section 8
	// discusses: consolidation optimises completion time and may trade
	// individual-query latency for it.
	LatencySum []int64
	Metrics
}

// MeanLatency returns the average notification latency of UDF q in cost
// units, or 0 when nothing ran.
func (r *Result) MeanLatency(q int) float64 {
	if r.Records == 0 || q < 0 || q >= len(r.LatencySum) {
		return 0
	}
	return float64(r.LatencySum[q]) / float64(r.Records)
}

// DefaultBatchSize is the records-per-batch used when Options.BatchSize is
// zero: large enough to amortize dispatch, snapshot checks, and guard-stage
// timer reads, small enough that registry generation swaps (which take
// effect only at batch boundaries) stay responsive mid-stream.
const DefaultBatchSize = 256

// Options configures operator execution.
type Options struct {
	// Workers is the number of parallel workers; 0 means GOMAXPROCS.
	Workers int
	// BatchSize is the number of records a worker claims per dispatch; 0
	// means DefaultBatchSize. 1 reproduces record-at-a-time dispatch
	// (verdicts are byte-identical either way; only amortization changes).
	// An aggregation fold claims runs of whole windows of at least
	// BatchSize records, and cuts a longer homomorphic window every
	// BatchSize records.
	BatchSize int
	// MaxSteps guards against diverging UDFs; 0 disables the guard.
	MaxSteps int64
	// PrefilterCache, when set, backs the SMT queries of guard synthesis so
	// repeated consolidations share validity verdicts.
	PrefilterCache *smt.Cache
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runner builds a VM runner for c over lib, bounded by MaxSteps.
func (o Options) runner(c *lang.Compiled, lib RecordLibrary) *lang.Runner {
	rn := lang.NewRunner(c, lib)
	rn.MaxSteps = o.MaxSteps
	return rn
}

func (o Options) batchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return DefaultBatchSize
}

// notifyIDOf validates a filter UDF — it takes exactly the record parameter
// and broadcasts exactly one notification id — and returns that id.
func notifyIDOf(p *lang.Program) (id int, err error) {
	if len(p.Params) != 1 {
		return 0, fmt.Errorf("engine: UDF %s must take exactly the record parameter", p.Name)
	}
	ids := lang.NotifyIDs(p.Body)
	if len(ids) != 1 {
		return 0, fmt.Errorf("engine: UDF %s must notify exactly one id, has %d", p.Name, len(ids))
	}
	for id = range ids {
	}
	return id, nil
}

// newResult allocates the verdict rows of a whole pass over one backing
// array (not one []bool per record), pre-sliced with full slice expressions
// so rows stay independent; record i's row is backing[i*nUDFs:(i+1)*nUDFs].
func newResult(n, nUDFs int, opts Options) (*Result, []bool) {
	backing := make([]bool, n*nUDFs)
	rows := make([][]bool, n)
	for i := range rows {
		off := i * nUDFs
		rows[i] = backing[off : off+nUDFs : off+nUDFs]
	}
	return &Result{Bools: rows, UDFs: nUDFs, LatencySum: make([]int64, nUDFs),
		Metrics: Metrics{Records: n, Batches: opts.batches(n)}}, backing
}

// WhereMany evaluates every UDF on every record in one pass, sequentially
// per record — the whereMany operator of Section 6.1, and the reference the
// merged paths are diffed against: it shares the claim loop with them and
// nothing else.
func WhereMany(data RecordLibrary, udfs []*lang.Program, opts Options) (*Result, error) {
	ids := make([]int, len(udfs))
	compiled := make([]*lang.Compiled, len(udfs))
	for i, p := range udfs {
		var err error
		if ids[i], err = notifyIDOf(p); err != nil {
			return nil, err
		}
		if compiled[i], err = lang.Compile(p); err != nil {
			return nil, fmt.Errorf("engine: compiling %s: %w", p.Name, err)
		}
	}
	start := time.Now()
	n := data.NumRecords()
	res, backing := newResult(n, len(udfs), opts)
	err := runClaims(data, opts.workers(), res.Batches, func(lib RecordLibrary) (run func(int) error, fold func(), err error) {
		w, err := newManyWorker(lib, udfs, compiled, ids, opts)
		run = func(b int) error {
			lo, hi := opts.span(b, n)
			return w.evalBatch(lo, hi, backing[lo*len(udfs):hi*len(udfs)])
		}
		fold = func() {
			res.UDFCost += w.cost
			res.UDFTime += w.clock.total(0)
			for q, v := range w.lat {
				res.LatencySum[q] += v
			}
		}
		return run, fold, err
	})
	if err != nil {
		return nil, err
	}
	res.Admitted = n
	res.TotalTime = time.Since(start)
	finishMetrics(res, backing)
	return res, nil
}

// manyWorker is one worker's WhereMany state: one runner per UDF, resolved
// and arity-checked once, then driven through the single-argument batch
// entry point record by record.
type manyWorker struct {
	lib     RecordLibrary
	udfs    []*lang.Program
	ids     []int
	runners []*lang.Runner
	noteIdx []int
	lat     []int64
	cost    int64
	clock   udfClock
}

func newManyWorker(lib RecordLibrary, udfs []*lang.Program, compiled []*lang.Compiled, ids []int, opts Options) (*manyWorker, error) {
	w := &manyWorker{lib: lib, udfs: udfs, ids: ids, lat: make([]int64, len(udfs)), clock: newUDFClock()}
	for i, c := range compiled {
		rn := opts.runner(c, lib)
		if err := rn.BeginBatch1(); err != nil {
			return nil, err
		}
		// The id is statically present (notifyIDOf found it), so the dense
		// note slot resolves here, outside the batch loop.
		k, _ := c.NoteIndex(ids[i])
		w.runners, w.noteIdx = append(w.runners, rn), append(w.noteIdx, k)
	}
	return w, nil
}

// evalBatch evaluates records [lo, hi) into rows, their flat verdict rows.
func (w *manyWorker) evalBatch(lo, hi int, rows []bool) error {
	n := len(w.runners)
	for i := lo; i < hi; i++ {
		w.lib.SetRecord(i)
		row := rows[(i-lo)*n : (i-lo+1)*n]
		var recCost int64
		w.clock.start(i)
		for q, rn := range w.runners {
			c, err := rn.RunDense1(int64(i))
			if err != nil {
				return fmt.Errorf("engine: UDF %s on record %d: %w", w.udfs[q].Name, i, err)
			}
			v, ok := rn.NoteAt(w.noteIdx[q])
			if !ok {
				return fmt.Errorf("engine: UDF %s did not notify id %d on record %d", w.udfs[q].Name, w.ids[q], i)
			}
			// Sequential execution: this UDF's notification waited for
			// all earlier UDFs on this record.
			w.lat[q] += recCost + rn.NoteCostAt(w.noteIdx[q])
			recCost += c
			row[q] = v
		}
		w.clock.stop()
		w.cost += recCost
	}
	return nil
}

// ConsolidatedResult extends Result with the plan the pass ran: the
// merged program, its guard (nil when the plan was prepared without one;
// trivial guards are synthesized but not executed) and what preparing them
// cost.
type ConsolidatedResult struct {
	Result
	consolidate.Plan
}

// WhereConsolidated consolidates the UDFs into a single program (notify ids
// renumbered to UDF positions) and evaluates it once per record — the
// whereConsolidated operator of Section 6.1. It is Prepare then WherePlan.
func WhereConsolidated(data RecordLibrary, udfs []*lang.Program, copts consolidate.Options, opts Options) (*ConsolidatedResult, error) {
	leaves := make([]consolidate.Leaf, len(udfs))
	for i, p := range udfs {
		if _, err := notifyIDOf(p); err != nil {
			return nil, err
		}
		leaves[i] = consolidate.Leaf{ID: i, Prog: p}
	}
	if copts.FuncCoster == nil {
		copts.FuncCoster = data
	}
	// The admission pre-filter is a sound necessary condition for any
	// notification, restricted to calls the dataset can answer without a
	// full record decode. Synthesis cannot fail — workloads whose notify
	// conditions need only expensive calls get the trivial guard, and the
	// filter stage is skipped entirely (byte-identical to the unfiltered
	// pass). A non-trivial guard's calls are within LiteCostBound by
	// construction (it was the synthesis fragment bound), so the guard can
	// run after SetRecordLite.
	guard := &prefilter.Options{Coster: data, Cache: opts.PrefilterCache}
	if lite, ok := data.(LiteRecordLibrary); ok {
		guard.MaxCallCost = lite.LiteCostBound()
	}
	plan, err := consolidate.Prepare(leaves, copts, runtime.GOMAXPROCS(0), nil, guard)
	if err != nil {
		return nil, err
	}
	return WherePlan(data, plan, opts)
}

// WherePlan evaluates a prepared plan once per record: the pass of
// WhereConsolidated without the consolidation, so a resubmitted query set
// pays for its plan once. Verdict row q is the plan's leaf q.
//
// The static pass is the live pass's degenerate case: one cluster, one
// generation that never changes (0), nothing pending. Its slot rows are the
// result rows of the batch and its latency buckets fold straight into
// LatencySum, so nothing is copied or published.
func WherePlan(data RecordLibrary, plan *consolidate.Plan, opts Options) (*ConsolidatedResult, error) {
	start := time.Now()
	n, nUDFs := data.NumRecords(), plan.Multi.Programs
	fixed := []*registry.Snapshot{{Plan: *plan, Slots: make([]registry.QueryID, nUDFs)}}
	res, backing := newResult(n, nUDFs, opts)
	err := runClaims(data, opts.workers(), res.Batches, func(lib RecordLibrary) (run func(int) error, fold func(), err error) {
		e := newEvaluator(lib, opts)
		err = e.swap(0, fixed)
		run = func(b int) error {
			lo, hi := opts.span(b, n)
			e.cls[0].slotVals = backing[lo*nUDFs : hi*nUDFs]
			return e.evalBatch(lo, hi)
		}
		fold = func() {
			res.add(e.totals())
			for q, v := range e.cls[0].latSlot {
				res.LatencySum[q] += v
			}
		}
		return run, fold, err
	})
	if err != nil {
		return nil, err
	}
	res.TotalTime = time.Since(start)
	finishMetrics(res, backing)
	return &ConsolidatedResult{Result: *res, Plan: *plan}, nil
}

// finishMetrics counts Selected over the pass's flat verdict array
// (record-major, r.UDFs cells per record). Verdicts are data-dependent, so
// the cell is added as a number — the compiler turns the conditional
// assignment into a zero-extension of the bool — not branched on.
func finishMetrics(r *Result, backing []bool) {
	sel := make([]int, r.UDFs)
	for off := 0; off < len(backing); off += len(sel) {
		for q, v := range backing[off : off+len(sel)] {
			one := 0
			if v {
				one = 1
			}
			sel[q] += one
		}
	}
	r.Selected = sel
}

// SameResults reports whether two operator results selected exactly the
// same records per UDF; used to validate whereConsolidated against
// whereMany.
func SameResults(a, b *Result) bool {
	if len(a.Bools) != len(b.Bools) {
		return false
	}
	for i := range a.Bools {
		if len(a.Bools[i]) != len(b.Bools[i]) {
			return false
		}
		for q := range a.Bools[i] {
			if a.Bools[i][q] != b.Bools[i][q] {
				return false
			}
		}
	}
	return true
}
