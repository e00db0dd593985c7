package oracle

import (
	"fmt"
	"math/rand"

	"consolidation/internal/consolidate"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/smt"
)

// inputLibrary adapts a batch's probe inputs into an engine dataset:
// record i is b.Inputs[i], exposed through per-parameter accessors p0,
// p1, … (cost 4, lite-safe: they answer straight from the input table
// after a lite select) while the batch library's scan functions u, w, sq,
// mix2 keep their Lib() semantics and costs but demand the full SetRecord
// "decode" first — so a batched pass that runs the merged program without
// decoding, or decodes without ending the lite span, faults loudly instead
// of silently diverging.
type inputLibrary struct {
	inputs [][]int64

	curIdx int
	ok     bool
	inSpan bool
}

func newInputLibrary(inputs [][]int64) *inputLibrary {
	return &inputLibrary{inputs: inputs, curIdx: -1}
}

func (d *inputLibrary) NumRecords() int { return len(d.inputs) }
func (d *inputLibrary) SetRecord(i int) {
	d.curIdx = i
	d.ok = true
	d.inSpan = false
}
func (d *inputLibrary) SetRecordLite(i int) {
	d.curIdx = i
	if !d.inSpan {
		d.ok = false
	}
}
func (d *inputLibrary) SetRecordLiteSpan(lo, hi int) {
	d.curIdx = -1
	d.ok = false
	d.inSpan = true
}
func (d *inputLibrary) LiteCostBound() int64 { return 4 }
func (d *inputLibrary) Clone() engine.RecordLibrary {
	return &inputLibrary{inputs: d.inputs, curIdx: -1}
}

func (d *inputLibrary) FuncCost(name string) (int64, bool) {
	switch name {
	case "u":
		return 25, true
	case "w":
		return 15, true
	case "sq":
		return 30, true
	case "mix2":
		return 40, true
	}
	if len(name) >= 2 && name[0] == 'p' {
		return 4, true
	}
	return 0, false
}

func (d *inputLibrary) Call(name string, args []int64) (int64, error) {
	switch name {
	case "u", "w", "sq", "mix2":
		if !d.ok {
			return 0, fmt.Errorf("inputLibrary: %s called on an undecoded record (index %d)", name, d.curIdx)
		}
		switch name {
		case "u":
			return (3*args[0]-7)%101 - 20, nil
		case "w":
			return -args[0] + 2, nil
		case "sq":
			return (args[0]*args[0])%31 - 15, nil
		default:
			return (3*args[0]-args[1]+5)%53 - 26, nil
		}
	}
	var j int
	if _, err := fmt.Sscanf(name, "p%d", &j); err != nil {
		return 0, fmt.Errorf("inputLibrary: no function %q", name)
	}
	if d.curIdx < 0 || d.curIdx >= len(d.inputs) {
		return 0, fmt.Errorf("inputLibrary: %s called with no record selected", name)
	}
	row := d.inputs[d.curIdx]
	if j < 0 || j >= len(row) {
		return 0, fmt.Errorf("inputLibrary: %s out of range for %d-column record", name, len(row))
	}
	return row[j], nil
}

// wrapForEngine turns a generated multi-parameter query into the engine's
// single-parameter shape: parameters become locals read through the lite
// parameter accessors, so the program's record-dependence flows through the
// library exactly as an engine UDF's does.
func wrapForEngine(p *lang.Program) *lang.Program {
	pre := make([]lang.Stmt, 0, len(p.Params))
	for j, prm := range p.Params {
		pre = append(pre, lang.Assign{Var: prm, E: lang.Call{
			Func: fmt.Sprintf("p%d", j),
			Args: []lang.IntExpr{lang.Var{Name: "r"}},
		}})
	}
	return &lang.Program{
		Name:   p.Name,
		Params: []string{"r"},
		Body:   lang.SeqOf(append(pre, p.Body)...),
	}
}

// diffResults reports the first divergence between a batched run and the
// record-at-a-time reference: verdict bits, abstract costs (total and
// guard share), admission counts, per-query latency stamp sums, or
// selectivity counters. Wall-clock fields are exempt — they are the only
// fields allowed to differ.
func diffResults(label string, ref, got *engine.Result) string {
	if len(ref.Bools) != len(got.Bools) {
		return fmt.Sprintf("%s: %d verdict rows, reference has %d", label, len(got.Bools), len(ref.Bools))
	}
	for i := range ref.Bools {
		for q := range ref.Bools[i] {
			if ref.Bools[i][q] != got.Bools[i][q] {
				return fmt.Sprintf("%s: verdict [record %d, query %d] is %v, reference says %v",
					label, i, q, got.Bools[i][q], ref.Bools[i][q])
			}
		}
	}
	if ref.UDFCost != got.UDFCost {
		return fmt.Sprintf("%s: UDF cost %d, reference %d", label, got.UDFCost, ref.UDFCost)
	}
	if ref.GuardCost != got.GuardCost {
		return fmt.Sprintf("%s: guard cost %d, reference %d", label, got.GuardCost, ref.GuardCost)
	}
	if ref.Admitted != got.Admitted || ref.Rejected != got.Rejected {
		return fmt.Sprintf("%s: admitted/rejected %d/%d, reference %d/%d",
			label, got.Admitted, got.Rejected, ref.Admitted, ref.Rejected)
	}
	for q := range ref.LatencySum {
		if ref.LatencySum[q] != got.LatencySum[q] {
			return fmt.Sprintf("%s: latency stamp sum of query %d is %d, reference %d",
				label, q, got.LatencySum[q], ref.LatencySum[q])
		}
	}
	for q := range ref.Selected {
		if ref.Selected[q] != got.Selected[q] {
			return fmt.Sprintf("%s: selected[%d] = %d, reference %d", label, q, got.Selected[q], ref.Selected[q])
		}
	}
	return ""
}

// batchSizesFor picks the adversarial batch sizes for an n-record stream:
// a small ragged size, an exact divisor (whole batches only), and a size
// larger than the stream (one batch, workers idle).
func batchSizesFor(n int, rng *rand.Rand) []int {
	div := n
	for d := n / 2; d >= 2; d-- {
		if n%d == 0 {
			div = d
			break
		}
	}
	return []int{7, div, n + 1 + rng.Intn(16)}
}

// parityMatrix calls run at each adversarial Workers × BatchSize
// combination for an n-record stream: batchSizesFor's sizes, drawn from
// rng, paired with workers 2, 3 and 4, labelled "workers=W batch=B".
func parityMatrix(n int, rng *rand.Rand, run func(opts engine.Options, label string) *Failure) *Failure {
	workers := []int{2, 3, 4}
	for si, bs := range batchSizesFor(n, rng) {
		w := workers[si%len(workers)]
		if f := run(engine.Options{Workers: w, BatchSize: bs}, fmt.Sprintf("workers=%d batch=%d", w, bs)); f != nil {
			return f
		}
	}
	return nil
}

// engineUDFs wraps each of the batch's queries for the engine and keeps
// those that notify on every probe input: engine filter UDFs must, and the
// generator's partial-notify shapes (legal for consolidation) are screened
// out by replaying each wrapped query over the inputs.
func engineUDFs(b *Batch) ([]*lang.Program, *Failure) {
	udfs := make([]*lang.Program, 0, len(b.Progs))
	probe := newInputLibrary(b.Inputs)
	for _, p := range b.Progs {
		w := wrapForEngine(p)
		total := true
		for i := range b.Inputs {
			probe.SetRecord(i)
			res, err := run(probe, w, []int64{int64(i)})
			if err != nil {
				return nil, failf(CheckErr, b, "wrapped %s on record %d: %v", w.Name, i, err)
			}
			if _, ok := res.Notes[1]; !ok {
				total = false
				break
			}
		}
		if total {
			udfs = append(udfs, w)
		}
	}
	return udfs, nil
}

// CheckBatchParity holds the batched engine dispatch to its determinism
// contract on a generated batch: the probe inputs become an engine
// dataset, the batch's queries become engine UDFs, and every
// Workers/BatchSize combination — ragged sizes, exact divisors, a batch
// larger than the stream — must reproduce the record-at-a-time reference
// (Workers 1, BatchSize 1) byte-identically on both operators: verdicts,
// total and guard costs, admission counts, latency stamp sums, and
// selectivities. nil means every combination matched.
func CheckBatchParity(b *Batch) *Failure {
	if len(b.Inputs) == 0 {
		return nil
	}
	udfs, f := engineUDFs(b)
	if f != nil || len(udfs) == 0 {
		return f
	}
	d := newInputLibrary(b.Inputs)
	copts := consolidate.Options{Cache: smt.NewCache(0)}
	pcache := smt.NewCache(0)

	manyRef, err := engine.WhereMany(d, udfs, engine.Options{Workers: 1, BatchSize: 1})
	if err != nil {
		return failf(CheckErr, b, "whereMany reference: %v", err)
	}
	consRef, err := engine.WhereConsolidated(d, udfs, copts,
		engine.Options{Workers: 1, BatchSize: 1, PrefilterCache: pcache})
	if err != nil {
		return failf(CheckErr, b, "whereConsolidated reference: %v", err)
	}

	rng := rand.New(rand.NewSource(b.Seed ^ 0x6B57C4ED))
	return parityMatrix(len(b.Inputs), rng, func(opts engine.Options, label string) *Failure {
		opts.PrefilterCache = pcache
		many, err := engine.WhereMany(d, udfs, opts)
		if err != nil {
			return failf(CheckErr, b, "whereMany %s: %v", label, err)
		}
		if msg := diffResults("whereMany "+label, manyRef, many); msg != "" {
			return failf(CheckBatch, b, "%s", msg)
		}
		cons, err := engine.WhereConsolidated(d, udfs, copts, opts)
		if err != nil {
			return failf(CheckErr, b, "whereConsolidated %s: %v", label, err)
		}
		if msg := diffResults("whereConsolidated "+label, &consRef.Result, &cons.Result); msg != "" {
			return failf(CheckBatch, b, "%s", msg)
		}
		return nil
	})
}
