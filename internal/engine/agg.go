package engine

import (
	"fmt"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
)

// Windowed aggregation operators. AggregateMany is the fair baseline: each
// aggregation folds the stream on its own, paying its own traversal (and
// its own record decodes and accessor calls). AggregateConsolidated merges
// window-aligned aggregations first (consolidate.MergeAggs) so one
// traversal feeds every member, then dispatches the merged fold over the
// batched worker pool. Workers claim runs of whole windows of at least
// BatchSize records and fold each window serially from the declared inits,
// as the serial fold does. A homomorphic group's window longer than
// BatchSize is also cut every BatchSize records: its first piece folds from
// the inits, each later piece from the combine identities into its claim's
// partial row, and a serial pass combines the partials in stream order.
// Outputs are byte-identical to the serial fold at every Workers ×
// BatchSize; the cuts, and so the fold cost, depend on BatchSize alone.
//
// Abstract fold COST of a cut window differs from the serial fold's when
// the fold branches on accumulator state (a max guard fires a different
// number of times when a piece starts from the identity), so costs are
// compared across Workers at one BatchSize, never across BatchSizes.

// AggOutput is one aggregation's emitted verdicts over the stream.
type AggOutput struct {
	// Name is the aggregation's name.
	Name string
	// IDs are the aggregation's notification ids, sorted; column j of every
	// window row is IDs[j].
	IDs []int
	// Windows is the number of windows emitted (closed windows in close
	// order, then the trailing partial windows in open order; empty windows
	// do not exist — a window opens with its first record).
	Windows int
	// Vals holds Windows × len(IDs) verdicts: 1 true, 0 false, -1 for a
	// notification the emit program did not broadcast for that window.
	Vals []int8
	// Keys holds the per-window key for key-partitioned aggregations; nil
	// in count mode.
	Keys []int64
}

// At returns the verdict of notification column j in window w.
func (o *AggOutput) At(w, j int) int8 {
	return o.Vals[w*len(o.IDs)+j]
}

// AggMetrics summarises one aggregation pass.
type AggMetrics struct {
	Records int
	Aggs    int
	// Groups is the number of shared traversals (window-aligned merge
	// groups); equals Aggs for the unmerged baseline.
	Groups int
	// Windows is the total number of window instances emitted, summed over
	// traversals.
	Windows int
	// Batches counts fold claims, each a run of whole windows or a piece of
	// a cut one; 0 for the serial baseline.
	Batches int
	// FoldCost, EmitCost, and KeyCost are abstract costs (Figure 2
	// semantics) of the fold, emit, and key-extraction stages; UDFCost is
	// their sum. Fold cost is the serial fold's unless a window is cut; a
	// cut depends on BatchSize alone, so every cost repeats at every
	// Workers.
	FoldCost int64
	EmitCost int64
	KeyCost  int64
	UDFCost  int64
	// UDFTime is wall time inside fold/emit/key evaluation.
	UDFTime time.Duration
	// TotalTime is wall time of the whole pass.
	TotalTime time.Duration
}

// AggResult is the outcome of an aggregation pass: one output per input
// aggregation, in input order.
type AggResult struct {
	Outputs []*AggOutput
	AggMetrics
}

// ConsolidatedAggResult extends AggResult with consolidation statistics.
type ConsolidatedAggResult struct {
	AggResult
	// ConsolidateTime is the time spent merging the aggregations.
	ConsolidateTime time.Duration
	// Groups are the merged traversal groups actually executed.
	Groups []*consolidate.AggGroup
}

// SameAggResults reports whether two aggregation passes emitted exactly
// the same windows with the same verdicts (and keys).
func SameAggResults(a, b *AggResult) bool {
	if len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		x, y := a.Outputs[i], b.Outputs[i]
		if x.Windows != y.Windows || len(x.IDs) != len(y.IDs) || len(x.Vals) != len(y.Vals) || len(x.Keys) != len(y.Keys) {
			return false
		}
		for j := range x.IDs {
			if x.IDs[j] != y.IDs[j] {
				return false
			}
		}
		for j := range x.Vals {
			if x.Vals[j] != y.Vals[j] {
				return false
			}
		}
		for j := range x.Keys {
			if x.Keys[j] != y.Keys[j] {
				return false
			}
		}
	}
	return true
}

// aggRunner drives one compiled fold/emit pair record by record: RunDense
// with [record, accs...], accumulators read back through their slots —
// zero allocations per record in steady state.
type aggRunner struct {
	foldC *lang.Compiled
	emitC *lang.Compiled
	slots []int // fold slot index of each accumulator
	// noteIdx is the emit's dense note slot per output column.
	noteIdx []int
}

func newAggRunner(fold, emit *lang.Program, accs []string, outIDs []int) (*aggRunner, error) {
	fc, err := lang.Compile(fold)
	if err != nil {
		return nil, fmt.Errorf("engine: compiling %s: %w", fold.Name, err)
	}
	ec, err := lang.Compile(emit)
	if err != nil {
		return nil, fmt.Errorf("engine: compiling %s: %w", emit.Name, err)
	}
	r := &aggRunner{foldC: fc, emitC: ec, slots: make([]int, len(accs)), noteIdx: make([]int, len(outIDs))}
	for i, a := range accs {
		s, ok := fc.SlotIndex(a)
		if !ok {
			return nil, fmt.Errorf("engine: fold %s never assigns accumulator %q", fold.Name, a)
		}
		r.slots[i] = s
	}
	for i, id := range outIDs {
		k, ok := ec.NoteIndex(id)
		if !ok {
			return nil, fmt.Errorf("engine: emit %s cannot broadcast notification %d", emit.Name, id)
		}
		r.noteIdx[i] = k
	}
	return r, nil
}

// newGroupRunner compiles a merged group's fold/emit pair against its
// accumulators and dense output columns, and returns the declared inits.
func newGroupRunner(g *consolidate.AggGroup) (*aggRunner, []int64, error) {
	accNames := make([]string, len(g.Accs))
	inits := make([]int64, len(g.Accs))
	for i, d := range g.Accs {
		accNames[i], inits[i] = d.Name, d.Init
	}
	denseIDs := make([]int, len(g.Outputs))
	for i := range denseIDs {
		denseIDs[i] = i
	}
	r, err := newAggRunner(g.Fold, g.Emit, accNames, denseIDs)
	return r, inits, err
}

// folder is one goroutine's fold state over its own library view: the fold
// runner, its argument scratch, and the abstract cost folded so far.
type folder struct {
	r    *aggRunner
	rn   *lang.Runner
	lib  RecordLibrary
	args []int64 // [record, accs...]
	cost int64
}

func (r *aggRunner) folder(lib RecordLibrary, opts Options) *folder {
	return &folder{r: r, rn: opts.runner(r.foldC, lib), lib: lib, args: make([]int64, 1+len(r.slots))}
}

// step folds record i into accs in place.
func (f *folder) step(i int, accs []int64) error {
	f.lib.SetRecord(i)
	f.args[0] = int64(i)
	copy(f.args[1:], accs)
	c, err := f.rn.RunDense(f.args)
	if err != nil {
		return fmt.Errorf("engine: fold on record %d: %w", i, err)
	}
	for a, s := range f.r.slots {
		if v, ok := f.rn.SlotAt(s); ok {
			accs[a] = v
		}
	}
	f.cost += c
	return nil
}

// emitWindow runs the emit over final accumulator values and appends one
// int8 verdict per output column to dst.
func (r *aggRunner) emitWindow(rn *lang.Runner, accs []int64, dst []int8) ([]int8, int64, error) {
	c, err := rn.RunDense(accs)
	if err != nil {
		return dst, 0, fmt.Errorf("engine: emit: %w", err)
	}
	for _, k := range r.noteIdx {
		v, ok := rn.NoteAt(k)
		switch {
		case !ok:
			dst = append(dst, -1)
		case v:
			dst = append(dst, 1)
		default:
			dst = append(dst, 0)
		}
	}
	return dst, c, nil
}

// extractKeysSerial computes the key of every record with the window's key
// function.
func extractKeysSerial(data RecordLibrary, keyFunc string, n int) ([]int64, int64, error) {
	keys := make([]int64, n)
	var cost int64
	kc, _ := data.FuncCost(keyFunc)
	arg := make([]int64, 1)
	for i := 0; i < n; i++ {
		data.SetRecord(i)
		arg[0] = int64(i)
		k, err := data.Call(keyFunc, arg)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: key function %s on record %d: %w", keyFunc, i, err)
		}
		keys[i] = k
		cost += kc
	}
	return keys, cost, nil
}

// AggregateMany evaluates every aggregation on its own serial pass over
// the stream — the unmerged baseline and the replay reference the oracle
// compares the consolidated operator against.
func AggregateMany(data RecordLibrary, aggs []*lang.AggProgram, opts Options) (*AggResult, error) {
	start := time.Now()
	res := &AggResult{Outputs: make([]*AggOutput, len(aggs))}
	res.Records = data.NumRecords()
	res.Aggs = len(aggs)
	res.Groups = len(aggs)
	for qi, a := range aggs {
		if err := lang.CheckAgg(a); err != nil {
			return nil, err
		}
		out, err := aggregateOne(data, a, opts, &res.AggMetrics)
		if err != nil {
			return nil, fmt.Errorf("engine: aggregation %s: %w", a.Name, err)
		}
		res.Outputs[qi] = out
	}
	res.UDFCost = res.FoldCost + res.EmitCost + res.KeyCost
	res.TotalTime = time.Since(start)
	return res, nil
}

// aggregateOne is the serial streaming semantics of one aggregation:
// windows open at their first record, fold record by record in stream
// order, emit at close; trailing partial windows emit at stream end in
// open order.
func aggregateOne(data RecordLibrary, a *lang.AggProgram, opts Options, m *AggMetrics) (*AggOutput, error) {
	n := data.NumRecords()
	out := &AggOutput{Name: a.Name, IDs: a.EmitIDs()}
	keyed := a.Window.KeyFunc != ""
	if keyed {
		out.Keys = []int64{}
	}
	accNames := a.AccNames()
	r, err := newAggRunner(a.FoldProgram(), a.EmitProgram(), accNames, out.IDs)
	if err != nil {
		return nil, err
	}
	var keys []int64
	if keyed {
		var kc int64
		t0 := time.Now()
		keys, kc, err = extractKeysSerial(data, a.Window.KeyFunc, n)
		m.UDFTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
		m.KeyCost += kc
	}
	inits := make([]int64, len(a.Accs))
	for i, d := range a.Accs {
		inits[i] = d.Init
	}
	f, ern := r.folder(data, opts), opts.runner(r.emitC, data)

	type winState struct {
		accs []int64
		cnt  int
		key  int64
	}
	newWin := func(key int64) *winState {
		w := &winState{accs: make([]int64, len(inits)), key: key}
		copy(w.accs, inits)
		return w
	}
	closeWin := func(w *winState) error {
		var c int64
		t0 := time.Now()
		out.Vals, c, err = r.emitWindow(ern, w.accs, out.Vals)
		m.UDFTime += time.Since(t0)
		if err != nil {
			return err
		}
		m.EmitCost += c
		out.Windows++
		m.Windows++
		if keyed {
			out.Keys = append(out.Keys, w.key)
		}
		return nil
	}

	var open []*winState         // open windows in open order
	cur := map[int64]*winState{} // keyed: open window per key
	var cw *winState             // count mode: the open window
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var w *winState
		if keyed {
			w = cur[keys[i]]
			if w == nil {
				w = newWin(keys[i])
				cur[keys[i]] = w
				open = append(open, w)
			}
		} else {
			if cw == nil {
				cw = newWin(0)
				open = append(open, cw)
			}
			w = cw
		}
		if err := f.step(i, w.accs); err != nil {
			return nil, err
		}
		w.cnt++
		if w.cnt == a.Window.Size {
			m.UDFTime += time.Since(t0)
			if err := closeWin(w); err != nil {
				return nil, err
			}
			t0 = time.Now()
			w.cnt = -1 // closed marker for the trailing sweep
			if keyed {
				delete(cur, w.key)
			} else {
				cw = nil
			}
		}
	}
	m.UDFTime += time.Since(t0)
	m.FoldCost += f.cost
	for _, w := range open {
		if w.cnt > 0 {
			if err := closeWin(w); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// AggregateConsolidated merges window-aligned aggregations into shared
// traversals and evaluates each group over the batched worker pool. The
// emitted windows are byte-identical to AggregateMany's at every
// Workers × BatchSize. It is MergeAggs then AggregatePlan.
func AggregateConsolidated(data RecordLibrary, aggs []*lang.AggProgram, copts consolidate.Options, opts Options) (*ConsolidatedAggResult, error) {
	if copts.FuncCoster == nil {
		copts.FuncCoster = data
	}
	t0 := time.Now()
	groups, err := consolidate.MergeAggs(aggs, copts)
	if err != nil {
		return nil, err
	}
	consTime := time.Since(t0)
	res, err := AggregatePlan(data, aggs, groups, opts)
	if err != nil {
		return nil, err
	}
	res.ConsolidateTime = consTime
	return res, nil
}

// AggregatePlan evaluates the groups MergeAggs returned for aggs: the pass
// of AggregateConsolidated without the consolidation. A caller holding the
// groups of an earlier batch reruns them without merging again; each call
// still compiles every group's fold and emit.
func AggregatePlan(data RecordLibrary, aggs []*lang.AggProgram, groups []*consolidate.AggGroup, opts Options) (*ConsolidatedAggResult, error) {
	start := time.Now()
	res := &ConsolidatedAggResult{Groups: groups}
	res.Outputs = make([]*AggOutput, len(aggs))
	for qi, a := range aggs {
		res.Outputs[qi] = &AggOutput{Name: a.Name, IDs: a.EmitIDs()}
		if a.Window.KeyFunc != "" {
			res.Outputs[qi].Keys = []int64{}
		}
	}
	res.Records = data.NumRecords()
	res.Aggs = len(aggs)
	res.AggMetrics.Groups = len(groups)
	for _, g := range groups {
		if err := runAggGroup(data, g, opts, res.Outputs, &res.AggMetrics); err != nil {
			return nil, err
		}
	}
	res.UDFCost = res.FoldCost + res.EmitCost + res.KeyCost
	res.TotalTime = time.Since(start)
	return res, nil
}

// aggWin is one window instance of a group's plan: its key (keyed mode) and
// its records, at plan positions off .. off+cnt-1.
type aggWin struct {
	key      int64
	off, cnt int32
}

// aggPlan is the serial window assignment of one group pass, in flat
// pointer-free slices. It is pure integer work over the record count, the
// window size and (keyed) the extracted keys; the per-record evaluation then
// runs off it in parallel. A count window's plan positions are its records;
// a keyed window's index recs, which lists the records grouped by window,
// each window's in stream order. Windows occupy the positions in open order.
type aggPlan struct {
	recs  []int32
	wins  []aggWin // open order
	order []int32  // emit order: close order, then trailing partials in open order
}

func (p *aggPlan) record(pos int32) int {
	if p.recs == nil {
		return int(pos)
	}
	return int(p.recs[pos])
}

func buildAggPlan(n, size int, keys []int64) *aggPlan {
	p := &aggPlan{}
	if keys == nil {
		nw := (n + size - 1) / size
		p.wins, p.order = make([]aggWin, nw), make([]int32, nw)
		for w := range p.wins {
			p.wins[w] = aggWin{off: int32(w * size), cnt: int32(min(size, n-w*size))}
			p.order[w] = int32(w)
		}
		return p
	}
	// Each record's window: a key's window opens at its first record and
	// again at the record after each close.
	type open struct{ win, cnt int32 }
	cur := map[int64]open{}
	winOf := make([]int32, n)
	var nw int32
	for i, k := range keys {
		o, ok := cur[k]
		if !ok || int(o.cnt) == size {
			o, nw = open{win: nw}, nw+1
		}
		o.cnt++
		cur[k] = o
		winOf[i] = o.win
	}
	// Counts and close order, then offsets and the trailing partials.
	p.wins, p.order = make([]aggWin, nw), make([]int32, 0, nw)
	for i, w := range winOf {
		win := &p.wins[w]
		win.key = keys[i]
		if win.cnt++; int(win.cnt) == size {
			p.order = append(p.order, w)
		}
	}
	var off int32
	for w := range p.wins {
		win := &p.wins[w]
		if int(win.cnt) < size {
			p.order = append(p.order, int32(w))
		}
		win.off, off = off, off+win.cnt
	}
	// Scatter the records by window; off is the fill cursor meanwhile.
	p.recs = make([]int32, n)
	for i, w := range winOf {
		p.recs[p.wins[w].off] = int32(i)
		p.wins[w].off++
	}
	for w := range p.wins {
		p.wins[w].off -= p.wins[w].cnt
	}
	return p
}

// aggClaim is one fold claim: plan positions lo up to the next claim's lo,
// starting inside window win. part numbers the claim's partial row when lo
// cuts win after its first position; it is -1 when lo opens win.
type aggClaim struct{ lo, win, part int32 }

// claims cuts the plan's n positions into fold claims; a claim ends at the
// first window end or cut after bsize of its positions, so every claim but
// the last holds at least bsize. With cut, a window longer than bsize is
// cut every bsize of its records: each later piece opens a claim, and
// parts counts them.
func (p *aggPlan) claims(n, bsize int, cut bool) (cs []aggClaim, parts int32) {
	b := int32(max(1, min(bsize, n))) // a batch past the stream is the stream
	cs = make([]aggClaim, 0, (n+int(b)-1)/int(b))
	next := int32(0) // where the next claim opens
	for w, win := range p.wins {
		end := win.off + win.cnt
		if win.off == next {
			cs = append(cs, aggClaim{lo: next, win: int32(w), part: -1})
		}
		for c := win.off + b; cut && c < end; c += b {
			cs = append(cs, aggClaim{lo: c, win: int32(w), part: parts})
			parts++
		}
		if end-cs[len(cs)-1].lo >= b {
			next = end
		}
	}
	return cs, parts
}

// runAggGroup evaluates one merged group over the stream and appends its
// windows to the member outputs.
func runAggGroup(data RecordLibrary, g *consolidate.AggGroup, opts Options, outs []*AggOutput, m *AggMetrics) error {
	n := data.NumRecords()
	nAccs := len(g.Accs)
	r, inits, err := newGroupRunner(g)
	if err != nil {
		return err
	}

	var keys []int64
	if g.Window.KeyFunc != "" {
		if keys, err = extractKeysParallel(data, g.Window.KeyFunc, n, opts, m); err != nil {
			return err
		}
	}
	plan := buildAggPlan(n, g.Window.Size, keys)
	claims, nParts := plan.claims(n, opts.batchSize(), g.Homomorphic)

	// Final accumulator values per window, in open order, and one partial
	// row per later piece of a cut window. A window's first piece folds from
	// the inits straight into its finals; a later piece, which opens its
	// claim, folds from the combine identities into its own row, so no two
	// workers share a row.
	winAccs := make([]int64, len(plan.wins)*nAccs)
	parts := make([]int64, int(nParts)*nAccs)
	err = r.foldClaims(data, opts, len(claims), m, func(f *folder, k int) error {
		c, hi := claims[k], int32(n)
		if k+1 < len(claims) {
			hi = claims[k+1].lo
		}
		for pos, w := c.lo, c.win; pos < hi; w++ {
			win := plan.wins[w]
			dst := winAccs[int(w)*nAccs : int(w+1)*nAccs]
			if pos == win.off {
				copy(dst, inits)
			} else {
				dst = parts[int(c.part)*nAccs : int(c.part+1)*nAccs]
				for a, op := range g.Hom {
					dst[a] = op.Identity()
				}
			}
			for end := min(hi, win.off+win.cnt); pos < end; pos++ {
				if err := f.step(plan.record(pos), dst); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Serial combine: a cut window's finals ⊕ its later pieces' partials in
	// claim order, which is stream order — exactly the serial fold's finals.
	for _, c := range claims {
		if c.part >= 0 {
			dst, src := winAccs[int(c.win)*nAccs:int(c.win+1)*nAccs], parts[int(c.part)*nAccs:int(c.part+1)*nAccs]
			for a, op := range g.Hom {
				dst[a] = op.Combine(dst[a], src[a])
			}
		}
	}

	// Serial emit in plan order; scatter the dense columns to the members.
	ern := opts.runner(r.emitC, data)
	row := make([]int8, 0, len(g.Outputs))
	t0 := time.Now()
	for _, w := range plan.order {
		var c int64
		row, c, err = r.emitWindow(ern, winAccs[int(w)*nAccs:int(w+1)*nAccs], row[:0])
		if err != nil {
			return err
		}
		m.EmitCost += c
		for d, ref := range g.Outputs {
			outs[ref.Member].Vals = append(outs[ref.Member].Vals, row[d])
		}
		for _, gi := range g.Members {
			outs[gi].Windows++
			if keys != nil {
				outs[gi].Keys = append(outs[gi].Keys, plan.wins[w].key)
			}
		}
		m.Windows++
	}
	m.UDFTime += time.Since(t0)
	return nil
}

// foldClaims runs a fold body over the claim loop, once per claim. Each
// worker owns a folder; fold cost, wall time inside the bodies, and the
// claim count fold into m.
func (r *aggRunner) foldClaims(data RecordLibrary, opts Options, claims int, m *AggMetrics,
	body func(f *folder, claim int) error) error {

	err := runClaims(data, opts.workers(), claims, func(lib RecordLibrary) (func(int) error, func(), error) {
		f := r.folder(lib, opts)
		var udfTime time.Duration
		return func(claim int) error {
				t0 := time.Now()
				err := body(f, claim)
				udfTime += time.Since(t0)
				return err
			}, func() {
				m.FoldCost += f.cost
				m.UDFTime += udfTime
			}, nil
	})
	m.Batches += claims
	return err
}

// extractKeysParallel computes every record's key over the claim loop (the
// key function is lite relative to the fold, but the decode is still per
// record, so the stage parallelizes like any other pass).
func extractKeysParallel(data RecordLibrary, keyFunc string, n int, opts Options, m *AggMetrics) ([]int64, error) {
	keys := make([]int64, n)
	kc, _ := data.FuncCost(keyFunc)
	err := runClaims(data, opts.workers(), opts.batches(n), func(lib RecordLibrary) (run func(int) error, fold func(), err error) {
		arg := make([]int64, 1)
		var udfTime time.Duration
		run = func(b int) error {
			lo, hi := opts.span(b, n)
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				lib.SetRecord(i)
				arg[0] = int64(i)
				k, err := lib.Call(keyFunc, arg)
				if err != nil {
					return fmt.Errorf("engine: key function %s on record %d: %w", keyFunc, i, err)
				}
				keys[i] = k
			}
			udfTime += time.Since(t0)
			return nil
		}
		return run, func() { m.UDFTime += udfTime }, nil
	})
	m.KeyCost += kc * int64(n)
	return keys, err
}
