package engine

import (
	"fmt"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
)

// AggSession is a streaming aggregation registry over one count-partitioned
// window spec: records are fed in stream order, aggregations can be added
// and removed while the stream runs, and — the swap rule the batched
// registry also follows — membership changes NEVER split a window: an Add
// or Remove lands at the next window boundary, so every emitted window was
// folded by one fixed merged program over all of its records. Between
// boundaries the session folds with the current consolidated group; at a
// boundary it emits, applies the queued changes, re-merges, and continues.
type AggSession struct {
	data  RecordLibrary
	copts consolidate.Options
	opts  Options
	win   lang.WindowSpec

	active  []*lang.AggProgram
	pending []sessionChange

	// Current merged group state (nil when no aggregations are active).
	group *consolidate.AggGroup
	r     *aggRunner
	f     *folder
	ern   *lang.Runner
	inits []int64
	accs  []int64

	pos int // records folded into the current window

	outs    map[string]*AggOutput
	order   []string // first-Add order
	metrics AggMetrics
	err     error
}

type sessionChange struct {
	add    *lang.AggProgram
	remove string
}

// NewAggSession opens a session over a count-partitioned window. Keyed
// windows have no session form: their windows close at key-dependent
// stream positions, so a boundary-deferred swap rule would stall on quiet
// keys; use AggregateConsolidated over a closed stream instead.
func NewAggSession(data RecordLibrary, win lang.WindowSpec, copts consolidate.Options, opts Options) (*AggSession, error) {
	if win.KeyFunc != "" {
		return nil, fmt.Errorf("engine: AggSession supports count-partitioned windows only")
	}
	if win.Size < 1 {
		return nil, fmt.Errorf("engine: AggSession window size must be at least 1, got %d", win.Size)
	}
	if copts.FuncCoster == nil {
		copts.FuncCoster = data
	}
	return &AggSession{
		data: data, copts: copts, opts: opts, win: win,
		outs: map[string]*AggOutput{},
	}, nil
}

// Add registers an aggregation. At a window boundary it takes effect
// immediately; mid-window it is queued and takes effect when the current
// window closes, so the new aggregation's first window sees every one of
// its records. The aggregation's window spec must equal the session's.
func (s *AggSession) Add(a *lang.AggProgram) error {
	if s.err != nil {
		return s.err
	}
	if err := lang.CheckAgg(a); err != nil {
		return err
	}
	if a.Window != s.win {
		return fmt.Errorf("engine: aggregation %s has window %s, session runs %s", a.Name, a.Window, s.win)
	}
	for _, b := range s.active {
		if b.Name == a.Name {
			return fmt.Errorf("engine: aggregation %q already active", a.Name)
		}
	}
	for _, ch := range s.pending {
		if ch.add != nil && ch.add.Name == a.Name {
			return fmt.Errorf("engine: aggregation %q already pending", a.Name)
		}
	}
	s.pending = append(s.pending, sessionChange{add: a})
	if s.pos == 0 {
		return s.applyPending()
	}
	return nil
}

// Remove unregisters an aggregation by name, at the next window boundary
// (immediately when at one). Windows already emitted stay in the output.
func (s *AggSession) Remove(name string) error {
	if s.err != nil {
		return s.err
	}
	s.pending = append(s.pending, sessionChange{remove: name})
	if s.pos == 0 {
		return s.applyPending()
	}
	return nil
}

// Active lists the names of the aggregations folding the current window.
func (s *AggSession) Active() []string {
	names := make([]string, len(s.active))
	for i, a := range s.active {
		names[i] = a.Name
	}
	return names
}

// Feed folds record i into the current window; when the window fills it is
// emitted and queued membership changes take effect.
func (s *AggSession) Feed(i int) error {
	if s.err != nil {
		return s.err
	}
	if s.group != nil {
		t0 := time.Now()
		before := s.f.cost
		err := s.f.step(i, s.accs)
		s.metrics.UDFTime += time.Since(t0)
		if err != nil {
			s.err = err
			return err
		}
		s.metrics.FoldCost += s.f.cost - before
	}
	s.metrics.Records++
	s.pos++
	if s.pos == s.win.Size {
		if err := s.closeWindow(); err != nil {
			return err
		}
		s.pos = 0
		return s.applyPending()
	}
	return nil
}

// Flush emits the trailing partial window, if any, applies queued changes,
// and returns a snapshot of every aggregation's output (including removed
// ones), in first-Add order.
func (s *AggSession) Flush() (*AggResult, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.pos > 0 {
		if err := s.closeWindow(); err != nil {
			return nil, err
		}
		s.pos = 0
	}
	if err := s.applyPending(); err != nil {
		return nil, err
	}
	res := &AggResult{AggMetrics: s.metrics}
	res.Aggs = len(s.order)
	if s.group != nil {
		res.AggMetrics.Groups = 1
	}
	res.UDFCost = res.FoldCost + res.EmitCost
	for _, name := range s.order {
		o := s.outs[name]
		snap := &AggOutput{Name: o.Name, IDs: o.IDs, Windows: o.Windows}
		snap.Vals = append([]int8(nil), o.Vals...)
		res.Outputs = append(res.Outputs, snap)
	}
	return res, nil
}

// closeWindow emits the current window and resets the accumulators.
func (s *AggSession) closeWindow() error {
	if s.group == nil {
		return nil
	}
	row := make([]int8, 0, len(s.group.Outputs))
	t0 := time.Now()
	row, c, err := s.r.emitWindow(s.ern, s.accs, row)
	s.metrics.UDFTime += time.Since(t0)
	if err != nil {
		s.err = err
		return err
	}
	s.metrics.EmitCost += c
	// Group member indices are positions in the merged input slice, which
	// is exactly s.active.
	for d, ref := range s.group.Outputs {
		s.outs[s.active[ref.Member].Name].Vals = append(s.outs[s.active[ref.Member].Name].Vals, row[d])
	}
	for _, gi := range s.group.Members {
		s.outs[s.active[gi].Name].Windows++
	}
	s.metrics.Windows++
	copy(s.accs, s.inits)
	return nil
}

// applyPending applies queued membership changes and re-merges. Only ever
// called at a window boundary.
func (s *AggSession) applyPending() error {
	if len(s.pending) == 0 {
		return nil
	}
	for _, ch := range s.pending {
		if ch.add != nil {
			s.active = append(s.active, ch.add)
			if _, ok := s.outs[ch.add.Name]; !ok {
				s.outs[ch.add.Name] = &AggOutput{Name: ch.add.Name, IDs: ch.add.EmitIDs()}
				s.order = append(s.order, ch.add.Name)
			}
			continue
		}
		for i, a := range s.active {
			if a.Name == ch.remove {
				s.active = append(s.active[:i], s.active[i+1:]...)
				break
			}
		}
	}
	s.pending = s.pending[:0]
	return s.rebuild()
}

// rebuild re-merges the active aggregations into the session's single
// group and resets the fold state to the window start.
func (s *AggSession) rebuild() error {
	s.group, s.r, s.f, s.ern, s.inits, s.accs = nil, nil, nil, nil, nil, nil
	if len(s.active) == 0 {
		return nil
	}
	groups, err := consolidate.MergeAggs(s.active, s.copts)
	if err == nil && len(groups) != 1 {
		err = fmt.Errorf("engine: session merge produced %d groups, want 1", len(groups))
	}
	if err != nil {
		s.err = err
		return err
	}
	r, inits, err := newGroupRunner(groups[0])
	if err != nil {
		s.err = err
		return err
	}
	s.group, s.r, s.inits = groups[0], r, inits
	s.f, s.ern = r.folder(s.data, s.opts), s.opts.runner(r.emitC, s.data)
	s.accs = append([]int64(nil), inits...)
	return nil
}
