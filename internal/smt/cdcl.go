package smt

// cdcl is a conflict-driven clause-learning SAT solver: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning, VSIDS-style
// decaying activities, phase saving, and Luby restarts. It is incremental:
// solveAssume is its one entry point, the lazy SMT loop adds the boolean
// abstraction and theory blocking clauses between calls, and the clause
// database, learned clauses included, carries from one call to the next.
//
// Literal encoding: variable v ∈ [1, nvars]; literal +v / -v as in DIMACS.
// Internally literals are indexed 2v (positive) and 2v+1 (negative).
type cdcl struct {
	nvars   int
	clauses [][]int // clause database, literals in DIMACS form
	watches [][]int // watches[lit index] = clause ids watching that literal

	assign []int8 // 0 unassigned, +1 true, -1 false
	level  []int  // decision level per variable
	reason []int  // clause id that implied the variable, -1 for decisions
	trail  []int  // assigned literals in order
	limits []int  // trail length at each decision level

	activity []float64
	varInc   float64

	phase []int8 // saved phase per variable

	conflicts int
}

type satStatus int

const (
	satUnsat satStatus = iota
	satSat
	satUnknown
)

const noReason = -1

func newCDCL(nvars int, clauses [][]int) *cdcl {
	s := &cdcl{
		nvars:    nvars,
		watches:  make([][]int, 2*(nvars+1)),
		assign:   make([]int8, nvars+1),
		level:    make([]int, nvars+1),
		reason:   make([]int, nvars+1),
		activity: make([]float64, nvars+1),
		phase:    make([]int8, nvars+1),
		varInc:   1,
	}
	for _, cl := range clauses {
		s.addClause(cl)
	}
	return s
}

func litIndex(lit int) int {
	if lit > 0 {
		return 2 * lit
	}
	return -2*lit + 1
}

// value of a literal under the current assignment: +1 satisfied, -1
// falsified, 0 unassigned.
func (s *cdcl) litValue(lit int) int8 {
	v := lit
	if v < 0 {
		v = -v
	}
	a := s.assign[v]
	if a == 0 {
		return 0
	}
	if (a == 1) == (lit > 0) {
		return 1
	}
	return -1
}

// addClause installs a clause with watches on its first two literals.
// Returns the clause id, or -1 when the clause is empty (unsatisfiable).
func (s *cdcl) addClause(lits []int) int {
	switch len(lits) {
	case 0:
		return -1
	case 1:
		// Watch the single literal twice; propagation handles it.
		id := len(s.clauses)
		s.clauses = append(s.clauses, lits)
		s.watches[litIndex(lits[0])] = append(s.watches[litIndex(lits[0])], id)
		return id
	}
	id := len(s.clauses)
	s.clauses = append(s.clauses, lits)
	s.watches[litIndex(lits[0])] = append(s.watches[litIndex(lits[0])], id)
	s.watches[litIndex(lits[1])] = append(s.watches[litIndex(lits[1])], id)
	return id
}

func (s *cdcl) decisionLevel() int { return len(s.limits) }

// enqueue assigns a literal with a reason; false on immediate conflict.
func (s *cdcl) enqueue(lit, reason int) bool {
	switch s.litValue(lit) {
	case 1:
		return true
	case -1:
		return false
	}
	v := lit
	val := int8(1)
	if lit < 0 {
		v = -lit
		val = -1
	}
	s.assign[v] = val
	s.phase[v] = val
	s.level[v] = s.decisionLevel()
	s.reason[v] = reason
	s.trail = append(s.trail, lit)
	return true
}

// propagate runs unit propagation from the given trail position; it returns
// the id of a conflicting clause, or -1.
func (s *cdcl) propagate(qhead *int) int {
	for *qhead < len(s.trail) {
		lit := s.trail[*qhead]
		*qhead++
		falsified := -lit
		wl := s.watches[litIndex(falsified)]
		kept := wl[:0]
		for wi := 0; wi < len(wl); wi++ {
			id := wl[wi]
			cl := s.clauses[id]
			if len(cl) == 1 {
				if s.litValue(cl[0]) == -1 {
					s.watches[litIndex(falsified)] = append(kept, wl[wi:]...)
					return id
				}
				kept = append(kept, id)
				continue
			}
			// Normalise: watched literal we are processing in slot 1.
			if cl[0] == falsified {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// Clause satisfied by the other watch?
			if s.litValue(cl[0]) == 1 {
				kept = append(kept, id)
				continue
			}
			// Find a replacement watch.
			moved := false
			for k := 2; k < len(cl); k++ {
				if s.litValue(cl[k]) != -1 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[litIndex(cl[1])] = append(s.watches[litIndex(cl[1])], id)
					moved = true
					break
				}
			}
			if moved {
				continue // no longer watching `falsified`
			}
			// Unit or conflicting.
			kept = append(kept, id)
			if !s.enqueue(cl[0], id) {
				s.watches[litIndex(falsified)] = append(kept, wl[wi+1:]...)
				return id
			}
		}
		s.watches[litIndex(falsified)] = kept
	}
	return -1
}

func (s *cdcl) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nvars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backjump level.
func (s *cdcl) analyze(conflict int) ([]int, int) {
	learned := []int{0} // slot 0 reserved for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p int
	reason := s.clauses[conflict]
	idx := len(s.trail) - 1

	for {
		for _, q := range reason {
			if p != 0 && q == -p {
				continue
			}
			v := q
			if v < 0 {
				v = -v
			}
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Find the next seen literal on the trail at the current level.
		for {
			p = s.trail[idx]
			idx--
			pv := p
			if pv < 0 {
				pv = -pv
			}
			if seen[pv] {
				seen[pv] = false
				counter--
				if counter == 0 {
					learned[0] = -p
					goto done
				}
				if s.reason[pv] == noReason {
					// Shouldn't happen before counter hits 0, but guard.
					learned[0] = -p
					goto done
				}
				reason = s.clauses[s.reason[pv]]
				break
			}
		}
	}
done:
	// Backjump level = max level among the other literals.
	bj := 0
	for _, q := range learned[1:] {
		v := q
		if v < 0 {
			v = -v
		}
		if s.level[v] > bj {
			bj = s.level[v]
		}
	}
	return learned, bj
}

// cancelUntil undoes assignments above the given level.
func (s *cdcl) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	limit := s.limits[lvl]
	for i := len(s.trail) - 1; i >= limit; i-- {
		lit := s.trail[i]
		v := lit
		if v < 0 {
			v = -v
		}
		s.assign[v] = 0
		s.reason[v] = noReason
	}
	s.trail = s.trail[:limit]
	s.limits = s.limits[:lvl]
}

// pickBranch selects the unassigned variable with the highest activity.
func (s *cdcl) pickBranch() int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nvars; v++ {
		if s.assign[v] == 0 && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int) int {
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<(k-1) && i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// ensureVars grows the solver's variable arrays to accommodate variables up
// to n; the encoder adds atoms and Tseitin auxiliaries between calls, so
// the instance must widen without losing learned state.
func (s *cdcl) ensureVars(n int) {
	if n <= s.nvars {
		return
	}
	grow := n + 1 - len(s.assign)
	if grow > 0 {
		s.assign = append(s.assign, make([]int8, grow)...)
		s.level = append(s.level, make([]int, grow)...)
		s.reason = append(s.reason, make([]int, grow)...)
		s.activity = append(s.activity, make([]float64, grow)...)
		s.phase = append(s.phase, make([]int8, grow)...)
	}
	for gw := 2*(n+1) - len(s.watches); gw > 0; gw-- {
		s.watches = append(s.watches, nil)
	}
	s.nvars = n
}

// solveAssume runs the CDCL loop under a sequence of assumption literals,
// keeping the clause database — including clauses learned on earlier calls —
// for the next invocation. Assumptions are decided first, in order, as
// decisions without reasons; a falsified assumption means the database is
// unsatisfiable under the assumptions. budget bounds the conflicts of this
// call only. On every exit the trail is rewound to level 0, so the instance
// is immediately reusable.
func (s *cdcl) solveAssume(assumps []int, budget int) (satStatus, []int8) {
	s.cancelUntil(0)
	qhead := 0
	// Top-level propagation of unit clauses, including ones added since the
	// previous call. Re-propagating the level-0 trail from position 0 also
	// wakes any new clause that is already unit under the trail.
	for id, cl := range s.clauses {
		if len(cl) == 1 {
			if !s.enqueue(cl[0], id) {
				return satUnsat, nil
			}
		}
	}
	if s.propagate(&qhead) >= 0 {
		return satUnsat, nil
	}

	limit := s.conflicts + budget
	restartIdx := 1
	conflictsAtRestart := 0
	restartBudget := 32 * luby(restartIdx)

	for {
		conflict := s.propagate(&qhead)
		if conflict >= 0 {
			s.conflicts++
			conflictsAtRestart++
			if s.conflicts > limit {
				s.cancelUntil(0)
				return satUnknown, nil
			}
			if s.decisionLevel() == 0 {
				return satUnsat, nil
			}
			learned, bj := s.analyze(conflict)
			s.cancelUntil(bj)
			qhead = len(s.trail)
			id := s.addClause(learned)
			if !s.enqueue(learned[0], id) {
				s.cancelUntil(0)
				return satUnsat, nil
			}
			s.varInc /= 0.95
			continue
		}
		// Restart?
		if conflictsAtRestart >= restartBudget {
			restartIdx++
			restartBudget = 32 * luby(restartIdx)
			conflictsAtRestart = 0
			s.cancelUntil(0)
			qhead = len(s.trail)
			continue
		}
		// Decide pending assumptions before any free decision.
		if dl := s.decisionLevel(); dl < len(assumps) {
			a := assumps[dl]
			switch s.litValue(a) {
			case 1:
				// Already satisfied: open an empty decision level so the
				// assumption index keeps advancing.
				s.limits = append(s.limits, len(s.trail))
			case -1:
				s.cancelUntil(0)
				return satUnsat, nil
			default:
				s.limits = append(s.limits, len(s.trail))
				s.enqueue(a, noReason)
			}
			continue
		}
		v := s.pickBranch()
		if v == 0 {
			model := append([]int8(nil), s.assign...)
			s.cancelUntil(0)
			return satSat, model
		}
		s.limits = append(s.limits, len(s.trail))
		lit := v
		if s.phase[v] == -1 {
			lit = -v
		}
		s.enqueue(lit, noReason)
	}
}
