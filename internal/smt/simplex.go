package smt

import (
	"math/big"
	"slices"
)

// simplex is a general simplex solver in the style of Dutertre and de Moura
// ("A Fast Linear-Arithmetic Solver for DPLL(T)"): variables carry optional
// lower/upper bounds, slack variables are defined by tableau rows over the
// structural variables, and feasibility is restored by pivoting with
// Bland's rule. Arithmetic uses qnum, a rational with an int64 fast path
// that promotes to big.Rat on overflow.
//
// Storage is sparse and pointer-free: each tableau row is the list of its
// nonzero (column, qcell) entries in ascending column order, every row of a
// frame lives in one flat arena located by a span, promoted big.Rat values
// are boxed in a side table, and bounds/values are flat arrays. The
// consolidation workload's tableaux have a few nonzeros per row across a
// hundred-odd columns, so pivots, row substitutions and frame copies touch
// about 2% of the cells a dense tableau would, and pointer-free rows cost
// the garbage collector nothing.
//
// A simplex never allocates a peer. Every instance is a frame of a
// theoryWorkspace (theory.go): reset rebuilds the empty tableau a round
// starts from inside the frame's own arrays, and copyFrom makes a frame a
// value copy of its parent — a handful of memmoves into arrays the frame
// already owns — which is how branch-and-bound and the Nelson–Oppen probes
// get a private tableau at every node. A copy is entry-for-entry the
// parent, and each cell gets the arithmetic a dense tableau would give it,
// in the same order: the pivoting rule, the pivot budget and the exact
// rational arithmetic do not depend on where the cells live, so the solver
// visits exactly the same bases as one that allocated a fresh dense tableau
// per node.
type simplex struct {
	n          int // total variables (structural + slack)
	structural int // ids < structural are integer-constrained structural vars
	// rowOf[x] is the tableau row owned by basic variable x, -1 when x is
	// nonbasic. rowVar is the inverse: the basic variable of each row, and
	// its length is the row count.
	rowOf  []int32
	rowVar []int32
	// rows[ri] locates row ri in arena: its entries are
	// arena[off : off+n], the coefficients of the nonbasic variables in
	// the defining row of basic variable rowVar[ri], nonzero and in
	// ascending column order; arena[off+n : off+cap] is the row's room to
	// grow in place. A row never carries its own basic variable. A row that
	// outgrows its room moves to the arena's end, leaving a hole that the
	// next compaction reclaims.
	rows  []span
	arena []sentry
	// bigTab boxes the rare coefficients that overflow int64; a qcell with
	// den == 0 indexes into it. Entries are immutable once stored.
	bigTab   []*big.Rat
	lower    []qnum
	upper    []qnum
	hasLower []bool
	hasUpper []bool
	beta     []qnum
	// Per-frame scratch, never copied: spare is the arena compaction packs
	// the live rows into; dense is addSlack's accumulator, one cellZero per
	// column between calls; enter, merged and hits are pivot's entering
	// row, merge output and the rows it substitutes into.
	spare  []sentry
	dense  []qcell
	enter  []sentry
	merged []sentry
	hits   []hit
	// pivots is the workspace's running count of check iterations, shared
	// by every frame so that the whole branch-and-bound tree and the probes
	// of one round draw from a single budget (per-node budgets would
	// multiply exponentially); the round may run until it passes pivotLimit.
	pivots     *int
	pivotLimit int
}

// qcell is a pointer-free tableau cell. den > 0 holds the value num/den
// inline; den == 0 marks an overflow cell whose big.Rat lives in the
// simplex's bigTab at index num. The all-zero qcell is never materialised:
// every cell is written explicitly, zero as cellZero.
type qcell struct{ num, den int64 }

var cellZero = qcell{num: 0, den: 1}

// isZero reports whether the cell holds 0; big.Rat cells are never zero
// (qnorm only promotes on overflow, and 0 never overflows).
func (c qcell) isZero() bool { return c.den != 0 && c.num == 0 }

// sentry is one nonzero tableau entry: coefficient c in column col.
type sentry struct {
	col int32
	c   qcell
}

// span locates a row in its frame's arena: n entries at off, with room
// for cap.
type span struct{ off, n, cap int32 }

// hit is a row pivot substitutes into: row ri holds the entering
// variable's coefficient at entry k.
type hit struct{ ri, k int32 }

func (s *simplex) loadCell(c qcell) qnum {
	if c.den != 0 {
		return qnum{num: c.num, den: c.den}
	}
	return qnum{big: s.bigTab[c.num]}
}

func (s *simplex) storeCell(q qnum) qcell {
	if q.big == nil {
		return qcell{num: q.num, den: q.den}
	}
	s.bigTab = append(s.bigTab, q.big)
	return qcell{num: int64(len(s.bigTab) - 1), den: 0}
}

// row returns the nonzero entries of tableau row ri.
func (s *simplex) row(ri int32) []sentry {
	sp := s.rows[ri]
	return s.arena[sp.off : sp.off+sp.n]
}

// column appends to hits every row but skip with a nonzero in column y,
// in ascending row order.
func (s *simplex) column(y int, skip int32, hits []hit) []hit {
	col := int32(y)
	for ri, sp := range s.rows {
		for k, e := range s.arena[sp.off : sp.off+sp.n] {
			if e.col < col {
				continue
			}
			if e.col == col && int32(ri) != skip {
				hits = append(hits, hit{ri: int32(ri), k: int32(k)})
			}
			break
		}
	}
	return hits
}

// coef returns the coefficient of variable y in tableau row ri.
func (s *simplex) coef(ri int32, y int) qnum {
	for _, e := range s.row(ri) {
		if int(e.col) >= y {
			if int(e.col) == y {
				return s.loadCell(e.c)
			}
			break
		}
	}
	return qZero
}

// setRow makes ents the entries of row ri, in place when they fit its
// room. Otherwise the row moves to the arena's end with room to grow,
// compacting first when the arena has no space left there.
func (s *simplex) setRow(ri int32, ents []sentry) {
	if sp := &s.rows[ri]; len(ents) <= int(sp.cap) {
		copy(s.arena[sp.off:], ents)
		sp.n = int32(len(ents))
		return
	}
	room := len(ents) + len(ents)/2 + 2
	// Drop the old span first, so that compaction does not carry it.
	s.rows[ri] = span{}
	if len(s.arena)+room > cap(s.arena) {
		s.compact(room)
	}
	off := len(s.arena)
	s.arena = s.arena[:off+room]
	copy(s.arena[off:], ents)
	s.rows[ri] = span{off: int32(off), n: int32(len(ents)), cap: int32(room)}
}

// compact packs the live rows, each with its room, into the spare arena
// in row order and swaps the two arenas, leaving space for extra more
// entries at the end. The spare grows only when the live rows outgrow it.
func (s *simplex) compact(extra int) {
	need := extra
	for _, sp := range s.rows {
		need += int(sp.cap)
	}
	dst := s.spare[:0]
	if cap(dst) < need {
		dst = make([]sentry, 0, 2*need)
	}
	for i := range s.rows {
		sp := &s.rows[i]
		off := len(dst)
		dst = append(dst, s.arena[sp.off:sp.off+sp.n]...)
		dst = dst[:off+int(sp.cap)]
		sp.off = int32(off)
	}
	s.arena, s.spare = dst, s.arena[:0]
}

// sterm is one addend of a slack definition: coefficient c on variable x.
type sterm struct {
	x int
	c qnum
}

// reset makes s the empty tableau over the given structural variables,
// reusing its arrays. slackHint is the expected number of addSlack calls:
// the per-variable arrays and the arena are sized for it upfront. The hint
// only affects capacity, never values. The round may spend maxPivots check
// iterations counted in pivots.
func (s *simplex) reset(structural, maxPivots, slackHint int, pivots *int) {
	vars := structural + slackHint
	s.n, s.structural = structural, structural
	s.rowOf = slices.Grow(s.rowOf[:0], vars)[:structural]
	s.rowVar = s.rowVar[:0]
	s.rows = slices.Grow(s.rows[:0], slackHint)
	// About eight entries of room per row: a few nonzeros, their fill-in
	// and the holes rows leave when they move.
	s.arena = slices.Grow(s.arena[:0], 8*slackHint)
	// Cells are rewritten before they are read, but a boxed value must not
	// outlive the tableau that indexed it.
	clear(s.bigTab)
	s.bigTab = s.bigTab[:0]
	s.lower = slices.Grow(s.lower[:0], vars)[:structural]
	s.upper = slices.Grow(s.upper[:0], vars)[:structural]
	s.hasLower = slices.Grow(s.hasLower[:0], vars)[:structural]
	s.hasUpper = slices.Grow(s.hasUpper[:0], vars)[:structural]
	s.beta = slices.Grow(s.beta[:0], vars)[:structural]
	s.pivots, s.pivotLimit = pivots, *pivots+maxPivots
	for i := 0; i < structural; i++ {
		s.rowOf[i] = -1
		s.lower[i], s.upper[i] = qnum{}, qnum{}
		s.hasLower[i], s.hasUpper[i] = false, false
		s.beta[i] = qZero
	}
}

// copyFrom makes s a value copy of p inside s's own arrays; entries are
// plain values and big.Rat entries are immutable, so every slice copies by
// memmove — the arena whole, holes and room included, so that the spans
// copy unchanged. The copies are independent: a frame growing a row writes
// to (or compacts) its own arena and appends to its own bigTab, never the
// parent's, and the capacity it grew stays with the frame for the next copy.
func (s *simplex) copyFrom(p *simplex) {
	s.n, s.structural = p.n, p.structural
	s.rowOf = append(s.rowOf[:0], p.rowOf...)
	s.rowVar = append(s.rowVar[:0], p.rowVar...)
	s.rows = append(s.rows[:0], p.rows...)
	s.arena = append(s.arena[:0], p.arena...)
	clear(s.bigTab)
	s.bigTab = append(s.bigTab[:0], p.bigTab...)
	s.lower = append(s.lower[:0], p.lower...)
	s.upper = append(s.upper[:0], p.upper...)
	s.hasLower = append(s.hasLower[:0], p.hasLower...)
	s.hasUpper = append(s.hasUpper[:0], p.hasUpper...)
	s.beta = append(s.beta[:0], p.beta...)
	s.pivots, s.pivotLimit = p.pivots, p.pivotLimit
}

func (s *simplex) val(x int) qnum { return s.beta[x] }

// addSlack introduces a slack variable defined as the given combination of
// existing variables (no constant part) and returns its id. The current
// assignment is extended consistently.
func (s *simplex) addSlack(combo []sterm) int {
	id := s.n
	s.n++
	s.rowOf = append(s.rowOf, -1)
	s.lower = append(s.lower, qnum{})
	s.upper = append(s.upper, qnum{})
	s.hasLower = append(s.hasLower, false)
	s.hasUpper = append(s.hasUpper, false)
	// Accumulate the row densely, substituting basic variables by their
	// rows, then keep its nonzeros.
	for len(s.dense) < s.n {
		s.dense = append(s.dense, cellZero)
	}
	row := s.dense
	v := qZero
	for _, t := range combo {
		if t.c.qSign() == 0 {
			continue
		}
		if xri := s.rowOf[t.x]; xri >= 0 {
			for _, e := range s.row(xri) {
				row[e.col] = s.storeCell(qAdd(s.loadCell(row[e.col]), qMul(t.c, s.loadCell(e.c))))
			}
		} else {
			row[t.x] = s.storeCell(qAdd(s.loadCell(row[t.x]), t.c))
		}
		v = qAdd(v, qMul(t.c, s.beta[t.x]))
	}
	ents := s.merged[:0]
	for y, c := range row[:s.n] {
		if !c.isZero() {
			ents = append(ents, sentry{col: int32(y), c: c})
			row[y] = cellZero
		}
	}
	s.merged = ents
	ri := int32(len(s.rowVar))
	s.rowVar = append(s.rowVar, int32(id))
	s.rows = append(s.rows, span{})
	s.setRow(ri, ents)
	s.rowOf[id] = ri
	s.beta = append(s.beta, v)
	return id
}

// update changes the value of nonbasic variable x to v, adjusting all basic
// variables.
func (s *simplex) update(x int, v qnum) {
	delta := qSub(v, s.beta[x])
	s.hits = s.column(x, -1, s.hits[:0])
	for _, h := range s.hits {
		b := s.rowVar[h.ri]
		s.beta[b] = qAdd(s.beta[b], qMul(s.loadCell(s.row(h.ri)[h.k].c), delta))
	}
	s.beta[x] = v
}

// assertLower tightens the lower bound of x; reports false on an immediate
// bound conflict.
func (s *simplex) assertLower(x int, c qnum) bool {
	if s.hasLower[x] && qCmp(c, s.lower[x]) <= 0 {
		return true
	}
	if s.hasUpper[x] && qCmp(c, s.upper[x]) > 0 {
		return false
	}
	s.lower[x] = c
	s.hasLower[x] = true
	if s.rowOf[x] < 0 && qCmp(s.beta[x], c) < 0 {
		s.update(x, c)
	}
	return true
}

// assertUpper tightens the upper bound of x; reports false on an immediate
// bound conflict.
func (s *simplex) assertUpper(x int, c qnum) bool {
	if s.hasUpper[x] && qCmp(c, s.upper[x]) >= 0 {
		return true
	}
	if s.hasLower[x] && qCmp(c, s.lower[x]) < 0 {
		return false
	}
	s.upper[x] = c
	s.hasUpper[x] = true
	if s.rowOf[x] < 0 && qCmp(s.beta[x], c) > 0 {
		s.update(x, c)
	}
	return true
}

// pivot exchanges basic x with nonbasic y, whose coefficient in x's row is
// a, substituting y's new row into the rows of hits, which are every other
// row with a nonzero in column y, in ascending row order.
func (s *simplex) pivot(x, y int, a qnum, hits []hit) {
	xri := s.rowOf[x]
	xrow := s.row(xri)
	// y = (x - Σ_{z≠y} xrow[z]·z) / a: x's 1/a takes the column slot of x
	// and is boxed after the others, as a dense row would box it.
	enter := s.enter[:0]
	ix := -1
	for _, e := range xrow {
		if int(e.col) == y {
			continue
		}
		if ix < 0 && int(e.col) > x {
			ix = len(enter)
			enter = append(enter, sentry{col: int32(x)})
		}
		enter = append(enter, sentry{col: e.col, c: s.storeCell(qNeg(qDiv(s.loadCell(e.c), a)))})
	}
	if ix < 0 {
		ix = len(enter)
		enter = append(enter, sentry{col: int32(x)})
	}
	enter[ix].c = s.storeCell(qDiv(qOne, a))
	s.enter = enter
	// The entering row swaps y for x: it has xrow's length and fits in place.
	s.setRow(xri, enter)
	s.rowVar[xri] = int32(y)
	s.rowOf[y] = xri
	s.rowOf[x] = -1
	// Substitute y in the rows that hold it: merge each with the entering
	// row in column order, dropping column y and cells that cancel.
	for _, h := range hits {
		row := s.row(h.ri)
		cy := s.loadCell(row[h.k].c)
		out := s.merged[:0]
		i, j := 0, 0
		for i < len(row) || j < len(enter) {
			switch {
			case j == len(enter) || i < len(row) && row[i].col < enter[j].col:
				if int(row[i].col) != y {
					out = append(out, row[i])
				}
				i++
			case i == len(row) || enter[j].col < row[i].col:
				// 0 + cy·e is cy·e exactly: a fill-in needs no addition.
				out = append(out, sentry{col: enter[j].col, c: s.storeCell(qMul(cy, s.loadCell(enter[j].c)))})
				j++
			default:
				if c := qAdd(s.loadCell(row[i].c), qMul(cy, s.loadCell(enter[j].c))); c.qSign() != 0 {
					out = append(out, sentry{col: row[i].col, c: s.storeCell(c)})
				}
				i++
				j++
			}
		}
		s.merged = out
		s.setRow(h.ri, out)
	}
}

// pivotAndUpdate makes basic x take value v by pivoting with nonbasic y.
func (s *simplex) pivotAndUpdate(x, y int, v qnum) {
	xri := s.rowOf[x]
	a := s.coef(xri, y)
	theta := qDiv(qSub(v, s.beta[x]), a)
	s.beta[x] = v
	s.beta[y] = qAdd(s.beta[y], theta)
	s.hits = s.column(y, xri, s.hits[:0])
	for _, h := range s.hits {
		b := s.rowVar[h.ri]
		s.beta[b] = qAdd(s.beta[b], qMul(s.loadCell(s.row(h.ri)[h.k].c), theta))
	}
	s.pivot(x, y, a, s.hits)
}

// check restores feasibility; it reports false when the constraints are
// infeasible and true when a satisfying rational assignment was found. A
// pivot-budget overrun returns true together with budgetExceeded, which
// callers must treat as "unknown".
func (s *simplex) check() (feasible, budgetExceeded bool) {
	for {
		*s.pivots++
		if *s.pivots > s.pivotLimit {
			return true, true
		}
		// Bland's rule: smallest violated basic variable.
		x := -1
		var target qnum
		var below bool
		for b := 0; b < s.n; b++ {
			if s.rowOf[b] < 0 {
				continue
			}
			if s.hasLower[b] && qCmp(s.beta[b], s.lower[b]) < 0 {
				x, target, below = b, s.lower[b], true
				break
			}
			if s.hasUpper[b] && qCmp(s.beta[b], s.upper[b]) > 0 {
				x, target, below = b, s.upper[b], false
				break
			}
		}
		if x < 0 {
			return true, false
		}
		// The smallest suitable entering variable: the row's entries come
		// in ascending column order.
		y := -1
		for _, e := range s.row(s.rowOf[x]) {
			cand := int(e.col)
			sign := s.loadCell(e.c).qSign()
			if below {
				// Need to increase x.
				if sign > 0 {
					if !s.hasUpper[cand] || qCmp(s.beta[cand], s.upper[cand]) < 0 {
						y = cand
						break
					}
				} else {
					if !s.hasLower[cand] || qCmp(s.beta[cand], s.lower[cand]) > 0 {
						y = cand
						break
					}
				}
			} else {
				// Need to decrease x.
				if sign > 0 {
					if !s.hasLower[cand] || qCmp(s.beta[cand], s.lower[cand]) > 0 {
						y = cand
						break
					}
				} else {
					if !s.hasUpper[cand] || qCmp(s.beta[cand], s.upper[cand]) < 0 {
						y = cand
						break
					}
				}
			}
		}
		if y < 0 {
			return false, false
		}
		s.pivotAndUpdate(x, y, target)
	}
}

// fractionalStructural returns a structural variable whose current value is
// not an integer, or -1 when the assignment is integral on structural vars.
func (s *simplex) fractionalStructural() int {
	for x := 0; x < s.structural; x++ {
		if !s.beta[x].qIsInt() {
			return x
		}
	}
	return -1
}
