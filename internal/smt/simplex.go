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
// Storage is dense and pointer-free: the tableau is one flat slice of qcell
// (num/den pairs with promoted big.Rat values boxed in a side table) indexed
// by row*stride+column, and bounds/values are flat arrays. The consolidation
// workload produces small tableaux (tens of variables), where dense scans
// beat hash maps by a wide margin and pointer-free rows cost the garbage
// collector nothing.
//
// A simplex never allocates a peer. Every instance is a frame of a
// theoryWorkspace (theory.go): reset rebuilds the empty tableau a round
// starts from inside the frame's own arrays, and copyFrom makes a frame a
// value copy of its parent — a handful of memmoves into arrays the frame
// already owns — which is how branch-and-bound and the Nelson–Oppen probes
// get a private tableau at every node. A copy is cell-for-cell the parent,
// the pivoting rule, the pivot budget and the exact rational arithmetic do
// not depend on where the cells live, and adding a slack variable's column
// is free while the width stays under the stride, so the solver visits
// exactly the same bases as one that allocated a fresh tableau per node.
type simplex struct {
	n          int // total variables (structural + slack)
	structural int // ids < structural are integer-constrained structural vars
	// rowOf[x] is the tableau row owned by basic variable x, -1 when x is
	// nonbasic. rowVar is the inverse: the basic variable of each row, and
	// its length is the row count.
	rowOf  []int32
	rowVar []int32
	// tab holds the tableau cells: row ri occupies
	// tab[ri*stride : ri*stride+n], and cells in columns [n, stride) are
	// kept at cellZero so growing n claims them without touching memory.
	// tab[ri*stride+y] is the coefficient of variable y in the defining row
	// of basic variable rowVar[ri]. A row never carries its own basic
	// variable (that coefficient is implicitly zero).
	tab    []qcell
	stride int
	// bigTab boxes the rare coefficients that overflow int64; a qcell with
	// den == 0 indexes into it. Entries are immutable once stored.
	bigTab   []*big.Rat
	lower    []qnum
	upper    []qnum
	hasLower []bool
	hasUpper []bool
	beta     []qnum
	// scratch is a per-frame row buffer for pivoting; never copied.
	scratch []qcell
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

// row returns the defining row of tableau row ri, n cells wide.
func (s *simplex) row(ri int32) []qcell {
	base := int(ri) * s.stride
	return s.tab[base : base+s.n]
}

// sterm is one addend of a slack definition: coefficient c on variable x.
type sterm struct {
	x int
	c qnum
}

// reset makes s the empty tableau over the given structural variables,
// reusing its arrays. slackHint is the expected number of addSlack calls:
// the stride and the backing array are sized for it upfront, so a
// well-hinted instance never repacks. The hint only affects capacity, never
// values. The round may spend maxPivots check iterations counted in pivots.
func (s *simplex) reset(structural, maxPivots, slackHint int, pivots *int) {
	// +2 keeps one probe slack per copy within stride (Nelson–Oppen adds a
	// difference slack to each probe frame).
	vars := structural + slackHint + 2
	s.n, s.structural, s.stride = structural, structural, vars
	s.rowOf = slices.Grow(s.rowOf[:0], vars)[:structural]
	s.rowVar = s.rowVar[:0]
	s.tab = slices.Grow(s.tab[:0], (slackHint+2)*vars)
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

// copyFrom makes s a value copy of p inside s's own arrays; cells are plain
// values and big.Rat entries are immutable, so every slice copies by
// memmove. The copies are independent: a frame growing its tableau appends
// to (or repacks) its own backing array and its own bigTab, never the
// parent's, and the capacity it grew stays with the frame for the next copy.
func (s *simplex) copyFrom(p *simplex) {
	s.n, s.structural, s.stride = p.n, p.structural, p.stride
	s.rowOf = append(s.rowOf[:0], p.rowOf...)
	s.rowVar = append(s.rowVar[:0], p.rowVar...)
	s.tab = append(s.tab[:0], p.tab...)
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

// widen repacks the tableau with a larger stride once the variable count
// outgrows the current one. Cells past the old stride start as cellZero,
// preserving the [n, stride) zero-fill invariant.
func (s *simplex) widen(newStride int) {
	old := s.tab
	os := s.stride
	nrows := len(s.rowVar)
	s.tab = make([]qcell, nrows*newStride, (nrows+8)*newStride)
	for ri := 0; ri < nrows; ri++ {
		copy(s.tab[ri*newStride:ri*newStride+os], old[ri*os:(ri+1)*os])
		for z := ri*newStride + os; z < (ri+1)*newStride; z++ {
			s.tab[z] = cellZero
		}
	}
	s.stride = newStride
}

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
	if s.n > s.stride {
		// Grow by a fixed step rather than doubling: repacks stay cheap on
		// these small tableaux, and a tight stride keeps every frame copy's
		// memmove close to the live cell count.
		s.widen(s.n + 16)
	}
	// Existing rows gain the new variable's column for free: their cells in
	// [n-1, stride) are already cellZero. Append one fresh zero row, growing
	// the backing array with several rows of headroom at a time.
	base := len(s.tab)
	if cap(s.tab) < base+s.stride {
		ncap := 2 * cap(s.tab)
		if ncap < base+s.stride {
			ncap = base + s.stride
		}
		nt := make([]qcell, base, ncap)
		copy(nt, s.tab)
		s.tab = nt
	}
	s.tab = s.tab[:base+s.stride]
	newRow := s.tab[base:]
	for i := range newRow {
		newRow[i] = cellZero
	}
	row := s.tab[base : base+s.n]
	v := qZero
	for _, t := range combo {
		if t.c.qSign() == 0 {
			continue
		}
		if xri := s.rowOf[t.x]; xri >= 0 {
			// Substitute the basic variable by its row.
			xrow := s.row(xri)
			for y, cy := range xrow {
				if cy.isZero() {
					continue
				}
				row[y] = s.storeCell(qAdd(s.loadCell(row[y]), qMul(t.c, s.loadCell(cy))))
			}
		} else {
			row[t.x] = s.storeCell(qAdd(s.loadCell(row[t.x]), t.c))
		}
		v = qAdd(v, qMul(t.c, s.beta[t.x]))
	}
	ri := int32(len(s.rowVar))
	s.rowVar = append(s.rowVar, int32(id))
	s.rowOf[id] = ri
	s.beta = append(s.beta, v)
	return id
}

// update changes the value of nonbasic variable x to v, adjusting all basic
// variables.
func (s *simplex) update(x int, v qnum) {
	delta := qSub(v, s.beta[x])
	for ri := range s.rowVar {
		if c := s.tab[ri*s.stride+x]; !c.isZero() {
			b := s.rowVar[ri]
			s.beta[b] = qAdd(s.beta[b], qMul(s.loadCell(c), delta))
		}
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

// pivot exchanges basic x with nonbasic y.
func (s *simplex) pivot(x, y int) {
	xri := s.rowOf[x]
	xrow := s.row(xri)
	a := s.loadCell(xrow[y])
	// y = (x - Σ_{z≠y} xrow[z]·z) / a, built in scratch then copied over the
	// old row in place so pivoting never allocates.
	if cap(s.scratch) < s.n {
		s.scratch = make([]qcell, s.n, s.n+16)
	}
	yrow := s.scratch[:s.n]
	for z, cz := range xrow {
		if z == y || cz.isZero() {
			yrow[z] = cellZero
			continue
		}
		yrow[z] = s.storeCell(qNeg(qDiv(s.loadCell(cz), a)))
	}
	yrow[x] = s.storeCell(qDiv(qOne, a))
	yrow[y] = cellZero
	copy(xrow, yrow)
	s.rowVar[xri] = int32(y)
	s.rowOf[y] = xri
	s.rowOf[x] = -1
	// Substitute y in all other rows.
	for ri := range s.rowVar {
		if int32(ri) == xri {
			continue
		}
		row := s.row(int32(ri))
		cyc := row[y]
		if cyc.isZero() {
			continue
		}
		cy := s.loadCell(cyc)
		row[y] = cellZero
		for z, cz := range yrow {
			if cz.isZero() {
				continue
			}
			row[z] = s.storeCell(qAdd(s.loadCell(row[z]), qMul(cy, s.loadCell(cz))))
		}
	}
}

// pivotAndUpdate makes basic x take value v by pivoting with nonbasic y.
func (s *simplex) pivotAndUpdate(x, y int, v qnum) {
	xri := s.rowOf[x]
	a := s.loadCell(s.tab[int(xri)*s.stride+y])
	theta := qDiv(qSub(v, s.beta[x]), a)
	s.beta[x] = v
	s.beta[y] = qAdd(s.beta[y], theta)
	for ri := range s.rowVar {
		if int32(ri) == xri {
			continue
		}
		if c := s.tab[ri*s.stride+y]; !c.isZero() {
			b := s.rowVar[ri]
			s.beta[b] = qAdd(s.beta[b], qMul(s.loadCell(c), theta))
		}
	}
	s.pivot(x, y)
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
		row := s.row(s.rowOf[x])
		y := -1
		for cand := 0; cand < s.n; cand++ {
			cc := row[cand]
			if cc.isZero() {
				continue
			}
			sign := s.loadCell(cc).qSign()
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
