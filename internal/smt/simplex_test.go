package smt

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// The differential test of the sparse tableau: scripts of reset, addSlack,
// assertLower, assertUpper, check and copyFrom run on frames of the sparse
// simplex and of denseSimplex, the dense row*stride+column tableau it
// replaced (kept below as the reference, in test code only). After every
// step the two must agree on everything the rest of the solver can
// observe — verdicts, the budget flag, the pivot count, the basis, every
// coefficient, the bounds and the values — so the sparse tableau visits
// exactly the bases the dense one does.

// Ops of a simplex script. Operands are raw bytes reduced against the
// frame's state when the op runs, so that every byte string is a valid
// script.
const (
	opReset = iota
	opSlack
	opLower
	opUpper
	opCheck
	opCopy
	numOps
)

const scriptFrames = 3

// scriptPivots are the pivot budgets a reset may give its round; the small
// ones make check run out mid-script.
var scriptPivots = []int{1000, 1, 3, 10, 40}

// scriptCoefs are the slack coefficients a script draws from: small ones,
// zero, and some near overflowCoeff whose products overflow int64 and box
// tableau cells as big.Rat.
var scriptCoefs = []int64{1, -1, 2, -2, 3, -3, 4, 5, -7, 0, overflowCoeff, -(overflowCoeff - 8), overflowCoeff + 6}

// scriptBigBounds are the bounds bytes 0xF0 and up stand for; lower bytes
// stand for b - 0x78.
var scriptBigBounds = []int64{overflowCoeff, -overflowCoeff, overflowCoeff * 3, -(overflowCoeff * 2) + 1}

type simplexOp struct {
	kind  int
	f, g  int      // frame; copyFrom's source frame
	x     int      // raw variable byte, or the structural count of a reset
	limit int      // reset: index into scriptPivots
	hint  int      // reset: slackHint
	bound byte     // raw bound byte
	terms [][2]int // slack: raw variable byte, index into scriptCoefs
}

func scriptBound(b byte) qnum {
	if b >= 0xF0 {
		return qInt(scriptBigBounds[int(b-0xF0)%len(scriptBigBounds)])
	}
	return qInt(int64(b) - 0x78)
}

// maxScriptOps caps a decoded script: every step compares whole frames,
// so a long fuzzer input would cost cubic time without finding more.
const maxScriptOps = 100

// decodeScript reads up to maxScriptOps ops from fuzzer bytes; a truncated
// op is dropped.
func decodeScript(data []byte) []simplexOp {
	var ops []simplexOp
	next := func(n int) ([]byte, bool) {
		if len(data) < n {
			return nil, false
		}
		b := data[:n]
		data = data[n:]
		return b, true
	}
	for len(ops) < maxScriptOps {
		b, ok := next(2)
		if !ok {
			return ops
		}
		op := simplexOp{kind: int(b[0]) % numOps, f: int(b[1]) % scriptFrames}
		switch op.kind {
		case opReset:
			if b, ok = next(3); !ok {
				return ops
			}
			op.x, op.limit, op.hint = 1+int(b[0])%6, int(b[1])%len(scriptPivots), int(b[2])%10
		case opSlack:
			if b, ok = next(1); !ok {
				return ops
			}
			for k := 1 + int(b[0])%4; k > 0; k-- {
				if b, ok = next(2); !ok {
					return ops
				}
				op.terms = append(op.terms, [2]int{int(b[0]), int(b[1]) % len(scriptCoefs)})
			}
		case opLower, opUpper:
			if b, ok = next(2); !ok {
				return ops
			}
			op.x, op.bound = int(b[0]), b[1]
		case opCopy:
			if b, ok = next(1); !ok {
				return ops
			}
			op.g = int(b[0]) % scriptFrames
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeScript is decodeScript's inverse, for seeding the fuzzer with
// table scripts.
func encodeScript(ops []simplexOp) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, byte(op.kind), byte(op.f))
		switch op.kind {
		case opReset:
			out = append(out, byte(op.x-1), byte(op.limit), byte(op.hint))
		case opSlack:
			out = append(out, byte(len(op.terms)-1))
			for _, t := range op.terms {
				out = append(out, byte(t[0]), byte(t[1]))
			}
		case opLower, opUpper:
			out = append(out, byte(op.x), op.bound)
		case opCopy:
			out = append(out, byte(op.g))
		}
	}
	return out
}

// randomScript draws a script of n ops: mostly slacks and bounds, with
// checks, copies and the occasional reset mixed in.
func randomScript(rng *rand.Rand, n int) []simplexOp {
	ops := make([]simplexOp, 0, n)
	for len(ops) < n {
		op := simplexOp{f: rng.Intn(scriptFrames)}
		switch r := rng.Intn(20); {
		case r == 0:
			op.kind, op.x, op.limit, op.hint = opReset, 1+rng.Intn(6), rng.Intn(len(scriptPivots)), rng.Intn(10)
		case r < 6:
			op.kind = opSlack
			for k := 1 + rng.Intn(4); k > 0; k-- {
				coef := rng.Intn(len(scriptCoefs) - 3)
				if rng.Intn(8) == 0 {
					coef = len(scriptCoefs) - 1 - rng.Intn(3)
				}
				op.terms = append(op.terms, [2]int{rng.Intn(256), coef})
			}
		case r < 14:
			op.kind, op.x = opLower+rng.Intn(2), rng.Intn(256)
			op.bound = byte(0x78 - 6 + rng.Intn(13))
			if rng.Intn(16) == 0 {
				op.bound = byte(0xF0 + rng.Intn(len(scriptBigBounds)))
			}
		case r < 18:
			op.kind = opCheck
		default:
			op.kind, op.g = opCopy, rng.Intn(scriptFrames)
		}
		ops = append(ops, op)
	}
	return ops
}

// simplexRun is one script's frames on both tableaux, each side sharing a
// pivot count across its frames as a theoryWorkspace's frames do.
type simplexRun struct {
	sparse                    [scriptFrames]*simplex
	dense                     [scriptFrames]*denseSimplex
	sparsePivots, densePivots int
}

func newSimplexRun() *simplexRun {
	r := new(simplexRun)
	for f := range r.sparse {
		r.sparse[f], r.dense[f] = new(simplex), new(denseSimplex)
		r.sparse[f].reset(3, scriptPivots[0], 0, &r.sparsePivots)
		r.dense[f].reset(3, scriptPivots[0], 0, &r.densePivots)
	}
	return r
}

// step runs op on both sides and describes what each returned. hint ≥ 0
// overrides every reset's slackHint.
func (r *simplexRun) step(t *testing.T, op simplexOp, hint int) {
	t.Helper()
	s, d := r.sparse[op.f], r.dense[op.f]
	var got, want string
	switch op.kind {
	case opReset:
		h := op.hint
		if hint >= 0 {
			h = hint
		}
		s.reset(op.x, scriptPivots[op.limit], h, &r.sparsePivots)
		d.reset(op.x, scriptPivots[op.limit], h, &r.densePivots)
	case opSlack:
		combo := make([]sterm, len(op.terms))
		for i, tm := range op.terms {
			combo[i] = sterm{x: tm[0] % s.n, c: qInt(scriptCoefs[tm[1]])}
		}
		got, want = fmt.Sprint(s.addSlack(combo)), fmt.Sprint(d.addSlack(combo))
	case opLower:
		x, c := op.x%s.n, scriptBound(op.bound)
		got, want = fmt.Sprint(s.assertLower(x, c)), fmt.Sprint(d.assertLower(x, c))
	case opUpper:
		x, c := op.x%s.n, scriptBound(op.bound)
		got, want = fmt.Sprint(s.assertUpper(x, c)), fmt.Sprint(d.assertUpper(x, c))
	case opCheck:
		f1, o1 := s.check()
		f2, o2 := d.check()
		got, want = fmt.Sprint(f1, o1, s.fractionalStructural()), fmt.Sprint(f2, o2, d.fractionalStructural())
	case opCopy:
		if op.g == op.f {
			return
		}
		s.copyFrom(r.sparse[op.g])
		d.copyFrom(r.dense[op.g])
	}
	if got != want {
		t.Fatalf("op %+v: sparse returned %s, dense %s", op, got, want)
	}
	if r.sparsePivots != r.densePivots {
		t.Fatalf("op %+v: %d pivots sparse, %d dense", op, r.sparsePivots, r.densePivots)
	}
	for f := range r.sparse {
		if err := sameTableau(r.sparse[f], r.dense[f]); err != nil {
			t.Fatalf("op %+v, frame %d: %v", op, f, err)
		}
	}
}

// sameTableau compares a sparse frame with the dense one it mirrors: the
// basis, every coefficient, the bounds, the values, the number of boxed
// cells and the pivot budget; and that each sparse row holds only nonzero
// entries in strictly ascending column order.
func sameTableau(s *simplex, d *denseSimplex) error {
	if s.n != d.n || s.structural != d.structural {
		return fmt.Errorf("%d variables (%d structural) sparse, %d (%d) dense", s.n, s.structural, d.n, d.structural)
	}
	if !slices.Equal(s.rowOf, d.rowOf) || !slices.Equal(s.rowVar, d.rowVar) {
		return fmt.Errorf("basis: rowOf %v rowVar %v sparse, %v %v dense", s.rowOf, s.rowVar, d.rowOf, d.rowVar)
	}
	if len(s.bigTab) != len(d.bigTab) || s.pivotLimit != d.pivotLimit {
		return fmt.Errorf("%d boxed cells, limit %d sparse; %d, %d dense", len(s.bigTab), s.pivotLimit, len(d.bigTab), d.pivotLimit)
	}
	for ri := range s.rowVar {
		prev := int32(-1)
		for _, e := range s.row(int32(ri)) {
			if e.col <= prev || e.c.isZero() {
				return fmt.Errorf("row %d: entries %v not nonzero and ascending", ri, s.row(int32(ri)))
			}
			prev = e.col
		}
		drow := d.row(int32(ri))
		for y := 0; y < s.n; y++ {
			if got, want := s.coef(int32(ri), y), d.loadCell(drow[y]); qCmp(got, want) != 0 {
				return fmt.Errorf("row %d, x%d: coefficient %v sparse, %v dense", ri, y, got.toBig(), want.toBig())
			}
		}
	}
	for x := 0; x < s.n; x++ {
		if s.hasLower[x] != d.hasLower[x] || s.hasUpper[x] != d.hasUpper[x] ||
			s.hasLower[x] && qCmp(s.lower[x], d.lower[x]) != 0 || s.hasUpper[x] && qCmp(s.upper[x], d.upper[x]) != 0 {
			return fmt.Errorf("x%d: bounds differ", x)
		}
		if qCmp(s.val(x), d.val(x)) != 0 {
			return fmt.Errorf("x%d: value %v sparse, %v dense", x, s.val(x).toBig(), d.val(x).toBig())
		}
	}
	return nil
}

// runScript runs ops on a fresh simplexRun, comparing after every step.
func runScript(t *testing.T, ops []simplexOp, hint int) *simplexRun {
	t.Helper()
	r := newSimplexRun()
	for _, op := range ops {
		r.step(t, op, hint)
	}
	return r
}

// simplexScript is one linear problem fed to frame 0 in two phases: the
// first slacks and bounds, a check, then more slacks — some defined over
// earlier slacks, which are basic by then — more bounds, and a final check.
type simplexScript struct {
	structural int
	combos     [][]sterm
	bounds     []simplexBound
	split      int // combos[:split] and their bounds go in before the first check
}

type simplexBound struct {
	slack int // index into combos; -1 - x bounds structural variable x
	upper bool
	c     int64
}

// ops maps the script onto the op language, with slackHint hint.
func (sc simplexScript) ops(hint int) []simplexOp {
	ops := []simplexOp{{kind: opReset, x: sc.structural, hint: hint}}
	for phase, combos := range [2][][]sterm{sc.combos[:sc.split], sc.combos[sc.split:]} {
		for _, c := range combos {
			op := simplexOp{kind: opSlack}
			for _, st := range c {
				v, _ := st.c.qInt64()
				op.terms = append(op.terms, [2]int{st.x, slices.Index(scriptCoefs, v)})
			}
			ops = append(ops, op)
		}
		for _, b := range sc.bounds {
			x := -1 - b.slack
			if b.slack >= 0 {
				if (b.slack < sc.split) != (phase == 0) {
					continue
				}
				x = sc.structural + b.slack
			} else if phase != 0 {
				continue
			}
			kind := opLower
			if b.upper {
				kind = opUpper
			}
			ops = append(ops, simplexOp{kind: kind, x: x, bound: byte(b.c + 0x78)})
		}
		ops = append(ops, simplexOp{kind: opCheck})
	}
	return ops
}

// tableScripts are two hand-written problems, one feasible and one not,
// whose later slacks are defined over earlier ones.
func tableScripts() map[string]simplexScript {
	one, two, neg := qInt(1), qInt(2), qInt(-1)
	const x0, x1, x2 = 0, 1, 2
	slack := func(i int) int { return 3 + i } // ids in addSlack order
	return map[string]simplexScript{
		"feasible": {
			structural: 3,
			split:      3,
			combos: [][]sterm{
				{{x0, one}, {x1, one}},                 // s0 = x0 + x1
				{{x1, one}, {x2, neg}},                 // s1 = x1 - x2
				{{x0, one}, {x2, two}},                 // s2 = x0 + 2·x2
				{{slack(0), one}, {slack(1), one}},     // s3 = s0 + s1
				{{x0, qInt(3)}, {x2, neg}},             // s4 = 3·x0 - x2
				{{slack(2), one}, {x1, neg}},           // s5 = s2 - x1
				{{x0, one}, {x1, neg}, {x2, one}},      // s6 = x0 - x1 + x2
				{{slack(4), one}, {slack(6), two}},     // s7 = s4 + 2·s6
				{{slack(3), neg}, {slack(5), qInt(4)}}, // s8 = 4·s5 - s3
			},
			bounds: []simplexBound{
				{-1 - x0, false, 1}, {-1 - x2, false, 0},
				{0, false, 4}, {0, true, 10}, {1, false, 1}, {2, true, 7},
				{3, true, 12}, {4, true, 9}, {5, false, -2}, {6, false, -3}, {7, true, 20}, {8, false, -30},
			},
		},
		"infeasible": {
			structural: 3,
			split:      2,
			combos: [][]sterm{
				{{x0, one}, {x1, one}},
				{{x1, one}, {x2, one}},
				{{slack(0), one}, {slack(1), one}}, // s2 = x0 + 2·x1 + x2
				{{x0, one}, {x2, one}},
				{{slack(3), one}, {x1, two}}, // s4 = s2 again
			},
			bounds: []simplexBound{
				{-1 - x0, false, 0}, {-1 - x1, false, 0}, {-1 - x2, false, 0},
				{0, true, 3}, {1, true, 3}, {2, false, 5}, {3, true, 10}, {4, true, 4},
			},
		},
	}
}

// sameFrames reports whether two runs of one script ended in identical
// sparse frames, up to where the rows sit in the arena.
func sameFrames(a, b *simplexRun) error {
	for f := range a.sparse {
		if err := sameTableau(a.sparse[f], asDense(b.sparse[f])); err != nil {
			return fmt.Errorf("frame %d: %v", f, err)
		}
	}
	return nil
}

// asDense spreads a sparse frame into a dense one, for sameTableau.
func asDense(s *simplex) *denseSimplex {
	d := &denseSimplex{
		n: s.n, structural: s.structural, stride: s.n,
		rowOf: s.rowOf, rowVar: s.rowVar, bigTab: s.bigTab,
		lower: s.lower, upper: s.upper, hasLower: s.hasLower, hasUpper: s.hasUpper, beta: s.beta,
		pivotLimit: s.pivotLimit,
	}
	d.tab = make([]qcell, len(s.rowVar)*s.n)
	for i := range d.tab {
		d.tab[i] = cellZero
	}
	for ri := range s.rowVar {
		for _, e := range s.row(int32(ri)) {
			d.tab[ri*s.n+int(e.col)] = e.c
		}
	}
	return d
}

// TestSimplexMatchesDense runs the table scripts and seeded random ones on
// both tableaux. Each script runs three times — with its own slackHints,
// with every hint 0 and with every hint 16 — and the hint, which sizes
// capacity only, must leave the final frames identical.
func TestSimplexMatchesDense(t *testing.T) {
	scripts := map[string][]simplexOp{}
	for name, sc := range tableScripts() {
		scripts[name] = sc.ops(len(sc.combos))
		// The table scripts end as their names say.
		r := runScript(t, scripts[name], -1)
		if feasible, over := r.sparse[0].check(); feasible != (name == "feasible") || over {
			t.Fatalf("%s script: feasible=%v over=%v", name, feasible, over)
		}
	}
	n := 1000
	if testing.Short() {
		n = 300
	}
	for seed := 0; seed < n; seed++ {
		scripts[fmt.Sprint("seed", seed)] = randomScript(rand.New(rand.NewSource(int64(seed))), 80)
	}
	for name, ops := range scripts {
		t.Run(name, func(t *testing.T) {
			own := runScript(t, ops, -1)
			for _, hint := range []int{0, 16} {
				if err := sameFrames(own, runScript(t, ops, hint)); err != nil {
					t.Fatalf("slackHint %d: %v", hint, err)
				}
			}
		})
	}
}

// FuzzSimplexMatchesDense runs fuzzed scripts on both tableaux.
func FuzzSimplexMatchesDense(f *testing.F) {
	for _, sc := range tableScripts() {
		f.Add(encodeScript(sc.ops(0)))
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(encodeScript(randomScript(rand.New(rand.NewSource(seed)), 40)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runScript(t, decodeScript(data), -1)
	})
}

// denseSimplex is the dense tableau the sparse simplex replaced, verbatim
// but for its name: the reference of the differential test above.
type denseSimplex struct {
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

func (s *denseSimplex) loadCell(c qcell) qnum {
	if c.den != 0 {
		return qnum{num: c.num, den: c.den}
	}
	return qnum{big: s.bigTab[c.num]}
}

func (s *denseSimplex) storeCell(q qnum) qcell {
	if q.big == nil {
		return qcell{num: q.num, den: q.den}
	}
	s.bigTab = append(s.bigTab, q.big)
	return qcell{num: int64(len(s.bigTab) - 1), den: 0}
}

// row returns the defining row of tableau row ri, n cells wide.
func (s *denseSimplex) row(ri int32) []qcell {
	base := int(ri) * s.stride
	return s.tab[base : base+s.n]
}

// reset makes s the empty tableau over the given structural variables,
// reusing its arrays. slackHint is the expected number of addSlack calls:
// the stride and the backing array are sized for it upfront, so a
// well-hinted instance never repacks. The hint only affects capacity, never
// values. The round may spend maxPivots check iterations counted in pivots.
func (s *denseSimplex) reset(structural, maxPivots, slackHint int, pivots *int) {
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
func (s *denseSimplex) copyFrom(p *denseSimplex) {
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

func (s *denseSimplex) val(x int) qnum { return s.beta[x] }

// widen repacks the tableau with a larger stride once the variable count
// outgrows the current one. Cells past the old stride start as cellZero,
// preserving the [n, stride) zero-fill invariant.
func (s *denseSimplex) widen(newStride int) {
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
func (s *denseSimplex) addSlack(combo []sterm) int {
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
func (s *denseSimplex) update(x int, v qnum) {
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
func (s *denseSimplex) assertLower(x int, c qnum) bool {
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
func (s *denseSimplex) assertUpper(x int, c qnum) bool {
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
func (s *denseSimplex) pivot(x, y int) {
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
func (s *denseSimplex) pivotAndUpdate(x, y int, v qnum) {
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
func (s *denseSimplex) check() (feasible, budgetExceeded bool) {
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
func (s *denseSimplex) fractionalStructural() int {
	for x := 0; x < s.structural; x++ {
		if !s.beta[x].qIsInt() {
			return x
		}
	}
	return -1
}
