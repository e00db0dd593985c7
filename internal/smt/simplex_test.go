package smt

import "testing"

// simplexScript is one linear problem fed to a simplex in two phases: the
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

func (sc simplexScript) run(t *testing.T, slackHint int) *simplex {
	t.Helper()
	s := new(simplex)
	s.reset(sc.structural, 1000, slackHint, new(int))
	ids := make([]int, len(sc.combos))
	assert := func(phase int) {
		for _, b := range sc.bounds {
			x := -1 - b.slack
			if b.slack >= 0 {
				if (b.slack < sc.split) != (phase == 0) {
					continue
				}
				x = ids[b.slack]
			} else if phase != 0 {
				continue
			}
			assertBound := s.assertLower
			if b.upper {
				assertBound = s.assertUpper
			}
			if !assertBound(x, qInt(b.c)) {
				t.Fatalf("hint %d: immediate bound conflict on %d", slackHint, x)
			}
		}
	}
	for i, c := range sc.combos[:sc.split] {
		ids[i] = s.addSlack(c)
	}
	assert(0)
	if feasible, over := s.check(); !feasible || over {
		t.Fatalf("hint %d: first check feasible=%v over=%v", slackHint, feasible, over)
	}
	for i := sc.split; i < len(sc.combos); i++ {
		ids[i] = s.addSlack(sc.combos[i])
	}
	assert(1)
	return s
}

// TestSimplexWidenMatchesUpfront drives the tableau repack: a simplex reset
// with slackHint 0 outgrows its stride and widens, and must end in the same
// state — feasibility, bases, tableau rows, bounds and values — as one
// sized upfront.
func TestSimplexWidenMatchesUpfront(t *testing.T) {
	one, two, neg := qInt(1), qInt(2), qInt(-1)
	const x0, x1, x2 = 0, 1, 2
	slack := func(i int) int { return 3 + i } // ids in addSlack order
	for _, tc := range []struct {
		name     string
		feasible bool
		sc       simplexScript
	}{
		{"feasible", true, simplexScript{
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
		}},
		{"infeasible", false, simplexScript{
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
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sized := tc.sc.run(t, len(tc.sc.combos))
			repacked := tc.sc.run(t, 0)
			if repacked.stride <= tc.sc.structural+2 {
				t.Fatalf("stride %d: the tableau never widened", repacked.stride)
			}
			if sized.stride != tc.sc.structural+len(tc.sc.combos)+2 {
				t.Fatalf("stride %d: the upfront-sized tableau widened", sized.stride)
			}
			f1, o1 := sized.check()
			f2, o2 := repacked.check()
			if f1 != tc.feasible || f2 != f1 || o1 || o2 {
				t.Fatalf("feasible sized=%v repacked=%v (want %v), over %v/%v", f1, f2, tc.feasible, o1, o2)
			}
			if sized.n != repacked.n {
				t.Fatalf("n: sized %d, repacked %d", sized.n, repacked.n)
			}
			for x := 0; x < sized.n; x++ {
				if sized.rowOf[x] != repacked.rowOf[x] {
					t.Errorf("x%d: basis row %d sized, %d repacked", x, sized.rowOf[x], repacked.rowOf[x])
				}
				if sized.hasLower[x] != repacked.hasLower[x] || sized.hasUpper[x] != repacked.hasUpper[x] ||
					qCmp(sized.lower[x], repacked.lower[x]) != 0 || qCmp(sized.upper[x], repacked.upper[x]) != 0 {
					t.Errorf("x%d: bounds differ", x)
				}
				if qCmp(sized.val(x), repacked.val(x)) != 0 {
					t.Errorf("x%d: val %v sized, %v repacked", x, sized.val(x), repacked.val(x))
				}
			}
			// The tableau itself: the same basic variable and the same
			// coefficients in every row, whatever the stride.
			for ri := range sized.rowVar {
				if sized.rowVar[ri] != repacked.rowVar[ri] {
					t.Fatalf("row %d: basic x%d sized, x%d repacked", ri, sized.rowVar[ri], repacked.rowVar[ri])
				}
				rs, rr := sized.row(int32(ri)), repacked.row(int32(ri))
				for y := range rs {
					if qCmp(sized.loadCell(rs[y]), repacked.loadCell(rr[y])) != 0 {
						t.Errorf("row %d, x%d: coefficient %v sized, %v repacked", ri, y, sized.loadCell(rs[y]), repacked.loadCell(rr[y]))
					}
				}
			}
			if !tc.feasible {
				return
			}
			// The assignment satisfies every slack definition and bound.
			for i, c := range tc.sc.combos {
				want := qZero
				for _, st := range c {
					want = qAdd(want, qMul(st.c, repacked.val(st.x)))
				}
				if got := repacked.val(slack(i)); qCmp(got, want) != 0 {
					t.Errorf("s%d = %v, its definition gives %v", i, got, want)
				}
			}
			for x := 0; x < repacked.n; x++ {
				v := repacked.val(x)
				if repacked.hasLower[x] && qCmp(v, repacked.lower[x]) < 0 || repacked.hasUpper[x] && qCmp(v, repacked.upper[x]) > 0 {
					t.Errorf("x%d = %v violates its bounds", x, v)
				}
			}
		})
	}
}
