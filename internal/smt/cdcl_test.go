package smt

import (
	"math/rand"
	"testing"
)

// bruteForceSAT decides small instances exhaustively.
func bruteForceSAT(nvars int, clauses [][]int) bool {
	for mask := 0; mask < 1<<nvars; mask++ {
		ok := true
		for _, cl := range clauses {
			sat := false
			for _, lit := range cl {
				v := lit
				if v < 0 {
					v = -v
				}
				val := mask>>(v-1)&1 == 1
				if (lit > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func modelSatisfies(clauses [][]int, model []int8) bool {
	for _, cl := range clauses {
		sat := false
		for _, lit := range cl {
			v := lit
			if v < 0 {
				v = -v
			}
			if model[v] == 0 {
				continue
			}
			if (model[v] == 1) == (lit > 0) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// solveFresh decides clauses on a new instance with no assumptions, the
// way a stateless check starts. The instance reorders literals within the
// clauses it is given.
func solveFresh(nvars int, clauses [][]int, budget int) (satStatus, []int8) {
	return newCDCL(nvars, clauses).solveAssume(nil, budget)
}

func TestCDCLBasics(t *testing.T) {
	cases := []struct {
		nvars   int
		clauses [][]int
		want    satStatus
	}{
		{1, [][]int{{1}}, satSat},
		{1, [][]int{{1}, {-1}}, satUnsat},
		{2, [][]int{{1, 2}, {-1, 2}, {1, -2}, {-1, -2}}, satUnsat},
		{3, [][]int{{1, 2, 3}, {-1}, {-2}}, satSat},
		{2, [][]int{{1}, {-1, 2}, {-2, -1}}, satUnsat}, // unit chain conflict
		{0, nil, satSat},
	}
	for i, c := range cases {
		st, model := solveFresh(c.nvars, c.clauses, 100000)
		if st != c.want {
			t.Errorf("case %d: status %v, want %v", i, st, c.want)
			continue
		}
		if st == satSat && len(c.clauses) > 0 && !modelSatisfies(c.clauses, model) {
			t.Errorf("case %d: model does not satisfy formula", i)
		}
	}
}

// TestCDCLPigeonhole: n+1 pigeons into n holes is UNSAT and requires real
// conflict-driven search.
func TestCDCLPigeonhole(t *testing.T) {
	const holes = 4
	const pigeons = holes + 1
	varOf := func(p, h int) int { return p*holes + h + 1 }
	var clauses [][]int
	for p := 0; p < pigeons; p++ {
		var cl []int
		for h := 0; h < holes; h++ {
			cl = append(cl, varOf(p, h))
		}
		clauses = append(clauses, cl)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, []int{-varOf(p1, h), -varOf(p2, h)})
			}
		}
	}
	st, _ := solveFresh(pigeons*holes, clauses, 1000000)
	if st != satUnsat {
		t.Fatalf("PHP(%d,%d) = %v, want unsat", pigeons, holes, st)
	}
}

// TestCDCLRandom3SAT cross-checks CDCL against brute force on random
// instances around the phase-transition density (m/n ≈ 4.3), where both
// satisfiable and unsatisfiable instances are common.
func TestCDCLRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		nvars := 4 + rng.Intn(9)
		nclauses := int(4.3*float64(nvars)) + rng.Intn(3)
		var clauses [][]int
		for i := 0; i < nclauses; i++ {
			cl := make([]int, 0, 3)
			for len(cl) < 3 {
				v := 1 + rng.Intn(nvars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				dup := false
				for _, l := range cl {
					if l == v || l == -v {
						dup = true
					}
				}
				if !dup {
					cl = append(cl, v)
				}
			}
			clauses = append(clauses, cl)
		}
		st, model := solveFresh(nvars, clauses, 100000)
		want := bruteForceSAT(nvars, clauses)
		if st == satUnknown {
			t.Fatalf("trial %d: budget exceeded on tiny instance", trial)
		}
		if (st == satSat) != want {
			t.Fatalf("trial %d: CDCL=%v brute=%v (n=%d m=%d)", trial, st, want, nvars, nclauses)
		}
		if st == satSat && !modelSatisfies(clauses, model) {
			t.Fatalf("trial %d: returned model does not satisfy the formula", trial)
		}
	}
}

// TestCDCLAgainstDPLL runs both SAT cores on the same random instances.
func TestCDCLAgainstDPLL(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		nvars := 3 + rng.Intn(8)
		nclauses := 2 + rng.Intn(4*nvars)
		var clauses [][]int
		for i := 0; i < nclauses; i++ {
			width := 1 + rng.Intn(3)
			var cl []int
			for j := 0; j < width; j++ {
				v := 1 + rng.Intn(nvars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl = append(cl, v)
			}
			clauses = append(clauses, cl)
		}
		st1, _ := solveFresh(nvars, clauses, 100000)
		st2, _ := solveSAT(nvars, clauses, 1000000)
		if st1 != st2 {
			t.Fatalf("trial %d: CDCL=%v DPLL=%v on %v", trial, st1, st2, clauses)
		}
	}
}

// TestCDCLIncrementalAssumptions asks one instance a seeded sequence of
// assumption sets, each diffed against DPLL on the clauses plus the
// assumptions as units. Learned clauses carry from call to call, as they
// do between the lazy loop's iterations.
func TestCDCLIncrementalAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	randLit := func(nvars int) int {
		v := 1 + rng.Intn(nvars)
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	learned := 0
	for inst := 0; inst < 40; inst++ {
		nvars := 6 + rng.Intn(7)
		var clauses [][]int
		for i := 0; i < 4*nvars; i++ {
			clauses = append(clauses, []int{randLit(nvars), randLit(nvars), randLit(nvars)})
		}
		s := newCDCL(nvars, nil)
		for _, cl := range clauses {
			s.addClause(append([]int(nil), cl...))
		}
		for q := 0; q < 25; q++ {
			assumps := make([]int, rng.Intn(5))
			for i := range assumps {
				assumps[i] = randLit(nvars)
			}
			st, model := s.solveAssume(assumps, 100000)
			withUnits := append([][]int(nil), clauses...)
			for _, a := range assumps {
				withUnits = append(withUnits, []int{a})
			}
			want, _ := solveSAT(nvars, withUnits, 1000000)
			if st != want {
				t.Fatalf("instance %d query %d: CDCL=%v DPLL=%v under %v", inst, q, st, want, assumps)
			}
			if st == satSat && !modelSatisfies(withUnits, model) {
				t.Fatalf("instance %d query %d: model violates the clauses or %v", inst, q, assumps)
			}
		}
		learned += len(s.clauses) - len(clauses)
	}
	if learned == 0 {
		t.Fatal("no instance learned a clause; nothing carried between calls")
	}
}
