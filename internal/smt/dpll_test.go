package smt

// solveSAT is the legacy DPLL SAT solver — unit propagation, chronological
// backtracking, a decision budget that turns pathological instances into
// satUnknown. CDCL replaced it in the solver; it stays here as the reference
// TestCDCLAgainstDPLL and TestCDCLIncrementalAssumptions diff CDCL against.
func solveSAT(nvars int, clauses [][]int, maxDecisions int) (satStatus, []int8) {
	assign := make([]int8, nvars+1)
	decisions := 0
	var rec func() satStatus
	propagate := func(trail *[]int) bool {
		for {
			changed := false
			for _, cl := range clauses {
				unassigned := 0
				last := 0
				satisfied := false
				for _, lit := range cl {
					v := lit
					if v < 0 {
						v = -v
					}
					a := assign[v]
					switch {
					case a == 0:
						unassigned++
						last = lit
					case (a == 1) == (lit > 0):
						satisfied = true
					}
					if satisfied {
						break
					}
				}
				if satisfied {
					continue
				}
				if unassigned == 0 {
					return false // conflict
				}
				if unassigned == 1 {
					v := last
					if v < 0 {
						assign[-v] = -1
						*trail = append(*trail, -v)
					} else {
						assign[v] = 1
						*trail = append(*trail, v)
					}
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
	}
	rec = func() satStatus {
		var trail []int
		if !propagate(&trail) {
			for _, v := range trail {
				assign[v] = 0
			}
			return satUnsat
		}
		// Pick an unassigned variable.
		pick := 0
		for v := 1; v <= nvars; v++ {
			if assign[v] == 0 {
				pick = v
				break
			}
		}
		if pick == 0 {
			return satSat
		}
		decisions++
		if decisions > maxDecisions {
			for _, v := range trail {
				assign[v] = 0
			}
			return satUnknown
		}
		for _, val := range []int8{1, -1} {
			assign[pick] = val
			st := rec()
			if st == satSat || st == satUnknown {
				if st == satUnknown {
					for _, v := range trail {
						assign[v] = 0
					}
					assign[pick] = 0
				}
				return st
			}
			assign[pick] = 0
		}
		for _, v := range trail {
			assign[v] = 0
		}
		return satUnsat
	}
	st := rec()
	if st != satSat {
		return st, nil
	}
	return satSat, assign
}
