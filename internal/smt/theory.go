package smt

import (
	"sort"
	"strconv"

	"consolidation/internal/logic"
)

// theoryLit is an atom with a polarity, the unit the combined theory solver
// reasons about. The atom's sides are interned term nodes in whichever
// logic.Interner produced the literal (the solver's or a Context's); the
// pairing arena is passed alongside to checkTheory.
type theoryLit struct {
	l, r logic.NodeID
	pred logic.Pred
	pos  bool
}

// litOfAtomNode builds the theory literal for an interned KAtom node.
func litOfAtomNode(in *logic.Interner, atom logic.NodeID, pos bool) theoryLit {
	kids := in.Kids(atom)
	return theoryLit{l: kids[0], r: kids[1], pred: in.PredOf(atom), pos: pos}
}

// theoryStatus is the outcome of a conjunction check.
type theoryStatus int

const (
	theoryUnsat theoryStatus = iota
	theorySat
	theoryUnknown
)

// theoryConfig bounds the effort of a single conjunction check.
type theoryConfig struct {
	maxPivots   int
	branchDepth int
	noEqRounds  int // Nelson–Oppen LIA→CC equality propagation rounds
	noEqProbes  int // budget of simplex probes across all rounds
}

func defaultTheoryConfig() theoryConfig {
	return theoryConfig{maxPivots: 2500, branchDepth: 10, noEqRounds: 4, noEqProbes: 64}
}

// liaConstraint is one arithmetic constraint of a conjunction: l = 0 when
// eq, l ≤ 0 otherwise.
type liaConstraint struct {
	l  lin
	eq bool
}

// nodePair is an (in)equality between two solver-local nodes.
type nodePair struct{ a, b int }

// theoryWorkspace is everything a conjunction check builds and throws away,
// kept by the Solver so that the next check rebuilds it in place. A Solver
// serves one goroutine, so the workspace needs no lock and no pool.
//
// frames is a depth-indexed stack of simplex tableaux: frames[0] holds the
// round's arithmetic problem, and a branch-and-bound node or Nelson–Oppen
// probe working on frames[d] takes its private copy in frames[d+1] — its
// two children one after the other, the first being dead once its subtree
// has answered — so at most branchDepth+1 frames exist. A frame is a value
// copy of its parent and all of them draw on the one pivot count in
// visiting order, so a check on a used workspace visits exactly the bases,
// and returns exactly the verdict, of a check on a new one.
type theoryWorkspace struct {
	frames []*simplex
	// pivots counts simplex check iterations over the workspace's life;
	// a round's budget is a limit above its value when the round starts.
	pivots int

	in          *interner
	constraints []liaConstraint
	diseqLins   []lin
	ccEqs       []nodePair
	ccNeqs      []nodePair
	defs        []lin

	// slackOf maps the canonical key of a linear form to its slack
	// variable in frames[0], per round.
	slackOf  map[string]int
	keyBuf   []byte
	comboBuf []sterm
	// Disequality slacks of the round (bounded during branch & bound):
	// slack diseqSlacks[i] must avoid the value -diseqConsts[i].
	diseqSlacks []int
	diseqConsts []int64
}

func newTheoryWorkspace() *theoryWorkspace {
	return &theoryWorkspace{in: newInterner(), slackOf: map[string]int{}}
}

// frame returns frames[level], creating it on first use.
func (ws *theoryWorkspace) frame(level int) *simplex {
	for len(ws.frames) <= level {
		ws.frames = append(ws.frames, new(simplex))
	}
	return ws.frames[level]
}

// child makes frames[level+1] a copy of frames[level] and returns it.
func (ws *theoryWorkspace) child(level int) *simplex {
	c := ws.frame(level + 1)
	c.copyFrom(ws.frames[level])
	return c
}

// slack returns the slack variable of frames[0] standing for l's linear
// part, adding it on first sight: each distinct linear form gets one.
func (ws *theoryWorkspace) slack(l lin) int {
	// Canonical key of the linear form: terms (already sorted by entity
	// id), then the constant. Built from bytes — this runs once per
	// asserted constraint per round and fmt dominates otherwise.
	key := ws.keyBuf[:0]
	for _, t := range l.terms {
		key = strconv.AppendInt(key, t.k, 10)
		key = append(key, 'n')
		key = strconv.AppendInt(key, int64(t.id), 10)
		key = append(key, '+')
	}
	key = strconv.AppendInt(key, l.c, 10)
	ws.keyBuf = key
	if s, ok := ws.slackOf[string(key)]; ok {
		return s
	}
	combo := ws.comboBuf[:0]
	for _, t := range l.terms {
		combo = append(combo, sterm{x: t.id, c: qInt(t.k)})
	}
	ws.comboBuf = combo
	s := ws.frames[0].addSlack(combo)
	ws.slackOf[string(key)] = s
	return s
}

// assertLe asserts l ≤ 0 on frames[0]; false on an immediate bound conflict.
func (ws *theoryWorkspace) assertLe(l lin) bool {
	return ws.frames[0].assertUpper(ws.slack(l), qInt(-l.c))
}

// assertEq0 asserts l = 0 on frames[0]; false on an immediate bound conflict.
func (ws *theoryWorkspace) assertEq0(l lin) bool {
	s, sx := ws.slack(l), ws.frames[0]
	return sx.assertUpper(s, qInt(-l.c)) && sx.assertLower(s, qInt(-l.c))
}

// check decides satisfiability of a conjunction of literals in QF_UFLIA;
// src is the arena the literals' term NodeIDs live in. It is sound for both
// answers; theoryUnknown is returned when a resource cap was hit, and
// callers must treat it as "possibly sat".
func (ws *theoryWorkspace) check(src *logic.Interner, lits []theoryLit, cfg theoryConfig) theoryStatus {
	in := ws.in
	in.reset()
	ws.constraints, ws.diseqLins = ws.constraints[:0], ws.diseqLins[:0]
	ws.ccEqs, ws.ccNeqs = ws.ccEqs[:0], ws.ccNeqs[:0]

	// Intern literal sides and derive arithmetic constraints. Comparisons
	// normalise to "lin ≤ 0" over integers; strict < becomes ≤ -1.
	for _, lt := range lits {
		l := in.internNode(src, lt.l)
		r := in.internNode(src, lt.r)
		diff := in.linOfNode(src, lt.l).add(in.linOfNode(src, lt.r).scale(-1))
		switch {
		case lt.pred == logic.Eq && lt.pos:
			ws.ccEqs = append(ws.ccEqs, nodePair{l, r})
			ws.constraints = append(ws.constraints, liaConstraint{l: diff, eq: true})
		case lt.pred == logic.Eq && !lt.pos:
			ws.ccNeqs = append(ws.ccNeqs, nodePair{l, r})
			ws.diseqLins = append(ws.diseqLins, diff)
		case lt.pred == logic.Le && lt.pos:
			ws.constraints = append(ws.constraints, liaConstraint{l: diff})
		case lt.pred == logic.Le && !lt.pos:
			// ¬(l ≤ r)  ⇔  r ≤ l - 1  ⇔  r - l + 1 ≤ 0
			neg := diff.scale(-1)
			neg.c++
			ws.constraints = append(ws.constraints, liaConstraint{l: neg})
		case lt.pred == logic.Lt && lt.pos:
			d := diff
			d.c++
			ws.constraints = append(ws.constraints, liaConstraint{l: d})
		case lt.pred == logic.Lt && !lt.pos:
			// ¬(l < r) ⇔ r ≤ l ⇔ r - l ≤ 0
			ws.constraints = append(ws.constraints, liaConstraint{l: diff.scale(-1)})
		}
	}

	// Definitional constraints for interpreted interior nodes. The node
	// slice can grow while we process it ($mulraw canonicalisation).
	defs := ws.defs[:0]
	for id := 0; id < len(in.nodes); id++ {
		nd := in.nodes[id]
		switch nd.fn {
		case "$add":
			l := in.newLin().addTerm(id, 1).addTerm(nd.children[0], -1).addTerm(nd.children[1], -1)
			defs = append(defs, l)
		case "$sub":
			l := in.newLin().addTerm(id, 1).addTerm(nd.children[0], -1).addTerm(nd.children[1], 1)
			defs = append(defs, l)
		case "$mulraw":
			a, b := nd.children[0], nd.children[1]
			na, nb := in.nodes[a], in.nodes[b]
			switch {
			case na.isConst && nb.isConst:
				l := in.newLin().addTerm(id, 1)
				l.c = -na.constVal * nb.constVal
				defs = append(defs, l)
			case na.isConst:
				l := in.newLin().addTerm(id, 1).addTerm(b, -na.constVal)
				defs = append(defs, l)
			case nb.isConst:
				l := in.newLin().addTerm(id, 1).addTerm(a, -nb.constVal)
				defs = append(defs, l)
			default:
				x, y := a, b
				if y < x {
					x, y = y, x
				}
				m := in.internApp("$mul", []int{x, y})
				defs = append(defs, in.newLin().addTerm(id, 1).addTerm(m, -1))
			}
		default:
			if nd.isConst {
				l := in.newLin().addTerm(id, 1)
				l.c = -nd.constVal
				defs = append(defs, l)
			}
		}
	}
	ws.defs = defs

	// Congruence closure.
	cc := newCongruence(in)
	for _, e := range ws.ccEqs {
		cc.assertEq(e.a, e.b)
	}
	for _, e := range ws.ccNeqs {
		cc.assertNeq(e.a, e.b)
	}
	if cc.conflict {
		return theoryUnsat
	}

	// Candidate pairs for Nelson–Oppen equality propagation: an equality
	// between two nodes only matters to congruence closure when they occur
	// as the same argument position of two applications of the same
	// function, so we bucket argument nodes by (function, position) and
	// probe within buckets only.
	argBuckets := map[string][]int{}
	for id := 0; id < len(in.nodes); id++ {
		nd := in.nodes[id]
		if nd.fn == "" {
			continue
		}
		for pos, ch := range nd.children {
			key := nd.fn + "#" + itoa(pos)
			argBuckets[key] = append(argBuckets[key], ch)
		}
	}
	// Iterate buckets in sorted key order and dedupe pairs globally: the
	// probe budget below is consumed in candPairs order, so this order must
	// be a function of the formula alone, never of map iteration.
	bucketKeys := make([]string, 0, len(argBuckets))
	for k := range argBuckets {
		bucketKeys = append(bucketKeys, k)
	}
	sort.Strings(bucketKeys)
	var candPairs [][2]int
	seenPair := map[[2]int]bool{}
	for _, k := range bucketKeys {
		bucket := argBuckets[k]
		seen := map[int]bool{}
		var uniq []int
		for _, id := range bucket {
			if !seen[id] {
				seen[id] = true
				uniq = append(uniq, id)
			}
		}
		for i := 0; i < len(uniq); i++ {
			for j := i + 1; j < len(uniq); j++ {
				a, b := uniq[i], uniq[j]
				if b < a {
					a, b = b, a
				}
				p := [2]int{a, b}
				if !seenPair[p] {
					seenPair[p] = true
					candPairs = append(candPairs, p)
				}
			}
		}
	}

	probeBudget := cfg.noEqProbes
	for round := 0; ; round++ {
		// Build the arithmetic problem: structural variables are the node
		// proxies; each distinct linear form gets one slack variable.
		// Equalities derived by congruence closure this round.
		allNodes := make([]int, len(in.nodes))
		for i := range allNodes {
			allNodes[i] = i
		}
		ccPairs := cc.congruentPairs(allNodes)
		// Upper bound on distinct slack variables this round: slack
		// dedupes identical linear forms, so the real count is usually close.
		slackHint := len(defs) + len(ws.constraints) + len(ccPairs) + len(ws.diseqLins)
		sx := ws.frame(0)
		sx.reset(len(in.nodes), cfg.maxPivots, slackHint, &ws.pivots)
		clear(ws.slackOf)
		feasible := true
		for _, d := range defs {
			feasible = ws.assertEq0(d) && feasible
		}
		for _, con := range ws.constraints {
			if con.eq {
				feasible = ws.assertEq0(con.l) && feasible
			} else {
				feasible = ws.assertLe(con.l) && feasible
			}
		}
		for _, p := range ccPairs {
			feasible = ws.assertEq0(in.newLin().addTerm(p[0], 1).addTerm(p[1], -1)) && feasible
		}
		if !feasible {
			return theoryUnsat
		}
		ws.diseqSlacks, ws.diseqConsts = ws.diseqSlacks[:0], ws.diseqConsts[:0]
		for _, d := range ws.diseqLins {
			ws.diseqSlacks = append(ws.diseqSlacks, ws.slack(d))
			ws.diseqConsts = append(ws.diseqConsts, d.c)
		}

		st := ws.solveInt(0, cfg.branchDepth)
		if st != theorySat {
			return st
		}
		// solveInt hands the integral model back by swapping frames.
		sx = ws.frames[0]
		// Nelson–Oppen: probe for LIA-implied equalities between candidate
		// argument nodes whose proxies coincide in the current model but
		// whose CC classes differ; assert them into CC and retry. Sat may
		// only be answered once a full scan found nothing left to
		// propagate: an exhausted probe or round budget means unprobed
		// pairs may hide a forced equality, so the sound answer is Unknown,
		// never Sat.
		progress := false
		exhausted := false
		for _, pair := range candPairs {
			a, b := pair[0], pair[1]
			if cc.find(a) == cc.find(b) {
				continue
			}
			if qCmp(sx.val(a), sx.val(b)) != 0 {
				continue
			}
			if probeBudget <= 0 {
				exhausted = true
				break
			}
			probeBudget--
			// a = b is implied when neither a - b ≤ -1 nor a - b ≥ 1 is
			// feasible on top of the model's tableau.
			diff := []sterm{{x: a, c: qOne}, {x: b, c: qInt(-1)}}
			lo := ws.child(0)
			okLo := lo.assertUpper(lo.addSlack(diff), qInt(-1))
			if okLo {
				okLo, _ = lo.check()
			}
			hi := ws.child(0)
			okHi := hi.assertLower(hi.addSlack(diff), qInt(1))
			if okHi {
				okHi, _ = hi.check()
			}
			if !okLo && !okHi {
				cc.assertEq(a, b)
				if cc.conflict {
					return theoryUnsat
				}
				progress = true
			}
		}
		if !progress {
			if exhausted {
				return theoryUnknown
			}
			return theorySat
		}
		if round >= cfg.noEqRounds {
			return theoryUnknown
		}
	}
}

// solveInt runs branch & bound for integrality on frames[level], a
// feasible-or-not rational simplex, then splits on violated disequalities;
// depth is the number of further splits allowed. On theorySat frames[level]
// holds the integral model.
func (ws *theoryWorkspace) solveInt(level, depth int) theoryStatus {
	s := ws.frames[level]
	feasible, over := s.check()
	if !feasible {
		return theoryUnsat
	}
	if over {
		return theoryUnknown
	}
	if x := s.fractionalStructural(); x >= 0 {
		fl, cl := qFloorCeil(s.val(x))
		return ws.split(level, depth, x, fl, cl)
	}
	// Integral: check disequalities.
	for i, sl := range ws.diseqSlacks {
		avoid := qInt(-ws.diseqConsts[i])
		if qCmp(s.val(sl), avoid) == 0 {
			return ws.split(level, depth, sl, qSub(avoid, qOne), qAdd(avoid, qOne))
		}
	}
	return theorySat
}

// split decides frames[level] by cases x ≤ below and x ≥ above, each on a
// copy of the frame one level down. A satisfied case's frame is swapped
// into this level, so the integral model travels back up to frames[0]
// where Nelson–Oppen probing sees it, and the frame it displaces becomes
// the spare.
func (ws *theoryWorkspace) split(level, depth, x int, below, above qnum) theoryStatus {
	if depth == 0 {
		return theoryUnknown
	}
	anyUnknown := false
	for _, upper := range [2]bool{true, false} {
		c := ws.child(level)
		var ok bool
		if upper {
			ok = c.assertUpper(x, below)
		} else {
			ok = c.assertLower(x, above)
		}
		if !ok {
			continue
		}
		switch ws.solveInt(level+1, depth-1) {
		case theorySat:
			ws.frames[level], ws.frames[level+1] = ws.frames[level+1], ws.frames[level]
			return theorySat
		case theoryUnknown:
			anyUnknown = true
		}
	}
	if anyUnknown {
		return theoryUnknown
	}
	return theoryUnsat
}
