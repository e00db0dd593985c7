package smt

import (
	"bytes"
	"cmp"
	"slices"
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

	// Nelson–Oppen candidate pairs of the check (candidatePairs) and the
	// buffers that build them: every argument occurrence with its bucket
	// key in argKeys, a per-node stamp deduping one bucket, and the pairs'
	// sort order.
	argRefs   []argRef
	argKeys   []byte
	argStamp  []int32
	uniq      []int
	candPairs []nodePair
	pairOrder []int32

	// witnesses holds, back to back, the structural values of every probe
	// frame of the current round that checked feasible within its budget
	// (probeRound).
	witnesses []qnum
	// probes counts the pairs charged to the probe budget, and answered
	// those of them a witness or a feasible first half settled, over the
	// workspace's life (like pivots).
	probes, answered int
	// probeRef, set only by tests, stands in for probeRound.
	probeRef func(ws *theoryWorkspace, cc *congruence, budget *int) (progress, exhausted bool)

	// ended marks that the last check ended on an integral assignment in
	// frames[0]: on theorySat, and on a theoryUnknown that ran out of
	// Nelson–Oppen probes or rounds. Each check clears it first, so it is
	// never set after theoryUnsat.
	ended bool
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
	return ws.frames[0].assertUpper(ws.slack(l), qNeg(qInt(l.c)))
}

// assertEq0 asserts l = 0 on frames[0]; false on an immediate bound conflict.
func (ws *theoryWorkspace) assertEq0(l lin) bool {
	s, sx, b := ws.slack(l), ws.frames[0], qNeg(qInt(l.c))
	return sx.assertUpper(s, b) && sx.assertLower(s, b)
}

// check decides satisfiability of a conjunction of literals in QF_UFLIA;
// src is the arena the literals' term NodeIDs live in. It is sound for both
// answers; theoryUnknown is returned when a resource cap was hit, and
// callers must treat it as "possibly sat".
func (ws *theoryWorkspace) check(src *logic.Interner, lits []theoryLit, cfg theoryConfig) theoryStatus {
	in := ws.in
	in.reset()
	ws.ended = false
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
			neg.c = in.add(neg.c, 1)
			ws.constraints = append(ws.constraints, liaConstraint{l: neg})
		case lt.pred == logic.Lt && lt.pos:
			d := diff
			d.c = in.add(d.c, 1)
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
				l.c = in.mul(in.mul(na.constVal, nb.constVal), -1)
				defs = append(defs, l)
			case na.isConst:
				l := in.newLin().addTerm(id, 1).addTerm(b, in.mul(na.constVal, -1))
				defs = append(defs, l)
			case nb.isConst:
				l := in.newLin().addTerm(id, 1).addTerm(a, in.mul(nb.constVal, -1))
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
				l.c = in.mul(nd.constVal, -1)
				defs = append(defs, l)
			}
		}
	}
	ws.defs = defs
	if in.overflow {
		// A linear form left int64: no verdict is sound to claim.
		return theoryUnknown
	}

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

	ws.candidatePairs()

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
		// Nelson–Oppen: probe for LIA-implied equalities between candidate
		// argument nodes whose proxies coincide in the model; assert them
		// into CC and retry. Sat may only be answered once a full scan
		// found nothing left to propagate: an exhausted probe or round
		// budget means unprobed pairs may hide a forced equality, so the
		// sound answer is Unknown, never Sat.
		probe := (*theoryWorkspace).probeRound
		if ws.probeRef != nil {
			probe = ws.probeRef
		}
		progress, exhausted := probe(ws, cc, &probeBudget)
		if cc.conflict {
			return theoryUnsat
		}
		if !progress {
			ws.ended = true
			if exhausted {
				return theoryUnknown
			}
			return theorySat
		}
		if round >= cfg.noEqRounds {
			ws.ended = true
			return theoryUnknown
		}
	}
}

// argRef is the seq-th argument occurrence: node ch at some position of an
// application, whose bucket key "fn#pos" is argKeys[off:off+n].
type argRef struct {
	off, n, seq int32
	ch          int
}

// candidatePairs fills candPairs with the Nelson–Oppen candidates of the
// interned nodes. An equality between two nodes only matters to congruence
// closure when they occur at the same argument position of two applications
// of the same function, so argument nodes are bucketed by the key "fn#pos"
// and paired within buckets only. The probe budget is spent in candPairs
// order, so the order is a function of the formula alone: buckets in byte
// order of their keys (f#10 before f#2), a bucket's distinct nodes in order
// of first occurrence, and each pair where it first occurs.
func (ws *theoryWorkspace) candidatePairs() {
	in := ws.in
	refs, keys := ws.argRefs[:0], ws.argKeys[:0]
	for id := range in.nodes {
		nd := &in.nodes[id]
		if nd.fn == "" {
			continue
		}
		for pos, ch := range nd.children {
			off := len(keys)
			keys = append(keys, nd.fn...)
			keys = append(keys, '#')
			keys = strconv.AppendInt(keys, int64(pos), 10)
			refs = append(refs, argRef{off: int32(off), n: int32(len(keys) - off), seq: int32(len(refs)), ch: ch})
		}
	}
	ws.argRefs, ws.argKeys = refs, keys
	key := func(r argRef) []byte { return keys[r.off : r.off+r.n] }
	slices.SortFunc(refs, func(x, y argRef) int {
		if c := bytes.Compare(key(x), key(y)); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})

	stamp := slices.Grow(ws.argStamp[:0], len(in.nodes))[:len(in.nodes)]
	clear(stamp)
	ws.argStamp = stamp
	pairs := ws.candPairs[:0]
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && bytes.Equal(key(refs[j]), key(refs[i])) {
			j++
		}
		uniq := ws.uniq[:0]
		for _, r := range refs[i:j] {
			if stamp[r.ch] != int32(j) {
				stamp[r.ch] = int32(j)
				uniq = append(uniq, r.ch)
			}
		}
		ws.uniq = uniq
		for x := range uniq {
			for _, b := range uniq[x+1:] {
				a := uniq[x]
				if b < a {
					a, b = b, a
				}
				pairs = append(pairs, nodePair{a, b})
			}
		}
		i = j
	}

	// Keep each pair where it first occurs: sort the positions by pair,
	// then by position, and blank every position but a run's first.
	order := ws.pairOrder[:0]
	for k := range pairs {
		order = append(order, int32(k))
	}
	slices.SortFunc(order, func(x, y int32) int {
		p, q := pairs[x], pairs[y]
		if c := cmp.Compare(p.a, q.a); c != 0 {
			return c
		}
		if c := cmp.Compare(p.b, q.b); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	for k := len(order) - 1; k > 0; k-- {
		if pairs[order[k]] == pairs[order[k-1]] {
			pairs[order[k]] = nodePair{-1, -1}
		}
	}
	kept := pairs[:0]
	for _, p := range pairs {
		if p.a >= 0 {
			kept = append(kept, p)
		}
	}
	ws.candPairs, ws.pairOrder = kept, order
}

// probeRound is one round of Nelson–Oppen probes on the model in frames[0].
// A candidate pair (a, b) is probed when cc keeps a and b apart but the
// model gives them one value: a = b is implied when neither a − b ≤ −1 nor
// a − b ≥ 1 is feasible on top of frames[0], and is then asserted into cc
// (progress; the caller checks cc.conflict). Each probed pair is charged to
// *budget; exhausted reports a pair left unprobed because it was spent.
//
// Every probe half that checks feasible within its budget leaves its point
// as a witness: a rational point of frames[0]'s polyhedron. A pair that a
// witness of the round puts at least 1 apart has a feasible half, so it is
// settled without a probe, and so is a pair whose first half is feasible.
// The threshold is 1, not "different": a rational a − b strictly between −1
// and 1 is exactly what integrality may still force to 0. A settled pair is
// charged all the same, so the budget runs out where probing every pair
// would run it out. Witnesses die with the round: the next round's
// frames[0] holds more equalities and may exclude them.
func (ws *theoryWorkspace) probeRound(cc *congruence, budget *int) (progress, exhausted bool) {
	sx := ws.frames[0]
	ws.witnesses = ws.witnesses[:0]
	for _, p := range ws.candPairs {
		a, b := p.a, p.b
		if cc.find(a) == cc.find(b) || qCmp(sx.val(a), sx.val(b)) != 0 {
			continue
		}
		if *budget <= 0 {
			return progress, true
		}
		*budget--
		ws.probes++
		if ws.witnessApart(a, b) || ws.probeHalf(a, b, true) {
			ws.answered++
			continue
		}
		if !ws.probeHalf(a, b, false) {
			cc.assertEq(a, b)
			if cc.conflict {
				return true, false
			}
			progress = true
		}
	}
	return progress, false
}

// witnessApart reports whether a witness of the round puts a and b at
// least 1 apart.
func (ws *theoryWorkspace) witnessApart(a, b int) bool {
	n := ws.frames[0].structural
	for w := 0; w < len(ws.witnesses); w += n {
		d := qSub(ws.witnesses[w+a], ws.witnesses[w+b])
		if qCmp(d, qOne) >= 0 || qCmp(d, qInt(-1)) <= 0 {
			return true
		}
	}
	return false
}

// probeHalf reports whether a − b ≤ −1 (below) or a − b ≥ 1 (!below) may
// hold on top of frames[0], checked on a copy of it. A check that runs out
// of pivots answers feasible, the conservative "not implied"; one that
// finishes feasible adds its point to the round's witnesses.
func (ws *theoryWorkspace) probeHalf(a, b int, below bool) bool {
	c := ws.child(0)
	diff := [2]sterm{{x: a, c: qOne}, {x: b, c: qInt(-1)}}
	sl := c.addSlack(diff[:])
	var ok bool
	if below {
		ok = c.assertUpper(sl, qInt(-1))
	} else {
		ok = c.assertLower(sl, qOne)
	}
	if !ok {
		return false
	}
	feasible, over := c.check()
	if feasible && !over {
		ws.witnesses = append(ws.witnesses, c.beta[:c.structural]...)
	}
	return feasible
}

// assignment returns the integral assignment the last check ended on, or
// nil when it ended on none: variables by name, and one table point per
// uninterpreted application. Interpreted nodes ($add, $sub, $mulraw) are
// left out, and so are nonlinear products ($mul), whose value the model
// need not tie to the product of their factors. Nothing more was proven
// of the assignment than the check's verdict, so a caller must validate
// it (logic.Model.Decide) before relying on it.
func (ws *theoryWorkspace) assignment() *logic.Model {
	if !ws.ended {
		return nil
	}
	sx := ws.frames[0]
	vals := make([]int64, len(ws.in.nodes))
	for id := range vals {
		v, ok := sx.val(id).qInt64()
		if !ok {
			return nil
		}
		vals[id] = v
	}
	m := &logic.Model{Vars: map[string]int64{}}
	for id, nd := range ws.in.nodes {
		switch {
		case nd.isConst:
		case nd.fn == "":
			m.Vars[nd.varName] = vals[id]
		case nd.fn[0] != '$':
			args := make([]int64, len(nd.children))
			for i, c := range nd.children {
				args[i] = vals[c]
			}
			m.Table = append(m.Table, logic.Point{Func: nd.fn, Args: args, Value: vals[id]})
		}
	}
	return m
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
		avoid := qNeg(qInt(ws.diseqConsts[i]))
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
