package sym

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"consolidation/internal/lang"
	"consolidation/internal/logic"
)

// refClone is the copying snapshot the undo trail replaced, verbatim but
// for its name: an independent copy of c sharing its solver and arena. It
// is the reference of FuzzContextUndo.
func refClone(c *Context) *Context {
	out := &Context{
		solver:       c.solver,
		sctx:         c.sctx,
		in:           c.in,
		conj:         append([]conjunct(nil), c.conj...),
		version:      make(map[string]int, len(c.version)),
		MaxConjuncts: c.MaxConjuncts,
		defs:         make(map[logic.NodeID]DefEntry, len(c.defs)),
		funcDefs:     make(map[string][]DefEntry, len(c.funcDefs)),
		varDefs:      make(map[string]DefEntry, len(c.varDefs)),
		offsets:      make(map[logic.NodeID]offsetDef, len(c.offsets)),
	}
	for k, v := range c.version {
		out.version[k] = v
	}
	for k, v := range c.defs {
		out.defs[k] = v
	}
	for k, v := range c.funcDefs {
		out.funcDefs[k] = append([]DefEntry(nil), v...)
	}
	for k, v := range c.varDefs {
		out.varDefs[k] = v
	}
	for k, v := range c.offsets {
		out.offsets[k] = v
	}
	return out
}

// refJoinDefs is JoinDefs as it was over two cloned arm contexts: the
// reference for the join from ArmEnd summaries.
func refJoinDefs(c *Context, vars map[string]bool, thenCtx, elseCtx *Context) {
	names := make([]string, 0, len(vars))
	for v := range vars {
		names = append(names, v)
	}
	slices.Sort(names)
	same := func(id logic.NodeID) bool {
		for _, x := range c.in.VarsOf(id) {
			v := Unversioned(c.in.VarName(x))
			n := c.version[v]
			if thenCtx.version[v] != n || elseCtx.version[v] != n {
				return false
			}
		}
		return true
	}
	joined := make([]logic.Term, len(names))
	for i, v := range names {
		te, ok := thenCtx.curEntry(v)
		if _, isCopy := te.Rhs.(logic.TVar); !ok || isCopy {
			continue
		}
		ee, ok := elseCtx.curEntry(v)
		if !ok || te.id != ee.id || !same(te.id) {
			continue
		}
		joined[i] = te.Rhs
	}
	for i, v := range names {
		if joined[i] == nil {
			c.version[v]++
			continue
		}
		c.define(v, joined[i])
	}
}

// undoScript drives one context through scopes and, in lockstep, the
// cloning reference: every operation runs on both, a scope the trail
// undoes runs on a clone the reference drops, and after every operation
// each observable of the two must agree.
type undoScript struct {
	t    *testing.T
	data []byte
	c    *Context
	ref  *Context
	// terms are every right-hand side and offset base seen, for the
	// definition lookups.
	terms []logic.Term
	ops   int
}

var undoVars = []string{"x", "y", "z", "u"}

func (s *undoScript) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

func (s *undoScript) vars(mask int) map[string]bool {
	out := map[string]bool{}
	for i, v := range undoVars {
		if mask&(1<<i) != 0 {
			out[v] = true
		}
	}
	return out
}

// rhs decodes a right-hand side: constants, copies, calls and calls plus
// or minus a constant, over few enough names that definitions collide.
func (s *undoScript) rhs(a, b int) lang.IntExpr {
	arg := []lang.IntExpr{lang.Var{Name: "r"}, lang.Var{Name: "x"}, lang.Var{Name: "y"}}[b/4%3]
	k := lang.IntConst{Value: int64(b%3 + 1)}
	f := lang.Call{Func: "f", Args: []lang.IntExpr{arg}}
	g := lang.Call{Func: "g", Args: []lang.IntExpr{arg, lang.IntConst{Value: int64(b % 2)}}}
	switch a % 8 {
	case 0:
		return lang.IntConst{Value: int64(b % 5)}
	case 1:
		return lang.Var{Name: undoVars[b%4]}
	case 2:
		return f
	case 3:
		return lang.BinInt{Op: lang.Add, L: f, R: k}
	case 4:
		return lang.BinInt{Op: lang.Add, L: k, R: g}
	case 5:
		return lang.BinInt{Op: lang.Sub, L: f, R: k}
	case 6:
		return g
	}
	return lang.BinInt{Op: lang.Add, L: lang.Var{Name: undoVars[b%4]}, R: k}
}

func (s *undoScript) assign() {
	v, e := undoVars[s.next()%4], s.rhs(s.next(), s.next())
	rhs := s.c.TranslateInt(e)
	s.terms = append(s.terms, rhs)
	if g, _, ok := appOffset(rhs); ok {
		s.terms = append(s.terms, g)
	}
	s.c.AssumeAssign(v, e)
	s.ref.AssumeAssign(v, e)
}

func (s *undoScript) test() lang.BoolExpr {
	return lang.Cmp{Op: lang.Lt, L: lang.Var{Name: undoVars[s.next()%4]}, R: lang.IntConst{Value: int64(s.next() % 4)}}
}

// block runs up to five operations; scopes nest to depth 4.
func (s *undoScript) block(depth int) {
	for n := s.next() % 6; n > 0; n-- {
		op := s.next() % 8
		if depth >= 4 && op >= 4 {
			op = 0
		}
		switch op {
		case 0, 1, 7:
			s.assign()
		case 2:
			e := s.test()
			s.c.AssumeBool(e)
			s.ref.AssumeBool(e)
		case 3:
			vs := s.vars(s.next())
			s.c.HavocSet(vs)
			s.ref.HavocSet(vs)
		case 4:
			// A scope that is undone: the reference runs it on a clone.
			pre := s.ref
			s.ref = refClone(pre)
			m := s.c.Mark()
			s.block(depth + 1)
			s.c.Undo(m)
			s.ref = pre
		case 5:
			// A scope that is kept: the reference just runs on.
			m := s.c.Mark()
			s.block(depth + 1)
			s.c.Commit(m)
		case 6:
			s.branch(depth)
		}
		s.check()
	}
}

// branch runs a conditional as Consolidator.branches does: each arm in an
// undone scope, then the join from the two arm ends.
func (s *undoScript) branch(depth int) {
	e := s.test()
	pre := s.ref
	arm := func(test lang.BoolExpr) (ArmEnd, *Context) {
		s.ref = refClone(pre)
		m := s.c.Mark()
		s.c.AssumeBool(test)
		s.ref.AssumeBool(test)
		s.block(depth + 1)
		end := s.c.ArmEnd(m)
		s.c.Undo(m)
		armRef := s.ref
		s.ref = pre
		s.check()
		return end, armRef
	}
	thenEnd, thenRef := arm(e)
	elseEnd, elseRef := arm(lang.Not{E: e})
	vs := s.vars(s.next())
	s.c.JoinDefs(vs, thenEnd, elseEnd)
	refJoinDefs(s.ref, vs, thenRef, elseRef)
}

// check compares every observable of the context with the reference's.
// The version map itself is compared too: an undo must delete a version
// the scope created, not leave a 0 that reads the same.
func (s *undoScript) check() {
	s.t.Helper()
	s.ops++
	c, ref := s.c, s.ref
	fail := func(what string, got, want any) {
		s.t.Helper()
		s.t.Fatalf("after operation %d: %s = %v, reference %v", s.ops, what, got, want)
	}
	if !maps.Equal(c.version, ref.version) {
		fail("version map", c.version, ref.version)
	}
	for _, v := range undoVars {
		if got, want := c.CurName(v), ref.CurName(v); got != want {
			fail("CurName("+v+")", got, want)
		}
		got, gok := c.CurDef(v)
		want, wok := ref.CurDef(v)
		if gok != wok || gok && c.in.InternTerm(got) != c.in.InternTerm(want) {
			fail("CurDef("+v+")", got, want)
		}
	}
	for _, tm := range s.terms {
		id := c.in.InternTerm(tm)
		got, gok := c.LookupDefID(id)
		want, wok := ref.LookupDefID(id)
		if got != want || gok != wok {
			fail("LookupDefID("+tm.String()+")", got, want)
		}
		gv, gc, gok := c.LookupOffsetID(id)
		wv, wc, wok := ref.LookupOffsetID(id)
		if gv != wv || gc != wc || gok != wok {
			fail("LookupOffsetID("+tm.String()+")", fmt.Sprint(gv, gc, gok), fmt.Sprint(wv, wc, wok))
		}
	}
	for _, fn := range []string{"f", "g"} {
		if got, want := defsString(c.DefsByFunc(fn)), defsString(ref.DefsByFunc(fn)); got != want {
			fail("DefsByFunc("+fn+")", got, want)
		}
	}
	if got, want := c.Conjuncts(), ref.Conjuncts(); !slices.EqualFunc(got, want, func(a, b logic.Formula) bool {
		return c.in.InternFormula(a) == c.in.InternFormula(b)
	}) {
		fail("Conjuncts()", got, want)
	}
}

func defsString(ds []DefEntry) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s@%d=%s;", d.Var, d.Version, d.Rhs)
	}
	return b.String()
}

// runUndoScript decodes data: the first byte sets MaxConjuncts small
// enough that trimming happens inside scopes, the rest is a top-level
// block run repeatedly until the bytes are used up.
func runUndoScript(t *testing.T, data []byte) {
	s := &undoScript{t: t, data: data, c: NewContext(nil)}
	s.c.MaxConjuncts = 2 + s.next()%6
	s.ref = refClone(s.c)
	for len(s.data) > 0 {
		s.block(0)
	}
	if s.c.marks != 0 || len(s.c.trail) != 0 {
		t.Fatalf("%d scopes left open, trail of %d", s.c.marks, len(s.c.trail))
	}
}

// FuzzContextUndo holds a context scoped by the undo trail to the cloning
// reference over nested scopes, conditionals joined from arm ends, and
// trimming inside scopes.
func FuzzContextUndo(f *testing.F) {
	// y := f(r); a scope's x := f(r) undone; x := f(x) at the version the
	// scope used: DefsByFunc sees a funcDefs entry the undo failed to
	// truncate.
	f.Add([]byte{5, 3, 0, 1, 2, 0, 4, 1, 0, 0, 2, 0, 0, 0, 2, 4})
	// A branch whose arms both define y := f(r) + 1, joined.
	f.Add([]byte{7, 1, 6, 0, 1, 1, 1, 1, 3, 0, 1, 1, 1, 3, 0, 3})
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+r.Intn(192))
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runUndoScript(t, data)
	})
}
