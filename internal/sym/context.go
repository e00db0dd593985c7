// Package sym implements the symbolic contexts Ψ of the consolidation
// calculus: strongest postconditions of straight-line code, tracked in
// SSA-versioned form so that assignments never invalidate earlier facts
// (sp(Ψ, x := e) introduces a fresh version of x rather than rewriting Ψ).
// After a conditional Ω consolidated, JoinDefs keeps what both arms
// establish: a variable keeps its definition when both arms end on the same
// interned right-hand side, other than a copy of another variable, and
// every variable that term reads has the same version before the
// conditional and at the end of each arm. Everything
// else, and all control flow the calculus steps over (the Step rule, in
// ApplyStmt), is over-approximated by havocking the assigned variables,
// which is always sound: a weaker context can only hide
// cross-simplification opportunities, never create unsound ones.
package sym

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/smt"
)

// Context is a logical context Ψ over SSA-versioned program variables. The
// version map assigns each source variable its current logical name;
// version 0 is the variable's original (parameter or first-read) name.
type Context struct {
	solver *smt.Solver
	// sctx, when set, amortizes entailment queries through an incremental
	// solving context: conjuncts are asserted once and checks select them
	// by assertion id instead of recomposing Ψ.
	sctx *smt.Context
	conj []conjunct
	// in is the context's hash-consing arena: every assumed formula and
	// recorded definition is interned once, and the relevance filter and
	// definition index work on dense VarIDs/CallKeys/NodeIDs instead of
	// rendered strings. It is append-only, so undoing a scope (trail.go)
	// leaves its nodes interned and IDs stay comparable across scopes.
	in *logic.Interner
	// version maps a program variable to its current SSA version.
	version map[string]int
	// MaxConjuncts bounds context growth; when exceeded, the oldest
	// conjuncts are dropped (sound weakening). 0 means unbounded.
	MaxConjuncts int

	// varAll/varLink are per-query generation stamps indexed by VarID: a
	// slot holding the current queryGen marks the variable as in the cone
	// (all occurrences / linkable occurrences respectively). Generational
	// stamping replaces the per-query map allocations of the text-keyed
	// filter with two O(1)-reset arrays.
	varAll   []uint32
	varLink  []uint32
	queryGen uint32

	// defs indexes assignment right-hand sides for the cross-simplifier:
	// interned rhs node → definition. A definition is usable only while
	// the defined variable's version has not advanced (the runtime variable
	// still holds that value).
	defs map[logic.NodeID]DefEntry
	// funcDefs indexes definitions by the library functions their
	// right-hand sides call, bounding the simplifier's SMT probing.
	funcDefs map[string][]DefEntry
	// varDefs indexes the most recent definition per variable.
	varDefs map[string]DefEntry
	// offsets indexes definitions v := g ± c, g an application and c a
	// constant, under g's interned node: while v is current, g ≡ v ∓ c.
	offsets map[logic.NodeID]offsetDef

	// trail logs the writes made to version and the definition indexes
	// while marks scopes are open, so that Undo can revert them (trail.go).
	trail []undo
	marks int
}

// offsetDef is a definition entry whose right-hand side is g + c.
type offsetDef struct {
	DefEntry
	c int64
}

// conjunct is one context fact plus cached structure for the relevance
// filter: all free variables, the variables occurring *outside*
// uninterpreted-call arguments (linkVars), and call-instance keys.
//
// Only linkVars drive variable-based cone growth. A variable that occurs
// exclusively as a call argument — the record handle r in a UDF workload is
// the extreme case, appearing in every conjunct — must not link otherwise
// unrelated facts: call-to-call relevance is what the call keys are for,
// and they respect argument compatibility.
type conjunct struct {
	f logic.Formula
	// vars, linkVars and calls alias the interner's per-node sorted sets:
	// the relevance filter only ever iterates them (membership lives in the
	// generation-stamped arrays), the arena computed them once at interning
	// time, and nothing mutates them.
	vars     []logic.VarID
	linkVars []logic.VarID
	calls    []logic.CallKey
	// aid is the fact's assertion id in the solving context (when one is
	// attached); equal formulas share an id.
	aid int
}

// keysLink reports whether the conjunct's call keys contain a pair
// unifiable with the goal's.
func (c *Context) keysLink(a, b []logic.CallKey) bool {
	for _, ka := range a {
		for _, kb := range b {
			if c.in.KeysUnify(ka, kb) {
				return true
			}
		}
	}
	return false
}

// DefEntry records that variable Var (at Version) was assigned a value
// equal to term Rhs.
type DefEntry struct {
	Var     string
	Version int
	Rhs     logic.Term
	// Keys are the call-instance keys of Rhs (in the context's arena), used
	// to filter hopeless equality probes in the cross-simplifier.
	Keys []logic.CallKey
	// id is Rhs interned in the context's arena.
	id logic.NodeID
}

// NewContext returns the empty context ⊤ backed by the given solver.
func NewContext(solver *smt.Solver) *Context {
	return &Context{
		solver:       solver,
		in:           logic.NewInterner(),
		version:      map[string]int{},
		MaxConjuncts: 512,
		defs:         map[logic.NodeID]DefEntry{},
		funcDefs:     map[string][]DefEntry{},
		varDefs:      map[string]DefEntry{},
		offsets:      map[logic.NodeID]offsetDef{},
	}
}

// Interner exposes the context's arena so the cross-simplifier can intern
// probe terms against the same ID space the definition index uses.
func (c *Context) Interner() *logic.Interner { return c.in }

// Solver exposes the underlying solver (shared, not concurrency-safe).
func (c *Context) Solver() *smt.Solver { return c.solver }

// SolvingContext returns the attached incremental solving context (nil
// when none), so derived contexts over the same solver can share it.
func (c *Context) SolvingContext() *smt.Context { return c.sctx }

// UseSolvingContext attaches an incremental solving context;
// conjuncts already present are registered with it. Like the solver it is
// not concurrency-safe. Attach it before opening any scope: registering
// rewrites the conjuncts a mark would restore.
func (c *Context) UseSolvingContext(sc *smt.Context) {
	c.sctx = sc
	for i := range c.conj {
		c.conj[i].aid = sc.Assert(c.conj[i].f)
	}
}

// versioned returns the logical name of variable x at version n.
func versioned(x string, n int) string {
	if n == 0 {
		return x
	}
	return x + "%" + strconv.Itoa(n)
}

// Unversioned returns the source variable of a logical name, the inverse of
// the SSA version naming: x%3 and x both name x.
func Unversioned(name string) string {
	if i := strings.IndexByte(name, '%'); i >= 0 {
		return name[:i]
	}
	return name
}

// CurName returns the current logical name of x.
func (c *Context) CurName(x string) string { return versioned(x, c.version[x]) }

// CurTerm returns the current logical term for x.
func (c *Context) CurTerm(x string) logic.Term { return logic.TVar{Name: c.CurName(x)} }

// TranslateInt maps a source integer expression to a term over the current
// versions.
func (c *Context) TranslateInt(e lang.IntExpr) logic.Term { return logic.FromIntExpr(e, c.CurTerm) }

// TranslateBool maps a source boolean expression to a formula over the
// current versions.
func (c *Context) TranslateBool(e lang.BoolExpr) logic.Formula {
	return logic.FromBoolExpr(e, c.CurTerm)
}

// Assume adds an already-translated formula to the context.
func (c *Context) Assume(f logic.Formula) {
	if _, ok := f.(logic.FTrue); ok {
		return
	}
	id := c.in.InternFormula(f)
	cj := conjunct{
		f:        f,
		vars:     c.in.VarsOf(id),
		linkVars: c.in.LinkVarsOf(id),
		calls:    c.in.CallKeysOf(id),
	}
	if c.sctx != nil {
		cj.aid = c.sctx.Assert(f)
	}
	c.conj = append(c.conj, cj)
	c.trim()
}

// AssumeBool adds a source boolean expression (translated at current
// versions) to the context; used for branch conditions (If 3 rule).
func (c *Context) AssumeBool(e lang.BoolExpr) {
	c.Assume(c.TranslateBool(e))
}

// AssumeAssign computes sp(Ψ, x := e): the right-hand side is translated at
// the pre-state versions, x's version is bumped, and the defining equality
// is recorded.
func (c *Context) AssumeAssign(x string, e lang.IntExpr) {
	c.define(x, c.TranslateInt(e))
}

// define gives x a fresh version equal to rhs, a term over current
// versions: it assumes the defining equality and indexes the definition for
// the cross-simplifier.
func (c *Context) define(x string, rhs logic.Term) {
	c.bump(x)
	c.Assume(logic.EqT(c.CurTerm(x), rhs))
	rid := c.in.InternTerm(rhs)
	entry := DefEntry{Var: x, Version: c.version[x], Rhs: rhs, Keys: c.in.CallKeysOf(rid), id: rid}
	c.setDef(rid, entry)
	c.setVarDef(x, entry)
	for fn := range termFuncs(rhs) {
		c.appendFuncDef(fn, entry)
	}
	if g, k, ok := appOffset(rhs); ok {
		c.setOffset(c.in.InternTerm(g), offsetDef{entry, k})
	}
}

// appOffset splits t into g and c with t ≡ g + c when t is an application
// plus or minus a constant.
func appOffset(t logic.Term) (logic.Term, int64, bool) {
	b, ok := t.(logic.TBin)
	if !ok {
		return nil, 0, false
	}
	_, lApp := b.L.(logic.TApp)
	lc, lConst := b.L.(logic.TConst)
	_, rApp := b.R.(logic.TApp)
	rc, rConst := b.R.(logic.TConst)
	switch {
	case b.Op == logic.Add && lApp && rConst:
		return b.L, rc.Value, true
	case b.Op == logic.Add && lConst && rApp:
		return b.R, lc.Value, true
	case b.Op == logic.Sub && lApp && rConst && rc.Value != math.MinInt64:
		return b.L, -rc.Value, true
	}
	return nil, 0, false
}

// LookupDefID returns a variable currently holding exactly the value of the
// term id, interned into the context's arena, if one was recorded by an
// assignment and has not been overwritten since.
func (c *Context) LookupDefID(id logic.NodeID) (string, bool) {
	e, ok := c.defs[id]
	if !ok || c.version[e.Var] != e.Version {
		return "", false
	}
	return e.Var, true
}

// LookupOffsetID returns a variable v currently holding the value of the
// interned application id plus c, if an assignment v := id ± c was recorded
// and v has not been overwritten since.
func (c *Context) LookupOffsetID(id logic.NodeID) (v string, off int64, ok bool) {
	e, ok := c.offsets[id]
	if !ok || c.version[e.Var] != e.Version {
		return "", 0, false
	}
	return e.Var, e.c, true
}

// CurDef returns the recorded right-hand side of variable v's most recent
// assignment, provided v still holds that value (its version has not
// advanced).
func (c *Context) CurDef(v string) (logic.Term, bool) {
	e, ok := c.curEntry(v)
	if !ok {
		return nil, false
	}
	return e.Rhs, true
}

// DefsByFunc returns still-current definitions whose right-hand side calls
// the named library function, most recent last.
func (c *Context) DefsByFunc(fn string) []DefEntry {
	all := c.funcDefs[fn]
	var out []DefEntry
	for _, e := range all {
		if c.version[e.Var] == e.Version {
			out = append(out, e)
		}
	}
	return out
}

func termFuncs(t logic.Term) map[string]bool {
	out := map[string]bool{}
	logic.Inspect(t, func(n logic.Node) bool {
		if x, ok := n.(logic.TApp); ok {
			out[x.Func] = true
		}
		return true
	})
	return out
}

// HavocSet forgets everything about the given variables by bumping their
// versions without constraints.
func (c *Context) HavocSet(vars map[string]bool) {
	for v := range vars {
		c.bump(v)
	}
}

// JoinDefs advances c across a conditional whose arms ended in then and
// els (Context.ArmEnd, taken in scopes opened on c at the branch point and
// undone since): each variable in vars (those the conditional assigns) gets
// a fresh version, and keeps its definition when both arms end on it. That
// is when v's current definition is the same interned term at the end of
// both arms and every variable the term reads has the same version in c and
// at the end of both arms: the term then reads pre-branch values, which
// both arms leave alone, so v holds it after the join whichever arm ran. A
// version moved in an arm fails the test even when the emitted code no
// longer assigns the variable, and so does an arm version that only looks
// equal because both arms numbered it independently.
//
// A copy v := w is not kept: w's value is already known under w's name,
// and the equality v = w links every fact about w into each query that
// reaches v, so Ω's queries grow while the merged programs barely improve.
// Every variable not kept is havocked, which is always sound.
func (c *Context) JoinDefs(vars map[string]bool, then, els ArmEnd) {
	names := make([]string, 0, len(vars))
	for v := range vars {
		names = append(names, v)
	}
	slices.Sort(names)
	// Decide every variable against c's pre-branch versions before any
	// of them moves.
	joined := make([]logic.Term, len(names))
	for i, v := range names {
		te, ok := then.entry(c, v)
		if _, isCopy := te.Rhs.(logic.TVar); !ok || isCopy {
			continue
		}
		ee, ok := els.entry(c, v)
		if !ok || te.id != ee.id || !c.sameVersions(te.id, then, els) {
			continue
		}
		joined[i] = te.Rhs
	}
	for i, v := range names {
		if joined[i] == nil {
			c.bump(v)
			continue
		}
		c.define(v, joined[i])
	}
}

// curEntry returns v's most recent definition while v still holds it.
func (c *Context) curEntry(v string) (DefEntry, bool) {
	e, ok := c.varDefs[v]
	return e, ok && c.version[v] == e.Version
}

// sameVersions reports whether every variable the interned term id reads
// has the same version in c and at the end of arms a and b.
func (c *Context) sameVersions(id logic.NodeID, a, b ArmEnd) bool {
	for _, x := range c.in.VarsOf(id) {
		v := Unversioned(c.in.VarName(x))
		n := c.version[v]
		if a.version(c, v) != n || b.version(c, v) != n {
			return false
		}
	}
	return true
}

// ApplyStmt advances the context across an arbitrary statement, as the Step
// and Seq rules require. Straight-line statements get exact strongest
// postconditions; conditionals and loops havoc their assigned variables
// (loops additionally assume the negated guard at the post-state, which is
// sound under big-step semantics: code after a non-terminating loop never
// runs).
func (c *Context) ApplyStmt(s lang.Stmt) {
	switch t := s.(type) {
	case lang.Skip, lang.Notify:
	case lang.Assign:
		c.AssumeAssign(t.Var, t.E)
	case lang.Seq:
		c.ApplyStmt(t.L)
		c.ApplyStmt(t.R)
	case lang.Cond:
		c.HavocSet(lang.AssignedVars(s))
	case lang.While:
		c.HavocSet(lang.AssignedVars(t.Body))
		c.AssumeBool(lang.Not{E: t.Test})
	}
}

// Formula returns Ψ as a single conjunction.
func (c *Context) Formula() logic.Formula {
	fs := make([]logic.Formula, len(c.conj))
	for i, cj := range c.conj {
		fs[i] = cj.f
	}
	return logic.And(fs...)
}

// Entails reports Ψ ⊨ goal (conservative: false when undecided). Only the
// conjuncts in the goal's cone of influence — those transitively sharing a
// variable or an uninterpreted function symbol with it — are sent to the
// solver: dropping independent facts weakens the hypothesis, which is
// sound, and keeps query size proportional to the goal rather than to the
// whole consolidation context.
func (c *Context) Entails(goal logic.Formula) bool {
	ok, _ := c.entails(goal, false)
	return ok
}

// entails is Entails; with want set, a goal that is not entailed comes with
// the assignment the solver ended on, when its literal path took one.
func (c *Context) entails(goal logic.Formula, want bool) (bool, *logic.Model) {
	if c.sctx == nil {
		q := logic.And(c.relevantFormula(goal), logic.Not(goal))
		if !want {
			return c.solver.Check(q) == smt.Unsat, nil
		}
		r, m := c.solver.CheckModel(q)
		return r == smt.Unsat, m
	}
	// Incremental path: the cone's conjunct indices become their assertion
	// ids, which the solving context memoizes the check on.
	sel := c.relevantIndices(goal)
	for i, j := range sel {
		sel[i] = c.conj[j].aid
	}
	if !want {
		return c.sctx.EntailsAssuming(sel, goal), nil
	}
	r, m := c.sctx.CheckAssumingModel(sel, goal)
	return r == smt.Unsat, m
}

// EntailsModel is EntailsBool that also returns, when e is not entailed,
// the assignment the solver's literal path ended on (nil when there is
// none). The assignment is unproven; Refutes validates it against a goal.
func (c *Context) EntailsModel(e lang.BoolExpr) (bool, *logic.Model) {
	return c.entails(c.TranslateBool(e), true)
}

// Refutes reports whether one of ms is a counterexample to Ψ ⊨ e: it
// assigns every variable and application of e's cone of influence,
// satisfies every cone conjunct (with one value per function-table point
// it reads) and falsifies e. The query Entails would send, ⋀ cone ∧ ¬e,
// is then satisfiable, so no sound solver proves the entailment and
// EntailsBool would answer false.
func (c *Context) Refutes(e lang.BoolExpr, ms []*logic.Model) bool {
	if len(ms) == 0 {
		return false
	}
	goal := c.TranslateBool(e)
	var cone []int
	coned := false
	for _, m := range ms {
		if v, ok := m.Decide(goal); !ok || v {
			continue
		}
		if !coned {
			cone, coned = c.relevantIndices(goal), true
		}
		if c.satisfiesAll(m, cone) {
			return true
		}
	}
	return false
}

// satisfiesAll reports whether m decides every indexed conjunct true.
func (c *Context) satisfiesAll(m *logic.Model, idx []int) bool {
	for _, j := range idx {
		if v, ok := m.Decide(c.conj[j].f); !ok || !v {
			return false
		}
	}
	return true
}

func (c *Context) relevantFormula(goal logic.Formula) logic.Formula {
	idx := c.relevantIndices(goal)
	out := make([]logic.Formula, len(idx))
	for i, j := range idx {
		out[i] = c.conj[j].f
	}
	return logic.And(out...)
}

// relevantIndices returns the cone-of-influence conjunct indices in
// discovery order (the order relevantFormula composes them in).
func (c *Context) relevantIndices(goal logic.Formula) []int {
	// Cone of influence: a conjunct is relevant when one of its linkable
	// variables is already in the cone, when the cone's linkable variables
	// reach into it, or when a call instance unifies with one in the cone.
	// Membership is generation-stamped: varAll[v] == gen means v is in the
	// cone (any occurrence), varLink[v] == gen means it links.
	gid := c.in.InternFormula(goal)
	c.queryGen++
	gen := c.queryGen
	if n := c.in.NumVars(); len(c.varAll) < n {
		// Fresh zeroed arrays suffice: stamps from earlier generations are
		// dead, and all of this query's marks happen after the growth.
		c.varAll = make([]uint32, n)
		c.varLink = make([]uint32, n)
	}
	for _, v := range c.in.VarsOf(gid) {
		// Goal variables always link, wherever they occur: the goal is
		// what we are proving, so every fact directly about its terms
		// matters.
		c.varAll[v] = gen
		c.varLink[v] = gen
	}
	calls := c.in.CallKeysOf(gid)
	picked := make([]bool, len(c.conj))
	var out []int
	for changed := true; changed; {
		changed = false
		for i := range c.conj {
			if picked[i] {
				continue
			}
			cj := &c.conj[i]
			hit := false
			for _, v := range cj.linkVars {
				if c.varAll[v] == gen {
					hit = true
					break
				}
			}
			if !hit {
				for _, v := range cj.vars {
					if c.varLink[v] == gen {
						hit = true
						break
					}
				}
			}
			if !hit && len(cj.calls) > 0 && c.keysLink(cj.calls, calls) {
				hit = true
			}
			if !hit {
				continue
			}
			picked[i] = true
			changed = true
			out = append(out, i)
			for _, v := range cj.vars {
				c.varAll[v] = gen
			}
			for _, v := range cj.linkVars {
				c.varLink[v] = gen
			}
			// Call keys deliberately do NOT propagate: key linking is one
			// hop from the goal. Transitive key expansion would pull every
			// definition calling the same library function — the entire
			// merged workload — into every query.
		}
	}
	return out
}

// EntailsBool reports Ψ ⊨ e for a source boolean expression.
func (c *Context) EntailsBool(e lang.BoolExpr) bool {
	return c.Entails(c.TranslateBool(e))
}

// Conjuncts exposes the current conjuncts (read-only use).
func (c *Context) Conjuncts() []logic.Formula {
	fs := make([]logic.Formula, len(c.conj))
	for i, cj := range c.conj {
		fs[i] = cj.f
	}
	return fs
}

// trim drops the oldest conjuncts beyond MaxConjuncts by advancing the
// slice's start, writing nothing: a mark's saved header stays exact, and
// append reclaims the dropped prefix when it next reallocates.
func (c *Context) trim() {
	if c.MaxConjuncts > 0 && len(c.conj) > c.MaxConjuncts {
		c.conj = c.conj[len(c.conj)-c.MaxConjuncts:]
	}
}
