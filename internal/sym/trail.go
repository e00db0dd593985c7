package sym

import "consolidation/internal/logic"

// A Context is scoped by an undo trail rather than copied: Mark opens a
// scope, every write to the version map and the definition indexes made
// while a scope is open logs the value it overwrites, and Undo replays the
// log backwards to the mark. The conjunct list needs no log. A mark saves
// its slice header, and nothing ever writes below the end of a saved
// header: Assume appends past the current end, which never falls below the
// end of an open mark's header while the backing array is the same, and
// trim only advances the start. Restoring the header is therefore exact.
// This is the assert-and-backtrack discipline of Dutertre and de Moura's
// simplex (CAV 2006) applied to Ψ: a branch arm or a loop scope costs what
// it writes, not the size of the context it starts from.

// Mark is a scope opened by Context.Mark, to be closed by Undo or Commit.
type Mark struct {
	trail int
	depth int
	conj  []conjunct
}

// undoKind names the structure an undo entry restores.
type undoKind uint8

const (
	undoVersion  undoKind = iota // version[name] was n
	undoVarDef                   // varDefs[name] was def
	undoFuncDefs                 // funcDefs[name] had length n
	undoDef                      // defs[id] was def
	undoOffset                   // offsets[id] was def with offset c
)

// undo is one trail entry: the value a write overwrote, absent unless had.
type undo struct {
	kind undoKind
	had  bool
	name string
	id   logic.NodeID
	n    int
	def  offsetDef
}

// Mark opens a scope: every change to c from here on is undone by Undo(m).
// Scopes nest and close in the reverse order of opening.
func (c *Context) Mark() Mark {
	c.marks++
	return Mark{trail: len(c.trail), depth: c.marks, conj: c.conj}
}

// Undo restores c to its state at m and closes m's scope.
func (c *Context) Undo(m Mark) {
	c.close(m)
	for i := len(c.trail) - 1; i >= m.trail; i-- {
		u := &c.trail[i]
		switch u.kind {
		case undoVersion:
			if u.had {
				c.version[u.name] = u.n
			} else {
				delete(c.version, u.name)
			}
		case undoVarDef:
			if u.had {
				c.varDefs[u.name] = u.def.DefEntry
			} else {
				delete(c.varDefs, u.name)
			}
		case undoFuncDefs:
			if u.had {
				c.funcDefs[u.name] = c.funcDefs[u.name][:u.n]
			} else {
				delete(c.funcDefs, u.name)
			}
		case undoDef:
			if u.had {
				c.defs[u.id] = u.def.DefEntry
			} else {
				delete(c.defs, u.id)
			}
		case undoOffset:
			if u.had {
				c.offsets[u.id] = u.def
			} else {
				delete(c.offsets, u.id)
			}
		}
	}
	clear(c.trail[m.trail:])
	c.trail = c.trail[:m.trail]
	c.conj = m.conj
}

// Commit closes m's scope and keeps what it changed. An enclosing scope
// still undoes those changes.
func (c *Context) Commit(m Mark) {
	c.close(m)
	if c.marks == 0 {
		clear(c.trail)
		c.trail = c.trail[:0]
	}
}

func (c *Context) close(m Mark) {
	if m.depth != c.marks {
		panic("sym: scopes closed out of order")
	}
	c.marks--
}

// ArmEnd is what one arm of a conditional leaves for JoinDefs: for each
// variable the arm moved, its version and current definition at the end
// of the arm. A variable the arm did not move reads from the context the
// undo restores, since a definition changes only through define, which
// moves its variable.
type ArmEnd map[string]armVar

type armVar struct {
	version int
	def     DefEntry
	cur     bool // def is current: the arm ended on it
}

// ArmEnd returns the end state of the scope opened at m, for JoinDefs.
// Take it before Undo(m).
func (c *Context) ArmEnd(m Mark) ArmEnd {
	out := ArmEnd{}
	for i := m.trail; i < len(c.trail); i++ {
		v := c.trail[i].name
		if c.trail[i].kind != undoVersion {
			continue
		}
		if _, seen := out[v]; seen {
			continue
		}
		def, cur := c.curEntry(v)
		out[v] = armVar{version: c.version[v], def: def, cur: cur}
	}
	return out
}

// entry returns v's current definition at the arm's end.
func (a ArmEnd) entry(pre *Context, v string) (DefEntry, bool) {
	if x, ok := a[v]; ok {
		return x.def, x.cur
	}
	return pre.curEntry(v)
}

// version returns v's version at the arm's end.
func (a ArmEnd) version(pre *Context, v string) int {
	if x, ok := a[v]; ok {
		return x.version
	}
	return pre.version[v]
}

// bump and the setters below are the only writes to the version map and
// the definition indexes; each logs what it overwrites while a scope is
// open.

// bump gives x a fresh version.
func (c *Context) bump(x string) {
	old, had := c.version[x]
	if c.marks > 0 {
		c.trail = append(c.trail, undo{kind: undoVersion, had: had, name: x, n: old})
	}
	c.version[x] = old + 1
}

func (c *Context) setVarDef(x string, e DefEntry) {
	if c.marks > 0 {
		old, had := c.varDefs[x]
		c.trail = append(c.trail, undo{kind: undoVarDef, had: had, name: x, def: offsetDef{DefEntry: old}})
	}
	c.varDefs[x] = e
}

func (c *Context) appendFuncDef(fn string, e DefEntry) {
	if c.marks > 0 {
		old, had := c.funcDefs[fn]
		c.trail = append(c.trail, undo{kind: undoFuncDefs, had: had, name: fn, n: len(old)})
	}
	c.funcDefs[fn] = append(c.funcDefs[fn], e)
}

func (c *Context) setDef(id logic.NodeID, e DefEntry) {
	if c.marks > 0 {
		old, had := c.defs[id]
		c.trail = append(c.trail, undo{kind: undoDef, had: had, id: id, def: offsetDef{DefEntry: old}})
	}
	c.defs[id] = e
}

func (c *Context) setOffset(id logic.NodeID, d offsetDef) {
	if c.marks > 0 {
		old, had := c.offsets[id]
		c.trail = append(c.trail, undo{kind: undoOffset, had: had, id: id, def: old})
	}
	c.offsets[id] = d
}
