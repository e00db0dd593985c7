package lang

import (
	"fmt"
	"slices"
)

// Compiled is a program lowered to a flat bytecode form: one dense []instr
// array with relative jump offsets for control flow, a register file for
// expression temporaries, and every variable pre-bound to an index into a
// flat frame, so evaluation performs no map lookups and no recursion. This
// follows the Froid-style lowering the paper cites as complementary
// (Section 7): the merged programs consolidation produces are large, and a
// recursive tree walk with name-based environments would tax them far more
// than the small originals.
//
// Notification ids are likewise renumbered at compile time to dense note
// slots (first static occurrence order), so a run records notifications in
// flat arrays instead of per-run maps. The engine renumbers notify ids to
// query positions 0..n-1 before compiling; NoteIndex recovers the slot of
// an id once, outside the per-record loop.
//
// Compiled evaluation implements exactly the cost semantics of Figure 2,
// including per-notification cost stamps; Runner.Run agrees with Interp.Run
// on every program, cost model, and error path (a property the tests and
// the oracle's executor check enforce).
type Compiled struct {
	prog   *Program
	nslots int
	nregs  int
	code   []instr
	slotOf map[string]int
	// nameOf is the slot→name table kept for diagnostics: the VM reports
	// unbound variables by name, exactly as the interpreter does.
	nameOf []string
	// funcs are the called library functions in first-use order; call
	// instructions hold an index into it. Per-function costs resolve once
	// at NewRunner time against the runner's library and cost model.
	funcs  []string
	funcOf map[string]int
	// noteIDs are the notification ids in first static occurrence order;
	// a notify instruction holds its dense index.
	noteIDs []int
	noteOf  map[int]int
	// chain is the flat destination-slot table of the guarded-move chain
	// instructions; each one holds an offset (b) and a length (c) into it.
	chain []int32
	// assigned is lowering state, the must-be-bound set: assigned[s] holds
	// when every path from entry to the statement being lowered binds slot
	// s. Fused ops read only such slots, with no unbound check; an operand
	// outside it sends the statement down the generic path, whose vLoad is
	// the one checking read. Compile drops it when lowering ends.
	assigned []bool
}

// instr is one bytecode instruction. Operand meaning depends on op:
// registers and frame slots are a/b/c, jump offsets are relative (target =
// pc + b), immediates (constants, call arity) live in imm.
type instr struct {
	op      vmOp
	a, b, c int32
	imm     int64
}

type vmOp uint8

const (
	vIntConst   vmOp = iota // regs[a] = imm
	vBoolConst              // regs[a] = imm (0/1); separate cost class
	vLoad                   // regs[a] = frame slot b; the one read that checks it is bound
	vStore                  // frame slot a = regs[b]
	vAdd                    // regs[a] = regs[b] + regs[c]
	vSub                    // regs[a] = regs[b] - regs[c]
	vMul                    // regs[a] = regs[b] * regs[c]
	vLt                     // regs[a] = regs[b] < regs[c]
	vEq                     // regs[a] = regs[b] == regs[c]
	vLe                     // regs[a] = regs[b] <= regs[c]
	vNot                    // regs[a] = !regs[b]
	vAnd                    // regs[a] = regs[b] & regs[c] (Figure 2: no short circuit)
	vOr                     // regs[a] = regs[b] | regs[c]
	vCall                   // regs[a] = funcs[b](regs[c:c+imm])
	vJmp                    // pc += b
	vJmpIfFalse             // if regs[a] == 0 { pc += b }; carries the Branch cost
	vNotify                 // note slot a = (b != 0), stamping the current cost
	vStep                   // while-loop head: count an iteration against MaxSteps

	// Superinstructions: fused forms of the patterns that dominate merged
	// programs (assignments of call results, and cond/while tests that
	// compare a variable against a constant or another variable). Each
	// carries the summed Figure 2 cost of the instructions it replaces, so
	// folding yields byte-identical cost accounting with fewer dispatches.
	// Each reads only slots Compile proves bound, and checks nothing.
	vCallS   // frame slot a = funcs[b](regs[c:c+imm]); carries the Assign cost
	vCallSV  // frame slot a = funcs[b](slot c); one-variable argument list
	vCallSVI // frame slot a = funcs[b](slot c, imm); the dominant call shape
	vCallSVV // frame slot a = funcs[b](slot c, slot imm)
	vAddSI   // frame slot a = slot b + imm; `x := y + k` and `x := y - k` (imm = -k)
	vAddSS   // frame slot a = slot b + slot c; `x := y + z`
	vMAddSS  // frame slot a = slot b + slot c * slot imm; `x := y + z*w`
	// Guarded-move chain: a maximal run of `if (d OP s) { d := s; }` (max
	// form) or `if (s OP d) { d := s; }` (min form) sharing the source slot
	// a, with the destinations at chain[b : b+c]; imm = 1 makes OP ≤, 0
	// makes it <. The tests are folded into the segment weight; each taken
	// arm charges Var + Assign as it runs.
	vMaxLt // d := s when d < s (d <= s), for each destination d
	vMinLt // d := s when s < d (s <= d)
	// Fused cond-notify: `if (test) { notify q v } else { notify q !v }`
	// with test comparing slot c against imm is branchless — note slot a
	// takes bit 0, 1 or 2 of the truth table b as slot c is <, = or > imm
	// (both arms cost the same, so the merged straight-line charge is
	// exact).
	vNtCmp
	// Fused test-and-branch: evaluate the comparison, jump by b when it is
	// false. V?I forms compare frame slot a against imm (IV is the constant
	// on the left); vJFLtVV compares frame slots a and c. They close the
	// list: isJump tests op >= vJFLtVI.
	vJFLtVI // if !(slot a < imm)    { pc += b }
	vJFLtIV // if !(imm < slot a)    { pc += b }
	vJFLtVV // if !(slot a < slot c) { pc += b }
	vJFLeVI // if !(slot a <= imm)   { pc += b }
	vJFLeIV // if !(imm <= slot a)   { pc += b }
	vJFEqVI // if !(slot a == imm)   { pc += b }
)

// isJump reports whether op transfers control by a relative offset in b;
// foldCosts uses it to find basic-block leaders.
func isJump(op vmOp) bool {
	return op == vJmp || op == vJmpIfFalse || op >= vJFLtVI
}

// isNotify reports whether op stamps a notification cost; foldCosts breaks
// cost segments after each one so the stamps stay exact.
func isNotify(op vmOp) bool { return op == vNotify || op == vNtCmp }

// Compile lowers p to flat bytecode, resolving variables to frame slots,
// library calls to function indices, and notification ids to dense note
// slots.
func Compile(p *Program) (*Compiled, error) {
	c := &Compiled{
		prog:   p,
		slotOf: map[string]int{},
		funcOf: map[string]int{},
		noteOf: map[int]int{},
	}
	for _, prm := range p.Params {
		c.bind(c.slot(prm))
	}
	if err := c.lowerStmt(p.Body); err != nil {
		return nil, err
	}
	c.assigned = nil
	return c, nil
}

// MustCompile panics on error.
func MustCompile(p *Program) *Compiled {
	c, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return c
}

// NoteIndex returns the dense note slot of a notification id, or false if
// the program never notifies it. Callers on per-record hot paths resolve
// ids to slots once and read results by slot.
func (c *Compiled) NoteIndex(id int) (int, bool) {
	k, ok := c.noteOf[id]
	return k, ok
}

// NoteIDs returns the notification ids the program can broadcast, indexed
// by dense note slot.
func (c *Compiled) NoteIDs() []int { return c.noteIDs }

// Len returns the number of bytecode instructions, the count that shows
// how far lowering fused a program.
func (c *Compiled) Len() int { return len(c.code) }

// SlotIndex returns the frame slot holding the named parameter or local,
// if the compiled program mentions it. Parameters occupy slots 0..k-1 in
// declaration order; the aggregation engine uses the lookup to read
// updated accumulator values back out of a fold run.
func (c *Compiled) SlotIndex(name string) (int, bool) {
	s, ok := c.slotOf[name]
	return s, ok
}

func (c *Compiled) slot(name string) int {
	if s, ok := c.slotOf[name]; ok {
		return s
	}
	s := c.nslots
	c.nslots++
	c.slotOf[name] = s
	c.nameOf = append(c.nameOf, name)
	return s
}

// bind records that every path to the current lowering point binds slot s.
func (c *Compiled) bind(s int) {
	for len(c.assigned) <= s {
		c.assigned = append(c.assigned, false)
	}
	c.assigned[s] = true
}

// bound reports whether every path to the current lowering point binds
// each named variable, so a fused op may read it unchecked.
func (c *Compiled) bound(names ...string) bool {
	for _, n := range names {
		s, ok := c.slotOf[n]
		if !ok || s >= len(c.assigned) || !c.assigned[s] {
			return false
		}
	}
	return true
}

func (c *Compiled) funcIndex(name string) int {
	if i, ok := c.funcOf[name]; ok {
		return i
	}
	i := len(c.funcs)
	c.funcs = append(c.funcs, name)
	c.funcOf[name] = i
	return i
}

func (c *Compiled) noteSlot(id int) int {
	if k, ok := c.noteOf[id]; ok {
		return k
	}
	k := len(c.noteIDs)
	c.noteIDs = append(c.noteIDs, id)
	c.noteOf[id] = k
	return k
}

func (c *Compiled) emit(in instr) int {
	c.code = append(c.code, in)
	return len(c.code) - 1
}

// patch points the jump at index j to the current end of the code array.
func (c *Compiled) patch(j int) {
	c.code[j].b = int32(len(c.code) - j)
}

// useRegs records that lowering needed regs [0, n).
func (c *Compiled) useRegs(n int) {
	if n > c.nregs {
		c.nregs = n
	}
}

func (c *Compiled) lowerStmt(s Stmt) error {
	stmts := Flatten(s)
	for i := 0; i < len(stmts); i++ {
		switch t := stmts[i].(type) {
		case Assign:
			if err := c.lowerAssign(t); err != nil {
				return err
			}
			c.bind(c.slot(t.Var))
		case Notify:
			val := int32(0)
			if t.Value {
				val = 1
			}
			c.emit(instr{op: vNotify, a: int32(c.noteSlot(t.ID)), b: val})
		case Cond:
			if n := c.tryFuseMoveChain(stmts[i:]); n > 0 {
				i += n - 1
				continue
			}
			if c.tryFuseNotifyPair(t) {
				continue
			}
			jf, err := c.lowerTestJmp(t.Test)
			if err != nil {
				return err
			}
			before := slices.Clone(c.assigned)
			if err := c.lowerStmt(t.Then); err != nil {
				return err
			}
			then := c.assigned
			c.assigned = before
			j := c.emit(instr{op: vJmp})
			c.patch(jf) // else starts here
			if err := c.lowerStmt(t.Else); err != nil {
				return err
			}
			c.patch(j)
			// What both arms bind stays bound.
			for s := range c.assigned {
				c.assigned[s] = c.assigned[s] && s < len(then) && then[s]
			}
		case While:
			// The test and the body start from what is bound before the
			// loop, and so does everything after it: the body may run
			// zero times.
			before := slices.Clone(c.assigned)
			head := len(c.code)
			c.emit(instr{op: vStep})
			jf, err := c.lowerTestJmp(t.Test)
			if err != nil {
				return err
			}
			if err := c.lowerStmt(t.Body); err != nil {
				return err
			}
			back := c.emit(instr{op: vJmp})
			c.code[back].b = int32(head - back)
			c.patch(jf)
			c.assigned = before
		default:
			return fmt.Errorf("lang: cannot compile %T", t)
		}
	}
	return nil
}

// lowerAssign lowers `x := e`. A call result goes straight to the frame
// slot, skipping the register round trip, and f(v), f(v, const) and
// f(u, v) over bound variables — the argument lists query UDFs
// overwhelmingly use — fuse the argument reads in as well.
func (c *Compiled) lowerAssign(t Assign) error {
	if c.tryFuseAdd(t) {
		return nil
	}
	dst := int32(c.slot(t.Var))
	call, ok := t.E.(Call)
	if !ok {
		if err := c.lowerInt(t.E, 0); err != nil {
			return err
		}
		c.emit(instr{op: vStore, a: dst, b: 0})
		return nil
	}
	fi := int32(c.funcIndex(call.Func))
	if in, ok := c.fuseCallArgs(call.Args); ok {
		in.a, in.b = dst, fi
		c.emit(in)
		return nil
	}
	for i, a := range call.Args {
		if err := c.lowerInt(a, i); err != nil {
			return err
		}
	}
	c.useRegs(len(call.Args))
	c.emit(instr{op: vCallS, a: dst, b: fi, c: 0, imm: int64(len(call.Args))})
	return nil
}

// fuseCallArgs picks the fused call op for an argument list of a bound
// variable u alone, then a constant or a bound variable, and fills in its
// argument operands.
func (c *Compiled) fuseCallArgs(args []IntExpr) (instr, bool) {
	if len(args) == 0 || len(args) > 2 {
		return instr{}, false
	}
	u, ok := args[0].(Var)
	if !ok || !c.bound(u.Name) {
		return instr{}, false
	}
	in := instr{op: vCallSV, c: int32(c.slot(u.Name))}
	if len(args) == 1 {
		return in, true
	}
	switch w := args[1].(type) {
	case IntConst:
		in.op, in.imm = vCallSVI, w.Value
		return in, true
	case Var:
		in.op, in.imm = vCallSVV, int64(c.slot(w.Name))
		return in, c.bound(w.Name)
	}
	return instr{}, false
}

// lowerTestJmp lowers a cond/while test followed by a jump-if-false with an
// unpatched offset, returning the jump's index for patching. Comparisons of
// a variable against a constant, and `u < v` over two variables — the
// dominant test shapes in merged programs — fuse into a single
// test-and-branch instruction; anything else takes the generic register
// path.
func (c *Compiled) lowerTestJmp(test BoolExpr) (int, error) {
	if t, ok := test.(Cmp); ok {
		if j, fused := c.tryFuseCmpJmp(t); fused {
			return j, nil
		}
	}
	if err := c.lowerBool(test, 0); err != nil {
		return 0, err
	}
	return c.emit(instr{op: vJmpIfFalse, a: 0}), nil
}

// tryFuseNotifyPair lowers `if (v OP k) { notify q x } else
// { notify q !x }` and `if (k OP v) ...`, with v a variable and k a
// constant — the dominant leaf shape of merged programs — to a single
// branchless vNtCmp. Valid because both arms charge identical cost (test +
// branch + notify), so the straight-line fold is byte-identical. The
// operand b is the note's value as a truth table over v < k, v = k and
// v > k (bits 0, 1 and 2): the operator gives the table of v OP k, a
// constant on the left swaps the < and > bits, and a then-arm notifying
// false inverts every bit.
func (c *Compiled) tryFuseNotifyPair(t Cond) bool {
	thenS := Flatten(t.Then)
	elseS := Flatten(t.Else)
	if len(thenS) != 1 || len(elseS) != 1 {
		return false
	}
	tn, ok1 := thenS[0].(Notify)
	en, ok2 := elseS[0].(Notify)
	if !ok1 || !ok2 || tn.ID != en.ID || tn.Value == en.Value {
		return false
	}
	cmp, ok := t.Test.(Cmp)
	if !ok {
		return false
	}
	table := [...]int32{Lt: 0b001, Eq: 0b010, Le: 0b011}[cmp.Op]
	v, okV := cmp.L.(Var)
	k, okC := cmp.R.(IntConst)
	if !okV || !okC {
		if v, okV = cmp.R.(Var); !okV {
			return false
		}
		if k, okC = cmp.L.(IntConst); !okC {
			return false
		}
		table = table&0b010 | table>>2 | table&0b001<<2
	}
	if !c.bound(v.Name) {
		return false
	}
	if !tn.Value {
		table ^= 0b111
	}
	c.emit(instr{op: vNtCmp, a: int32(c.noteSlot(tn.ID)), b: table, c: int32(c.slot(v.Name)), imm: k.Value})
	return true
}

// tryFuseAdd lowers three add shapes over bound variables to one
// slot-to-slot instruction each: `x := y + k` and `x := y - k` (loop
// counters and offsets; subtraction adds -k, which wraps exactly as y - k
// does), and the sum-chain updates `x := y + z` and `x := y + z*w`.
func (c *Compiled) tryFuseAdd(t Assign) bool {
	e, ok := t.E.(BinInt)
	if !ok || e.Op == Mul {
		return false
	}
	y, ok := e.L.(Var)
	if !ok || !c.bound(y.Name) {
		return false
	}
	in := instr{b: int32(c.slot(y.Name))}
	switch r := e.R.(type) {
	case IntConst:
		in.op, in.imm = vAddSI, r.Value
		if e.Op == Sub {
			in.imm = -r.Value
		}
	case Var:
		if e.Op == Sub || !c.bound(r.Name) {
			return false
		}
		in.op, in.c = vAddSS, int32(c.slot(r.Name))
	case BinInt:
		z, okZ := r.L.(Var)
		w, okW := r.R.(Var)
		if e.Op == Sub || r.Op != Mul || !okZ || !okW || !c.bound(z.Name, w.Name) {
			return false
		}
		in.op, in.c, in.imm = vMAddSS, int32(c.slot(z.Name)), int64(c.slot(w.Name))
	default:
		return false
	}
	in.a = int32(c.slot(t.Var))
	c.emit(in)
	return true
}

// guardedMove is one element of a guarded-move chain: `if (dst OP src)
// { dst := src; }`, or `if (src OP dst) { dst := src; }` when min is set,
// with OP ∈ {<, ≤} and an empty else-arm. These are the max/min
// accumulator updates Ω's loop rule stacks into one fused loop body.
type guardedMove struct {
	dst, src string
	op       CmpOp
	min      bool
}

func asGuardedMove(st Stmt) (guardedMove, bool) {
	t, ok := st.(Cond)
	if !ok {
		return guardedMove{}, false
	}
	cmp, ok := t.Test.(Cmp)
	if !ok || cmp.Op == Eq {
		return guardedMove{}, false
	}
	l, okL := cmp.L.(Var)
	r, okR := cmp.R.(Var)
	if !okL || !okR || len(Flatten(t.Else)) != 0 {
		return guardedMove{}, false
	}
	then := Flatten(t.Then)
	if len(then) != 1 {
		return guardedMove{}, false
	}
	a, ok := then[0].(Assign)
	if !ok {
		return guardedMove{}, false
	}
	s, ok := a.E.(Var)
	if !ok || s.Name == a.Var {
		return guardedMove{}, false
	}
	g := guardedMove{dst: a.Var, src: s.Name, op: cmp.Op}
	switch {
	case l.Name == a.Var && r.Name == s.Name:
	case l.Name == s.Name && r.Name == a.Var:
		g.min = true
	default:
		return guardedMove{}, false
	}
	return g, true
}

// tryFuseMoveChain lowers the maximal run of guarded moves at the head of
// stmts that share one source, one operator and one orientation to a
// single chain instruction, and reports how many statements it consumed
// (0 when stmts does not start with a guarded move over bound variables).
// The source is never a destination, so it stays unchanged across the run.
func (c *Compiled) tryFuseMoveChain(stmts []Stmt) int {
	first, ok := asGuardedMove(stmts[0])
	if !ok || !c.bound(first.src, first.dst) {
		return 0
	}
	off := len(c.chain)
	n := 0
	for ; n < len(stmts); n++ {
		g, ok := asGuardedMove(stmts[n])
		if !ok || g.src != first.src || g.op != first.op || g.min != first.min || !c.bound(g.dst) {
			break
		}
		c.chain = append(c.chain, int32(c.slot(g.dst)))
	}
	op, le := vMaxLt, int64(0)
	if first.min {
		op = vMinLt
	}
	if first.op == Le {
		le = 1
	}
	c.emit(instr{op: op, a: int32(c.slot(first.src)), b: int32(off), c: int32(n), imm: le})
	return n
}

// tryFuseCmpJmp emits a fused test-and-branch for a comparison of a bound
// variable against a constant, or for `u < v` over two bound variables.
func (c *Compiled) tryFuseCmpJmp(t Cmp) (int, bool) {
	lv, lVar := t.L.(Var)
	lc, lConst := t.L.(IntConst)
	rv, rVar := t.R.(Var)
	rc, rConst := t.R.(IntConst)
	switch {
	case lVar && rConst && c.bound(lv.Name):
		op := vJFLtVI
		switch t.Op {
		case Eq:
			op = vJFEqVI
		case Le:
			op = vJFLeVI
		}
		return c.emit(instr{op: op, a: int32(c.slot(lv.Name)), imm: rc.Value}), true
	case lConst && rVar && c.bound(rv.Name):
		op := vJFLtIV
		switch t.Op {
		case Eq:
			op = vJFEqVI // equality is symmetric
		case Le:
			op = vJFLeIV
		}
		return c.emit(instr{op: op, a: int32(c.slot(rv.Name)), imm: lc.Value}), true
	case lVar && rVar && t.Op == Lt && c.bound(lv.Name, rv.Name):
		return c.emit(instr{op: vJFLtVV, a: int32(c.slot(lv.Name)), c: int32(c.slot(rv.Name))}), true
	}
	return 0, false
}

// lowerInt emits code leaving e's value in register base, using registers
// base+1.. for subexpression temporaries (stack discipline keeps call
// arguments contiguous, so vCall passes a register-file subslice straight
// to the library with no per-call argument buffer).
func (c *Compiled) lowerInt(e IntExpr, base int) error {
	c.useRegs(base + 1)
	switch t := e.(type) {
	case IntConst:
		c.emit(instr{op: vIntConst, a: int32(base), imm: t.Value})
	case Var:
		c.emit(instr{op: vLoad, a: int32(base), b: int32(c.slot(t.Name))})
	case Call:
		for i, a := range t.Args {
			if err := c.lowerInt(a, base+i); err != nil {
				return err
			}
		}
		c.emit(instr{
			op: vCall, a: int32(base),
			b: int32(c.funcIndex(t.Func)), c: int32(base),
			imm: int64(len(t.Args)),
		})
	case BinInt:
		if err := c.lowerInt(t.L, base); err != nil {
			return err
		}
		if err := c.lowerInt(t.R, base+1); err != nil {
			return err
		}
		op := vAdd
		switch t.Op {
		case Sub:
			op = vSub
		case Mul:
			op = vMul
		}
		c.emit(instr{op: op, a: int32(base), b: int32(base), c: int32(base + 1)})
	default:
		return fmt.Errorf("lang: cannot compile int expression %T", e)
	}
	return nil
}

// lowerBool is lowerInt for boolean expressions; booleans live in integer
// registers as 0/1.
func (c *Compiled) lowerBool(e BoolExpr, base int) error {
	c.useRegs(base + 1)
	switch t := e.(type) {
	case BoolConst:
		var imm int64
		if t.Value {
			imm = 1
		}
		c.emit(instr{op: vBoolConst, a: int32(base), imm: imm})
	case Cmp:
		if err := c.lowerInt(t.L, base); err != nil {
			return err
		}
		if err := c.lowerInt(t.R, base+1); err != nil {
			return err
		}
		op := vLt
		switch t.Op {
		case Eq:
			op = vEq
		case Le:
			op = vLe
		}
		c.emit(instr{op: op, a: int32(base), b: int32(base), c: int32(base + 1)})
	case Not:
		if err := c.lowerBool(t.E, base); err != nil {
			return err
		}
		c.emit(instr{op: vNot, a: int32(base), b: int32(base)})
	case BinBool:
		// Figure 2 evaluates both operands (no short circuit), so the
		// merged and original programs are charged alike; the lowering is
		// straight-line on purpose.
		if err := c.lowerBool(t.L, base); err != nil {
			return err
		}
		if err := c.lowerBool(t.R, base+1); err != nil {
			return err
		}
		op := vAnd
		if t.Op == Or {
			op = vOr
		}
		c.emit(instr{op: op, a: int32(base), b: int32(base), c: int32(base + 1)})
	default:
		return fmt.Errorf("lang: cannot compile bool expression %T", e)
	}
	return nil
}
