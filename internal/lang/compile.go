package lang

import (
	"fmt"
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
	vLoad                   // regs[a] = frame slot b (unbound check)
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
	vCallS   // frame slot a = funcs[b](regs[c:c+imm]); carries the Assign cost
	vCallSV  // frame slot a = funcs[b](slot c); one-variable argument list
	vCallSVI // frame slot a = funcs[b](slot c, imm); the dominant call shape
	vCallSVV // frame slot a = funcs[b](slot c, slot imm)
	vAddSI   // frame slot a = slot c + imm; `x := y + k` and `x := y - k` (imm = -k)
	// Guarded-move chain: a maximal run of `if (d OP s) { d := s; }` (max
	// form) or `if (s OP d) { d := s; }` (min form) sharing the source slot
	// a, with the destinations at chain[b : b+c]. The tests are folded into
	// the segment weight; each taken arm charges Var + Assign as it runs.
	vMaxLt // d := s when d < s, for each destination d
	vMaxLe // d := s when d <= s
	vMinLt // d := s when s < d
	vMinLe // d := s when s <= d
	// Fused cond-notify: `if (test) { notify q v } else { notify q !v }`
	// is branchless — note slot a = (slot c OP imm), with polarity folded
	// into the comparison (both arms cost the same, so the merged
	// straight-line charge is exact).
	vNtLtVI // note a = (slot c < imm)
	vNtLtIV // note a = (imm < slot c)
	vNtLeVI // note a = (slot c <= imm)
	vNtLeIV // note a = (imm <= slot c)
	vNtEqVI // note a = (slot c == imm)
	vNtNeVI // note a = (slot c != imm)
	// Fused test-and-branch: evaluate the comparison, jump by b when it is
	// false. V?I forms compare frame slot a against imm (IV is the constant
	// on the left); VV forms compare frame slots a and c.
	vJFLtVI // if !(slot a < imm)     { pc += b }
	vJFLtIV // if !(imm < slot a)     { pc += b }
	vJFLtVV // if !(slot a < slot c)  { pc += b }
	vJFLeVI // if !(slot a <= imm)    { pc += b }
	vJFLeIV // if !(imm <= slot a)    { pc += b }
	vJFLeVV // if !(slot a <= slot c) { pc += b }
	vJFEqVI // if !(slot a == imm)    { pc += b }
	vJFEqVV // if !(slot a == slot c) { pc += b }
)

// isJump reports whether op transfers control by a relative offset in b;
// foldCosts uses it to find basic-block leaders.
func isJump(op vmOp) bool {
	switch op {
	case vJmp, vJmpIfFalse,
		vJFLtVI, vJFLtIV, vJFLtVV, vJFLeVI, vJFLeIV, vJFLeVV, vJFEqVI, vJFEqVV:
		return true
	}
	return false
}

// isNotify reports whether op stamps a notification cost; foldCosts breaks
// cost segments after each one so the stamps stay exact.
func isNotify(op vmOp) bool {
	switch op {
	case vNotify, vNtLtVI, vNtLtIV, vNtLeVI, vNtLeIV, vNtEqVI, vNtNeVI:
		return true
	}
	return false
}

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
		c.slot(prm)
	}
	if err := c.lowerStmt(p.Body); err != nil {
		return nil, err
	}
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
			if c.tryFuseAddImm(t) {
				continue
			}
			if call, ok := t.E.(Call); ok {
				// Fuse the dominant assignment form: bind the call result
				// straight to the frame slot, skipping the register round
				// trip. f(v), f(v, const) and f(u, v) argument lists — the
				// shapes query UDFs overwhelmingly use — fuse the argument
				// evaluation in as well.
				fi := int32(c.funcIndex(call.Func))
				dst := int32(c.slot(t.Var))
				if len(call.Args) == 1 {
					if av, ok := call.Args[0].(Var); ok {
						c.emit(instr{op: vCallSV, a: dst, b: fi, c: int32(c.slot(av.Name))})
						continue
					}
				}
				if len(call.Args) == 2 {
					av, okV := call.Args[0].(Var)
					ac, okC := call.Args[1].(IntConst)
					if okV && okC {
						c.emit(instr{op: vCallSVI, a: dst, b: fi, c: int32(c.slot(av.Name)), imm: ac.Value})
						continue
					}
					bv, okW := call.Args[1].(Var)
					if okV && okW {
						u := int32(c.slot(av.Name))
						c.emit(instr{op: vCallSVV, a: dst, b: fi, c: u, imm: int64(c.slot(bv.Name))})
						continue
					}
				}
				for i, a := range call.Args {
					if err := c.lowerInt(a, i); err != nil {
						return err
					}
				}
				c.useRegs(len(call.Args))
				c.emit(instr{op: vCallS, a: dst, b: fi, c: 0, imm: int64(len(call.Args))})
				continue
			}
			if err := c.lowerInt(t.E, 0); err != nil {
				return err
			}
			c.emit(instr{op: vStore, a: int32(c.slot(t.Var)), b: 0})
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
			if err := c.lowerStmt(t.Then); err != nil {
				return err
			}
			j := c.emit(instr{op: vJmp})
			c.patch(jf) // else starts here
			if err := c.lowerStmt(t.Else); err != nil {
				return err
			}
			c.patch(j)
		case While:
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
		default:
			return fmt.Errorf("lang: cannot compile %T", t)
		}
	}
	return nil
}

// lowerTestJmp lowers a cond/while test followed by a jump-if-false with an
// unpatched offset, returning the jump's index for patching. Comparisons of
// variables against constants or other variables — the dominant test shape
// in merged programs — fuse into a single test-and-branch instruction;
// anything else takes the generic register path.
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

// tryFuseNotifyPair lowers `if (v OP const) { notify q x } else
// { notify q !x }` — the dominant leaf shape of merged programs — to a
// single branchless cond-notify instruction. Valid because both arms charge
// identical cost (test + branch + notify), so the straight-line fold is
// byte-identical; a then-arm notifying false folds the negation into the
// comparison (¬(a<b) ⇔ b≤a).
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
	var slot int32
	var imm int64
	var shapeVI bool
	if v, okV := cmp.L.(Var); okV {
		k, okC := cmp.R.(IntConst)
		if !okC {
			return false
		}
		slot, imm, shapeVI = int32(c.slot(v.Name)), k.Value, true
	} else if k, okC := cmp.L.(IntConst); okC {
		v, okV := cmp.R.(Var)
		if !okV {
			return false
		}
		slot, imm, shapeVI = int32(c.slot(v.Name)), k.Value, false
	} else {
		return false
	}
	negate := !tn.Value // note value is ¬test when the then-arm notifies false
	var op vmOp
	switch {
	case cmp.Op == Lt && shapeVI:
		op = vNtLtVI // v < k
		if negate {
			op = vNtLeIV // ¬(v<k) ⇔ k≤v
		}
	case cmp.Op == Lt && !shapeVI:
		op = vNtLtIV // k < v
		if negate {
			op = vNtLeVI // ¬(k<v) ⇔ v≤k
		}
	case cmp.Op == Le && shapeVI:
		op = vNtLeVI // v ≤ k
		if negate {
			op = vNtLtIV // ¬(v≤k) ⇔ k<v
		}
	case cmp.Op == Le && !shapeVI:
		op = vNtLeIV // k ≤ v
		if negate {
			op = vNtLtVI // ¬(k≤v) ⇔ v<k
		}
	case cmp.Op == Eq:
		op = vNtEqVI
		if negate {
			op = vNtNeVI
		}
	default:
		return false
	}
	c.emit(instr{op: op, a: int32(c.noteSlot(tn.ID)), c: slot, imm: imm})
	return true
}

// tryFuseAddImm lowers `x := y + k` and `x := y - k` — loop counters and
// offsets — to one slot-to-slot add; subtraction adds -k, which wraps
// exactly as y - k does.
func (c *Compiled) tryFuseAddImm(t Assign) bool {
	b, ok := t.E.(BinInt)
	if !ok || b.Op == Mul {
		return false
	}
	y, okV := b.L.(Var)
	k, okC := b.R.(IntConst)
	if !okV || !okC {
		return false
	}
	imm := k.Value
	if b.Op == Sub {
		imm = -imm
	}
	src := int32(c.slot(y.Name))
	c.emit(instr{op: vAddSI, a: int32(c.slot(t.Var)), c: src, imm: imm})
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
// (0 when stmts does not start with a guarded move). The source is never a
// destination, so it stays bound and unchanged across the run.
func (c *Compiled) tryFuseMoveChain(stmts []Stmt) int {
	first, ok := asGuardedMove(stmts[0])
	if !ok {
		return 0
	}
	off := len(c.chain)
	n := 0
	for ; n < len(stmts); n++ {
		g, ok := asGuardedMove(stmts[n])
		if !ok || g.src != first.src || g.op != first.op || g.min != first.min {
			break
		}
		c.chain = append(c.chain, int32(c.slot(g.dst)))
	}
	op := vMaxLt
	switch {
	case first.min && first.op == Le:
		op = vMinLe
	case first.min:
		op = vMinLt
	case first.op == Le:
		op = vMaxLe
	}
	c.emit(instr{op: op, a: int32(c.slot(first.src)), b: int32(off), c: int32(n)})
	return n
}

// tryFuseCmpJmp emits a fused test-and-branch for Var/IntConst comparison
// shapes. Operand evaluation order (left before right) is preserved so
// unbound-variable errors surface in the interpreter's order.
func (c *Compiled) tryFuseCmpJmp(t Cmp) (int, bool) {
	lv, lVar := t.L.(Var)
	lc, lConst := t.L.(IntConst)
	rv, rVar := t.R.(Var)
	rc, rConst := t.R.(IntConst)
	switch {
	case lVar && rConst:
		op := vJFLtVI
		switch t.Op {
		case Eq:
			op = vJFEqVI
		case Le:
			op = vJFLeVI
		}
		return c.emit(instr{op: op, a: int32(c.slot(lv.Name)), imm: rc.Value}), true
	case lConst && rVar:
		op := vJFLtIV
		switch t.Op {
		case Eq:
			op = vJFEqVI // equality is symmetric
		case Le:
			op = vJFLeIV
		}
		return c.emit(instr{op: op, a: int32(c.slot(rv.Name)), imm: lc.Value}), true
	case lVar && rVar:
		op := vJFLtVV
		switch t.Op {
		case Eq:
			op = vJFEqVV
		case Le:
			op = vJFLeVV
		}
		return c.emit(instr{op: op, a: int32(c.slot(lv.Name)), c: int32(c.slot(rv.Name))}), true
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
