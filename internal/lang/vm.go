package lang

import (
	"fmt"
)

// Runner executes a Compiled program repeatedly with amortised state: the
// register file, frame, and dense notification arrays are allocated once
// and reused, so steady-state execution performs zero allocations per run.
// Not safe for concurrent use; create one per goroutine.
//
// Cost accounting is folded at construction time: every instruction's
// Figure 2 cost (including per-function library call costs, resolved once
// here against the library and cost model) is summed over its basic-block
// segment and charged at the segment head, so straight-line code pays one
// precomputed delta instead of per-op increments. Segments additionally
// break after every notify, which keeps per-notification cost stamps
// byte-identical to the interpreter's. The one data-dependent charge is a
// guarded-move chain's taken arms (moveCost each), added as the chain runs.
type Runner struct {
	c   *Compiled
	lib Library
	cm  *CostModel
	// MaxSteps bounds the loop-test evaluations of a run — every iteration
	// plus one per loop exit, as Interp counts them; 0 disables.
	MaxSteps int64

	// code is the runner's private copy of the program with each
	// instruction's folded cost delta embedded (costs depend on the
	// runner's cost model and library, so they cannot live in the shared
	// Compiled). callCost[f] is the resolved cost of calling funcs[f];
	// callFn[f] is its direct handle (resolved via DirectCaller when the
	// library supports it, a Call closure otherwise). argBuf is the scratch
	// argument list for fused call instructions.
	code     []rinstr
	callCost []int64
	callFn   []func(args []int64) (int64, error)
	argBuf   []int64
	// moveCost is the Var + Assign a guarded-move chain charges per taken
	// arm.
	moveCost int64

	regs  []int64
	slots []int64
	// slotGen/noteGen implement O(1) per-run resets: an entry is live only
	// when its generation matches the current run's.
	slotGen  []uint64
	noteVal  []bool
	noteGen  []uint64
	noteCost []int64
	gen      uint64

	cost  int64
	steps int64
}

// rinstr is a Compiled instr with the runner's folded cost delta embedded,
// so the exec loop walks a single instruction stream.
type rinstr struct {
	op      vmOp
	a, b, c int32
	imm     int64
	// w is the precomputed cost charged when this instruction executes;
	// non-zero only at cost-segment heads.
	w int64
}

// DirectCaller is an optional Library extension: a library that can resolve
// a function name to a direct handle lets the runner bind call sites once at
// construction, skipping the per-call name dispatch inside Call.
type DirectCaller interface {
	Resolve(name string) (func(args []int64) (int64, error), bool)
}

// RunnerOption configures a Runner at construction time.
type RunnerOption func(*Runner)

// WithCostModel makes the runner charge costs under cm instead of the
// default cost model, matching an Interp with CM set to cm. The model is
// captured (folded into per-segment deltas) at construction.
func WithCostModel(cm *CostModel) RunnerOption {
	return func(r *Runner) {
		if cm != nil {
			r.cm = cm
		}
	}
}

// NewRunner creates a runner for c against the given library. Library call
// costs and the cost model are resolved once, here — not per record.
func NewRunner(c *Compiled, lib Library, opts ...RunnerOption) *Runner {
	r := &Runner{
		c:        c,
		lib:      lib,
		cm:       DefaultCostModel(),
		regs:     make([]int64, c.nregs),
		slots:    make([]int64, c.nslots),
		slotGen:  make([]uint64, c.nslots),
		noteVal:  make([]bool, len(c.noteIDs)),
		noteGen:  make([]uint64, len(c.noteIDs)),
		noteCost: make([]int64, len(c.noteIDs)),
		argBuf:   make([]int64, 2),
	}
	for _, o := range opts {
		o(r)
	}
	r.callCost = make([]int64, len(c.funcs))
	r.callFn = make([]func(args []int64) (int64, error), len(c.funcs))
	dc, _ := lib.(DirectCaller)
	for i, fn := range c.funcs {
		if fc, ok := lib.FuncCost(fn); ok {
			r.callCost[i] = fc
		} else {
			r.callCost[i] = r.cm.CallBase
		}
		if dc != nil {
			if f, ok := dc.Resolve(fn); ok {
				r.callFn[i] = f
				continue
			}
		}
		name := fn
		r.callFn[i] = func(args []int64) (int64, error) { return lib.Call(name, args) }
	}
	r.moveCost = r.cm.Var + r.cm.Assign
	r.foldCosts()
	return r
}

// instrCost is the Figure 2 cost of one instruction under the runner's
// cost model and resolved library call costs.
func (r *Runner) instrCost(in *instr) int64 {
	switch in.op {
	case vIntConst:
		return r.cm.IntConst
	case vBoolConst:
		return r.cm.BoolConst
	case vLoad:
		return r.cm.Var
	case vStore:
		return r.cm.Assign
	case vAdd, vSub, vMul:
		return r.cm.Arith
	case vLt, vEq, vLe:
		return r.cm.Cmp
	case vNot:
		return r.cm.Neg
	case vAnd, vOr:
		return r.cm.BoolOp
	case vCall:
		return r.callCost[in.b]
	case vCallS:
		// A fused slot-targeted call replaces call + store.
		return r.callCost[in.b] + r.cm.Assign
	case vCallSV:
		return r.cm.Var + r.callCost[in.b] + r.cm.Assign
	case vCallSVI:
		return r.cm.Var + r.cm.IntConst + r.callCost[in.b] + r.cm.Assign
	case vCallSVV:
		return 2*r.cm.Var + r.callCost[in.b] + r.cm.Assign
	case vAddSI:
		return r.cm.Var + r.cm.IntConst + r.cm.Arith + r.cm.Assign
	case vAddSS:
		return 2*r.cm.Var + r.cm.Arith + r.cm.Assign
	case vMAddSS:
		return 3*r.cm.Var + 2*r.cm.Arith + r.cm.Assign
	case vMaxLt, vMinLt:
		// Every element's test and branch; taken arms charge as they run.
		return int64(in.c) * (2*r.cm.Var + r.cm.Cmp + r.cm.Branch)
	case vNotify:
		return r.cm.Notify
	case vJmpIfFalse:
		return r.cm.Branch
	case vJFLtVI, vJFLtIV, vJFLeVI, vJFLeIV, vJFEqVI:
		// Fused var-vs-const test-and-branch: load + const + compare + branch.
		return r.cm.Var + r.cm.IntConst + r.cm.Cmp + r.cm.Branch
	case vJFLtVV:
		return 2*r.cm.Var + r.cm.Cmp + r.cm.Branch
	case vNtCmp:
		// Fused cond-notify: test + branch + notify, on either arm.
		return r.cm.Var + r.cm.IntConst + r.cm.Cmp + r.cm.Branch + r.cm.Notify
	}
	return 0 // vJmp, vStep
}

// foldCosts partitions the code into straight-line segments — broken at
// basic-block leaders (jump targets and fall-throughs of jumps) and after
// every notify — and charges each segment's summed cost at its head. A
// segment executes in full once entered (an error abandons the run, and an
// aborted run's cost is unobservable), so charging the sum up front leaves
// the accumulated cost byte-identical to per-op accounting at every notify
// stamp and at the end of the run.
func (r *Runner) foldCosts() {
	code := r.c.code
	n := len(code)
	leader := make([]bool, n+1)
	if n > 0 {
		leader[0] = true
	}
	for i := range code {
		if isJump(code[i].op) {
			leader[i+int(code[i].b)] = true
			leader[i+1] = true
		}
	}
	r.code = make([]rinstr, n)
	carrier := 0
	for i := 0; i < n; i++ {
		in := &code[i]
		r.code[i] = rinstr{op: in.op, a: in.a, b: in.b, c: in.c, imm: in.imm}
		if leader[i] {
			carrier = i
		}
		r.code[carrier].w += r.instrCost(in)
		if isNotify(in.op) {
			// The stamp must see exactly the cost through this notify;
			// later instructions charge at a fresh carrier.
			carrier = i + 1
		}
	}
}

// Run executes the program, returning the notification environment, the
// per-notification cost stamps, and the total cost. The maps are built
// from the dense arrays on every call; hot paths use RunDense and the
// NoteAt/NoteCostAt accessors instead.
func (r *Runner) Run(args []int64) (Notifications, map[int]int64, int64, error) {
	cost, err := r.RunDense(args)
	if err != nil {
		return nil, nil, 0, err
	}
	notes := make(Notifications, len(r.c.noteIDs))
	noteCosts := make(map[int]int64, len(r.c.noteIDs))
	for k, id := range r.c.noteIDs {
		if r.noteGen[k] == r.gen {
			notes[id] = r.noteVal[k]
			noteCosts[id] = r.noteCost[k]
		}
	}
	return notes, noteCosts, cost, nil
}

// RunDense executes the program and returns the total cost, recording
// notifications in the runner's dense note slots (read them with NoteAt /
// NoteCostAt). It performs no per-run allocations.
func (r *Runner) RunDense(args []int64) (int64, error) {
	if len(args) != len(r.c.prog.Params) {
		return 0, fmt.Errorf("lang: program %s expects %d arguments, got %d",
			r.c.prog.Name, len(r.c.prog.Params), len(args))
	}
	r.gen++
	r.cost = 0
	r.steps = 0
	for i, a := range args {
		r.slots[i] = a
		r.slotGen[i] = r.gen
	}
	if err := r.exec(); err != nil {
		return 0, err
	}
	return r.cost, nil
}

// BeginBatch1 validates, once per batch, what RunDense validates per run:
// that the program takes exactly one parameter. A batched caller checks it
// at the batch boundary and then drives the records through RunDense1,
// which skips the per-run arity check and argument-slice traffic.
func (r *Runner) BeginBatch1() error {
	if len(r.c.prog.Params) != 1 {
		return fmt.Errorf("lang: program %s expects %d arguments, got 1",
			r.c.prog.Name, len(r.c.prog.Params))
	}
	return nil
}

// RunDense1 is the batch entry point for single-parameter programs: the
// generation-counter reset and slot write happen inline with no argument
// slice and no arity check (BeginBatch1 performed it for the whole batch).
// Behaviour is otherwise identical to RunDense(args) with len(args) == 1.
func (r *Runner) RunDense1(arg int64) (int64, error) {
	r.gen++
	r.cost = 0
	r.steps = 0
	r.slots[0] = arg
	r.slotGen[0] = r.gen
	if err := r.exec(); err != nil {
		return 0, err
	}
	return r.cost, nil
}

// NoteAt reports the value broadcast on dense note slot k this run, and
// whether it was broadcast at all.
func (r *Runner) NoteAt(k int) (value, notified bool) {
	if k < 0 || k >= len(r.noteGen) || r.noteGen[k] != r.gen {
		return false, false
	}
	return r.noteVal[k], true
}

// NoteCostAt returns the cost stamp of dense note slot k this run (0 when
// not broadcast).
func (r *Runner) NoteCostAt(k int) int64 {
	if k < 0 || k >= len(r.noteGen) || r.noteGen[k] != r.gen {
		return 0
	}
	return r.noteCost[k]
}

// SlotAt returns the value of frame slot s after the last run, and whether
// the run bound it. Combined with Compiled.SlotIndex it lets the
// aggregation engine read updated accumulator values out of a fold run
// without allocating: parameters are always bound, so accumulator slots
// resolve unconditionally.
func (r *Runner) SlotAt(s int) (int64, bool) {
	if s < 0 || s >= len(r.slots) || r.slotGen[s] != r.gen {
		return 0, false
	}
	return r.slots[s], true
}

// Note reports the value broadcast for notification id this run; the
// id→slot lookup makes it the convenience form of NoteAt.
func (r *Runner) Note(id int) (value, notified bool) {
	k, ok := r.c.noteOf[id]
	if !ok {
		return false, false
	}
	return r.NoteAt(k)
}

// exec runs the code once, accumulating the run's cost in r.cost. The
// frame, cost and step count stay in Runner fields rather than locals: Go's
// calling convention saves no registers across the library calls, and
// locals that live across them measured slower than the field accesses.
// Only vLoad checks that the slot it reads is bound this run: every fused
// op reads slots Compile proved bound on every path (Compiled.assigned).
func (r *Runner) exec() error {
	c := r.c
	code := r.code
	regs := r.regs
	chain := c.chain
	gen := r.gen
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		r.cost += in.w
		switch in.op {
		case vIntConst, vBoolConst:
			regs[in.a] = in.imm
		case vLoad:
			if r.slotGen[in.b] != gen {
				return fmt.Errorf("lang: unbound variable %q", c.nameOf[in.b])
			}
			regs[in.a] = r.slots[in.b]
		case vStore:
			r.slots[in.a] = regs[in.b]
			r.slotGen[in.a] = gen
		case vAdd:
			regs[in.a] = regs[in.b] + regs[in.c]
		case vSub:
			regs[in.a] = regs[in.b] - regs[in.c]
		case vMul:
			regs[in.a] = regs[in.b] * regs[in.c]
		case vLt:
			regs[in.a] = b2i(regs[in.b] < regs[in.c])
		case vEq:
			regs[in.a] = b2i(regs[in.b] == regs[in.c])
		case vLe:
			regs[in.a] = b2i(regs[in.b] <= regs[in.c])
		case vNot:
			regs[in.a] = regs[in.b] ^ 1
		case vAnd:
			regs[in.a] = regs[in.b] & regs[in.c]
		case vOr:
			regs[in.a] = regs[in.b] | regs[in.c]
		case vCall:
			lo := int(in.c)
			v, err := r.callFn[in.b](regs[lo : lo+int(in.imm)])
			if err != nil {
				return err
			}
			regs[in.a] = v
		case vCallS:
			lo := int(in.c)
			v, err := r.callFn[in.b](regs[lo : lo+int(in.imm)])
			if err != nil {
				return err
			}
			r.slots[in.a] = v
			r.slotGen[in.a] = gen
		case vCallSV:
			r.argBuf[0] = r.slots[in.c]
			v, err := r.callFn[in.b](r.argBuf[:1])
			if err != nil {
				return err
			}
			r.slots[in.a] = v
			r.slotGen[in.a] = gen
		case vCallSVI:
			r.argBuf[0] = r.slots[in.c]
			r.argBuf[1] = in.imm
			v, err := r.callFn[in.b](r.argBuf[:2])
			if err != nil {
				return err
			}
			r.slots[in.a] = v
			r.slotGen[in.a] = gen
		case vCallSVV:
			r.argBuf[0] = r.slots[in.c]
			r.argBuf[1] = r.slots[in.imm]
			v, err := r.callFn[in.b](r.argBuf[:2])
			if err != nil {
				return err
			}
			r.slots[in.a] = v
			r.slotGen[in.a] = gen
		case vAddSI:
			r.slots[in.a] = r.slots[in.b] + in.imm
			r.slotGen[in.a] = gen
		case vAddSS:
			r.slots[in.a] = r.slots[in.b] + r.slots[in.c]
			r.slotGen[in.a] = gen
		case vMAddSS:
			r.slots[in.a] = r.slots[in.b] + r.slots[in.c]*r.slots[in.imm]
			r.slotGen[in.a] = gen
		case vMaxLt:
			// The source is never a destination; a repeated destination
			// reads the value an earlier element moved into it.
			s, le := r.slots[in.a], in.imm != 0
			var moved int64
			for _, d := range chain[in.b : in.b+in.c] {
				if v := r.slots[d]; v < s || (v == s && le) {
					r.slots[d] = s
					moved++
				}
			}
			r.cost += moved * r.moveCost
		case vMinLt:
			s, le := r.slots[in.a], in.imm != 0
			var moved int64
			for _, d := range chain[in.b : in.b+in.c] {
				if v := r.slots[d]; s < v || (s == v && le) {
					r.slots[d] = s
					moved++
				}
			}
			r.cost += moved * r.moveCost
		case vJmp:
			pc += int(in.b) - 1
		case vJmpIfFalse:
			if regs[in.a] == 0 {
				pc += int(in.b) - 1
			}
		case vJFLtVI:
			if r.slots[in.a] >= in.imm {
				pc += int(in.b) - 1
			}
		case vJFLtIV:
			if in.imm >= r.slots[in.a] {
				pc += int(in.b) - 1
			}
		case vJFLtVV:
			if r.slots[in.a] >= r.slots[in.c] {
				pc += int(in.b) - 1
			}
		case vJFLeVI:
			if r.slots[in.a] > in.imm {
				pc += int(in.b) - 1
			}
		case vJFLeIV:
			if in.imm > r.slots[in.a] {
				pc += int(in.b) - 1
			}
		case vJFEqVI:
			if r.slots[in.a] != in.imm {
				pc += int(in.b) - 1
			}
		case vNotify:
			k := in.a
			if r.noteGen[k] == gen {
				return fmt.Errorf("lang: duplicate notification for id %d", c.noteIDs[k])
			}
			r.noteGen[k] = gen
			r.noteVal[k] = in.b != 0
			r.noteCost[k] = r.cost
		case vNtCmp:
			// b is the note's truth table over v < imm, v = imm and
			// v > imm; a switch on it measured faster than extracting the
			// bit with a variable shift.
			v := r.slots[in.c]
			var b bool
			switch in.b {
			case 0b001:
				b = v < in.imm
			case 0b010:
				b = v == in.imm
			case 0b011:
				b = v <= in.imm
			case 0b100:
				b = v > in.imm
			case 0b101:
				b = v != in.imm
			default: // 0b110
				b = v >= in.imm
			}
			k := in.a
			if r.noteGen[k] == gen {
				return fmt.Errorf("lang: duplicate notification for id %d", c.noteIDs[k])
			}
			r.noteGen[k] = gen
			r.noteVal[k] = b
			r.noteCost[k] = r.cost
		case vStep:
			r.steps++
			if r.MaxSteps > 0 && r.steps > r.MaxSteps {
				return fmt.Errorf("lang: loop exceeded %d iterations", r.MaxSteps)
			}
		}
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
