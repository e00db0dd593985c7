package logic

import "encoding/binary"

// This file implements the hash-consing arena for terms and formulas: an
// Interner canonicalises structurally equal trees into a single node and
// hands out dense NodeIDs in first-construction order. Downstream layers
// (sym, smt, consolidate, registry) use NodeIDs — integer compares and
// precomputed per-node attributes — where they previously rendered trees
// to text and keyed maps by the resulting strings.
//
// Determinism contract, relied on across the system:
//
//   - IDs are assigned densely in first-construction order, so two
//     interners fed identical construction sequences assign identical IDs.
//     Registry incremental rebuilds stay byte-identical to from-scratch
//     consolidation because every ID-derived decision is a function of the
//     construction sequence, which is itself a function of the input.
//   - A node's 64-bit structural hash is computed from its kind, payload
//     and the hashes (not the IDs) of its children, so hashes agree across
//     interner instances: two workers interning the same formula into
//     private interners produce the same hash, which is what lets the
//     shared smt.Cache shard and probe by hash without text keys.
//   - Hash collisions are resolved with full structural verification:
//     hash-equal but structurally distinct nodes always get distinct IDs.
//
// Storage is deliberately GC-transparent. Dozens of arenas are live at
// once (one per solver, per incremental context, per symbolic-execution
// context family), and an early draft that kept a string, child slice and
// attribute slices in every node made the collector trace hundreds of
// thousands of small objects on every cycle — the mark-assist tax on the
// theory solver's allocations cost more than the text keys the arena
// removed. So a node is a fixed-size pointer-free record: names are
// indices into side tables, and children/variables/call keys are (offset,
// length) spans into three shared pools. The hash-cons index is an
// open-addressed table of node IDs rather than a Go map. The only
// pointer-bearing structures are the name tables, which grow with the
// number of distinct identifiers, not with the number of nodes.
//
// An Interner is not safe for concurrent use; like smt.Solver, create one
// per goroutine.

// NodeID identifies an interned term or formula node. IDs are dense,
// starting at 0, in first-construction order.
type NodeID int32

// NoNode is the absent-node sentinel.
const NoNode NodeID = -1

// VarID identifies an interned variable name, dense in first-occurrence
// order.
type VarID int32

// CallKey identifies an interned call-instance key (the canonicalisation
// CallInstanceKey computes, as an integer). Keys unify via
// Interner.KeysUnify with exactly the string semantics of KeysUnify.
type CallKey int32

// NodeKind discriminates interned nodes.
type NodeKind uint8

// Node kinds. Term kinds first, then formula kinds.
const (
	KConst NodeKind = iota
	KVar
	KApp
	KBin
	KTrue
	KFalse
	KAtom
	KNot
	KAnd
	KOr
)

// IsTerm reports whether the kind is a term kind.
func (k NodeKind) IsTerm() bool { return k <= KBin }

// span32 addresses a run in one of the arena's shared pools.
type span32 struct{ off, n int32 }

type node struct {
	kind NodeKind
	// op is the TermOp of a KBin or the Pred of a KAtom.
	op uint8
	// nameID indexes varName (KVar) or funcName (KApp); -1 otherwise.
	nameID int32
	// val is the value of a KConst.
	val  int64
	hash uint64
	// kids spans kidsArr.
	kids span32
	// Precomputed attributes, sorted ascending, spanning varsArr/callsArr.
	// linkVars are the free variables occurring outside
	// uninterpreted-call arguments (the set sym's cone-of-influence
	// filter links on); calls are the call-instance keys of every
	// application in the subtree.
	vars     span32
	linkVars span32
	calls    span32
	// ownKey is the call-instance key of a KApp node; NoCallKey otherwise.
	ownKey CallKey
}

// NoCallKey is the absent-call-key sentinel.
const NoCallKey CallKey = -1

type ckArg struct {
	isConst bool
	val     int64
}

type callKeyRec struct {
	fn   string
	star bool
	args []ckArg
	hash uint64
}

// Interner is the hash-consing arena. The zero value is not usable;
// construct with NewInterner.
type Interner struct {
	nodes []node
	// tab is the open-addressed hash-cons index: a power-of-two table of
	// node IDs (-1 = empty), probed linearly, resolving collisions by
	// full structural comparison against the candidate node.
	tab  []int32
	mask uint64

	varID   map[string]VarID
	varName []string
	varHash []uint64

	funcID   map[string]int32
	funcName []string
	funcHash []uint64

	keys       []callKeyRec
	keyBuckets map[uint64][]CallKey

	// Shared pools the per-node spans point into. Appending may move the
	// backing array; previously handed-out views stay valid on the old
	// one, and pool contents are immutable once written.
	kidsArr  []NodeID
	varsArr  []VarID
	callsArr []CallKey

	// Scratch, so dedup hits and attribute folds allocate nothing.
	kidsBuf  []NodeID
	varBuf   []VarID
	varBuf2  []VarID
	callBuf  []CallKey
	callBuf2 []CallKey
}

const initialTab = 1 << 10

// NewInterner returns an empty arena.
func NewInterner() *Interner {
	in := &Interner{
		tab:        make([]int32, initialTab),
		mask:       initialTab - 1,
		varID:      map[string]VarID{},
		funcID:     map[string]int32{},
		keyBuckets: map[uint64][]CallKey{},
	}
	for i := range in.tab {
		in.tab[i] = -1
	}
	return in
}

// Len is the number of interned nodes.
func (in *Interner) Len() int { return len(in.nodes) }

// NumVars is the number of distinct variable names seen.
func (in *Interner) NumVars() int { return len(in.varName) }

// ---- hashing ----

// mix64 is the splitmix64 finalizer: a fixed, process-independent mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashCombine(h, x uint64) uint64 {
	return mix64(h ^ (x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// hashString is 64-bit FNV-1a, deterministic across processes (unlike the
// runtime's seeded map hash).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ---- variables and call keys ----

func (in *Interner) internVarName(name string) VarID {
	if v, ok := in.varID[name]; ok {
		return v
	}
	v := VarID(len(in.varName))
	in.varID[name] = v
	in.varName = append(in.varName, name)
	in.varHash = append(in.varHash, hashString(name))
	return v
}

func (in *Interner) internFuncName(name string) int32 {
	if f, ok := in.funcID[name]; ok {
		return f
	}
	f := int32(len(in.funcName))
	in.funcID[name] = f
	in.funcName = append(in.funcName, name)
	in.funcHash = append(in.funcHash, hashString(name))
	return f
}

// VarName returns the name of an interned variable.
func (in *Interner) VarName(v VarID) string { return in.varName[v] }

func (in *Interner) internCallKey(fn string, star bool, args []ckArg) CallKey {
	h := hashCombine(hashString(fn), uint64(len(args)))
	if star {
		h = hashCombine(h, 1)
	}
	for _, a := range args {
		if a.isConst {
			h = hashCombine(h, uint64(a.val)^2)
		} else {
			h = hashCombine(h, 3)
		}
	}
	for _, k := range in.keyBuckets[h] {
		r := &in.keys[k]
		if r.fn != fn || r.star != star || len(r.args) != len(args) {
			continue
		}
		same := true
		for i := range args {
			if r.args[i] != args[i] {
				same = false
				break
			}
		}
		if same {
			return k
		}
	}
	k := CallKey(len(in.keys))
	in.keys = append(in.keys, callKeyRec{fn: fn, star: star, args: append([]ckArg(nil), args...), hash: h})
	in.keyBuckets[h] = append(in.keyBuckets[h], k)
	return k
}

// KeysUnify reports whether two interned call keys may denote equal
// applications, with exactly the semantics of the string KeysUnify: same
// function, and argument-wise either equal constants or a variable
// wildcard on either side; the whole-key wildcard (compound argument)
// unifies with every key of its function.
func (in *Interner) KeysUnify(a, b CallKey) bool {
	if a == b {
		return true
	}
	ra, rb := &in.keys[a], &in.keys[b]
	if ra.fn != rb.fn {
		return false
	}
	if ra.star || rb.star {
		return true
	}
	if len(ra.args) != len(rb.args) {
		// Parity quirk with the string KeysUnify: splitting "fn()" on commas
		// yields one empty argument slot, so a nullary key unifies with a
		// unary variable key (empty vs "?") but not a unary constant key.
		if len(ra.args) == 0 && len(rb.args) == 1 {
			return !rb.args[0].isConst
		}
		if len(rb.args) == 0 && len(ra.args) == 1 {
			return !ra.args[0].isConst
		}
		return false
	}
	for i := range ra.args {
		x, y := ra.args[i], rb.args[i]
		if x.isConst && y.isConst && x.val != y.val {
			return false
		}
	}
	return true
}

// CallKeyString renders an interned call key in CallInstanceKey's format
// (tests assert the bijection; not used on hot paths).
func (in *Interner) CallKeyString(k CallKey) string {
	r := &in.keys[k]
	if r.star {
		return r.fn + "(*"
	}
	s := r.fn + "("
	for i, a := range r.args {
		if i > 0 {
			s += ","
		}
		if a.isConst {
			s += TConst{Value: a.val}.String()
		} else {
			s += "?"
		}
	}
	return s + ")"
}

// ---- pool views and sorted-set folds ----

func (in *Interner) varView(s span32) []VarID    { return in.varsArr[s.off : s.off+s.n] }
func (in *Interner) callView(s span32) []CallKey { return in.callsArr[s.off : s.off+s.n] }
func (in *Interner) kidsView(s span32) []NodeID  { return in.kidsArr[s.off : s.off+s.n] }

func unionVarsInto(dst, a, b []VarID) []VarID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

func unionCallsInto(dst, a, b []CallKey) []CallKey {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// foldVarSpans unions the kids' vars (or linkVars) spans. The union is
// accumulated in scratch; a kid's span is reused whenever the union did
// not outgrow it (the union contains every kid span, so equal length
// means equal content), and only a genuinely new set is committed to the
// pool.
func (in *Interner) foldVarSpans(kids []NodeID, link bool) span32 {
	var best, curSpan span32
	started, materialized := false, false
	cur, buf2 := in.varBuf[:0], in.varBuf2[:0]
	for _, k := range kids {
		nd := &in.nodes[k]
		s := nd.vars
		if link {
			s = nd.linkVars
		}
		if s.n == 0 {
			continue
		}
		if s.n > best.n {
			best = s
		}
		switch {
		case !started:
			curSpan, started = s, true
		case !materialized:
			cur = unionVarsInto(cur[:0], in.varView(curSpan), in.varView(s))
			materialized = true
		default:
			buf2 = unionVarsInto(buf2[:0], cur, in.varView(s))
			cur, buf2 = buf2, cur
		}
	}
	in.varBuf, in.varBuf2 = cur, buf2
	if !started {
		return span32{}
	}
	if !materialized {
		return curSpan
	}
	if int32(len(cur)) == best.n {
		return best
	}
	off := int32(len(in.varsArr))
	in.varsArr = append(in.varsArr, cur...)
	return span32{off: off, n: int32(len(cur))}
}

// foldCallSpans unions the kids' calls spans, plus extra when it is not
// NoCallKey (the constructing KApp's own key). Same reuse rule as
// foldVarSpans.
func (in *Interner) foldCallSpans(kids []NodeID, extra CallKey) span32 {
	var best, curSpan span32
	started, materialized := false, false
	cur, buf2 := in.callBuf[:0], in.callBuf2[:0]
	for _, k := range kids {
		s := in.nodes[k].calls
		if s.n == 0 {
			continue
		}
		if s.n > best.n {
			best = s
		}
		switch {
		case !started:
			curSpan, started = s, true
		case !materialized:
			cur = unionCallsInto(cur[:0], in.callView(curSpan), in.callView(s))
			materialized = true
		default:
			buf2 = unionCallsInto(buf2[:0], cur, in.callView(s))
			cur, buf2 = buf2, cur
		}
	}
	if extra != NoCallKey {
		one := [1]CallKey{extra}
		switch {
		case !started:
			curSpan, started = span32{}, true
			cur = append(cur[:0], extra)
			materialized = true
		case !materialized:
			cur = unionCallsInto(cur[:0], in.callView(curSpan), one[:])
			materialized = true
		default:
			buf2 = unionCallsInto(buf2[:0], cur, one[:])
			cur, buf2 = buf2, cur
		}
	}
	in.callBuf, in.callBuf2 = cur, buf2
	if !started {
		return span32{}
	}
	if !materialized {
		return curSpan
	}
	if int32(len(cur)) == best.n {
		return best
	}
	off := int32(len(in.callsArr))
	in.callsArr = append(in.callsArr, cur...)
	return span32{off: off, n: int32(len(cur))}
}

// ---- node interning core ----

func (in *Interner) lookup(h uint64, kind NodeKind, op uint8, val int64, nameID int32, kids []NodeID) (NodeID, bool) {
	for i := h & in.mask; ; i = (i + 1) & in.mask {
		t := in.tab[i]
		if t < 0 {
			return NoNode, false
		}
		nd := &in.nodes[t]
		if nd.hash != h || nd.kind != kind || nd.op != op || nd.val != val ||
			nd.nameID != nameID || int(nd.kids.n) != len(kids) {
			continue
		}
		// Children compare by ID: hash-consing makes structural equality
		// of subtrees an integer compare.
		same := true
		kk := in.kidsView(nd.kids)
		for i2 := range kids {
			if kk[i2] != kids[i2] {
				same = false
				break
			}
		}
		if same {
			return NodeID(t), true
		}
	}
}

func (in *Interner) insert(h uint64, nd node, kids []NodeID) NodeID {
	nd.hash = h
	if len(kids) > 0 {
		off := int32(len(in.kidsArr))
		in.kidsArr = append(in.kidsArr, kids...)
		nd.kids = span32{off: off, n: int32(len(kids))}
	}
	id := NodeID(len(in.nodes))
	in.nodes = append(in.nodes, nd)
	in.place(h, int32(id))
	if uint64(len(in.nodes))*4 > uint64(len(in.tab))*3 {
		in.growTab()
	}
	return id
}

func (in *Interner) place(h uint64, id int32) {
	i := h & in.mask
	for in.tab[i] >= 0 {
		i = (i + 1) & in.mask
	}
	in.tab[i] = id
}

func (in *Interner) growTab() {
	in.tab = make([]int32, len(in.tab)*2)
	for i := range in.tab {
		in.tab[i] = -1
	}
	in.mask = uint64(len(in.tab) - 1)
	for id := range in.nodes {
		in.place(in.nodes[id].hash, int32(id))
	}
}

func nodeHash(kind NodeKind, op uint8, val int64, nameHash uint64, in *Interner, kids []NodeID) uint64 {
	h := mix64(uint64(kind)<<8 | uint64(op))
	h = hashCombine(h, uint64(val))
	h = hashCombine(h, nameHash)
	for _, k := range kids {
		h = hashCombine(h, in.nodes[k].hash)
	}
	return h
}

// ---- term interning ----

// InternTerm canonicalises t into the arena and returns its NodeID.
// Structurally equal terms always return the same ID.
func (in *Interner) InternTerm(t Term) NodeID {
	switch x := t.(type) {
	case TConst:
		h := nodeHash(KConst, 0, x.Value, 0, in, nil)
		if id, ok := in.lookup(h, KConst, 0, x.Value, -1, nil); ok {
			return id
		}
		return in.insert(h, node{kind: KConst, val: x.Value, nameID: -1, ownKey: NoCallKey}, nil)
	case TVar:
		v := in.internVarName(x.Name)
		h := nodeHash(KVar, 0, 0, in.varHash[v], in, nil)
		if id, ok := in.lookup(h, KVar, 0, 0, int32(v), nil); ok {
			return id
		}
		// The variable's singleton set, shared by vars and linkVars.
		off := int32(len(in.varsArr))
		in.varsArr = append(in.varsArr, v)
		vs := span32{off: off, n: 1}
		return in.insert(h, node{kind: KVar, nameID: int32(v), vars: vs, linkVars: vs, ownKey: NoCallKey}, nil)
	case TApp:
		base := len(in.kidsBuf)
		for _, a := range x.Args {
			in.kidsBuf = append(in.kidsBuf, in.InternTerm(a))
		}
		kids := in.kidsBuf[base:]
		id := in.internApp(x, kids)
		in.kidsBuf = in.kidsBuf[:base]
		return id
	case TBin:
		base := len(in.kidsBuf)
		in.kidsBuf = append(in.kidsBuf, in.InternTerm(x.L))
		in.kidsBuf = append(in.kidsBuf, in.InternTerm(x.R))
		kids := in.kidsBuf[base:]
		h := nodeHash(KBin, uint8(x.Op), 0, 0, in, kids)
		id, ok := in.lookup(h, KBin, uint8(x.Op), 0, -1, kids)
		if !ok {
			nd := node{kind: KBin, op: uint8(x.Op), nameID: -1, ownKey: NoCallKey}
			nd.vars = in.foldVarSpans(kids, false)
			nd.linkVars = in.foldVarSpans(kids, true)
			nd.calls = in.foldCallSpans(kids, NoCallKey)
			id = in.insert(h, nd, kids)
		}
		in.kidsBuf = in.kidsBuf[:base]
		return id
	}
	panic("logic: unknown term")
}

func (in *Interner) internApp(x TApp, kids []NodeID) NodeID {
	fn := in.internFuncName(x.Func)
	h := nodeHash(KApp, 0, 0, in.funcHash[fn], in, kids)
	if id, ok := in.lookup(h, KApp, 0, 0, fn, kids); ok {
		return id
	}
	nd := node{kind: KApp, nameID: fn}
	// The call-instance key derives from the argument node kinds, exactly
	// as CallInstanceKey derives it from the argument terms: constants
	// discriminate, variables wildcard, compound arguments collapse the
	// whole key.
	var args []ckArg
	star := false
	for _, k := range kids {
		switch a := &in.nodes[k]; a.kind {
		case KConst:
			args = append(args, ckArg{isConst: true, val: a.val})
		case KVar:
			args = append(args, ckArg{})
		default:
			star = true
		}
	}
	if star {
		args = nil
	}
	nd.ownKey = in.internCallKey(x.Func, star, args)
	nd.vars = in.foldVarSpans(kids, false)
	// Argument occurrences do not link (linkVars stays empty); only the
	// call key relates this subtree to others.
	nd.calls = in.foldCallSpans(kids, nd.ownKey)
	return in.insert(h, nd, kids)
}

// ---- formula interning ----

// InternFormula canonicalises f into the arena and returns its NodeID.
// Structurally equal formulas always return the same ID.
func (in *Interner) InternFormula(f Formula) NodeID {
	switch x := f.(type) {
	case FTrue:
		h := nodeHash(KTrue, 0, 0, 0, in, nil)
		if id, ok := in.lookup(h, KTrue, 0, 0, -1, nil); ok {
			return id
		}
		return in.insert(h, node{kind: KTrue, nameID: -1, ownKey: NoCallKey}, nil)
	case FFalse:
		h := nodeHash(KFalse, 0, 0, 0, in, nil)
		if id, ok := in.lookup(h, KFalse, 0, 0, -1, nil); ok {
			return id
		}
		return in.insert(h, node{kind: KFalse, nameID: -1, ownKey: NoCallKey}, nil)
	case FAtom:
		base := len(in.kidsBuf)
		in.kidsBuf = append(in.kidsBuf, in.InternTerm(x.L))
		in.kidsBuf = append(in.kidsBuf, in.InternTerm(x.R))
		kids := in.kidsBuf[base:]
		id := in.internComposite(KAtom, uint8(x.Pred), kids)
		in.kidsBuf = in.kidsBuf[:base]
		return id
	case FNot:
		base := len(in.kidsBuf)
		in.kidsBuf = append(in.kidsBuf, in.InternFormula(x.F))
		kids := in.kidsBuf[base:]
		id := in.internComposite(KNot, 0, kids)
		in.kidsBuf = in.kidsBuf[:base]
		return id
	case FAnd:
		base := len(in.kidsBuf)
		for _, g := range x.Fs {
			in.kidsBuf = append(in.kidsBuf, in.InternFormula(g))
		}
		kids := in.kidsBuf[base:]
		id := in.internComposite(KAnd, 0, kids)
		in.kidsBuf = in.kidsBuf[:base]
		return id
	case FOr:
		base := len(in.kidsBuf)
		for _, g := range x.Fs {
			in.kidsBuf = append(in.kidsBuf, in.InternFormula(g))
		}
		kids := in.kidsBuf[base:]
		id := in.internComposite(KOr, 0, kids)
		in.kidsBuf = in.kidsBuf[:base]
		return id
	}
	panic("logic: unknown formula")
}

func (in *Interner) internComposite(kind NodeKind, op uint8, kids []NodeID) NodeID {
	h := nodeHash(kind, op, 0, 0, in, kids)
	if id, ok := in.lookup(h, kind, op, 0, -1, kids); ok {
		return id
	}
	nd := node{kind: kind, op: op, nameID: -1, ownKey: NoCallKey}
	nd.vars = in.foldVarSpans(kids, false)
	nd.linkVars = in.foldVarSpans(kids, true)
	nd.calls = in.foldCallSpans(kids, NoCallKey)
	return in.insert(h, nd, kids)
}

// MkAnd interns the conjunction node over already-interned formula kids,
// with the arity collapses of the And constructor: no kids is ⊤, one kid
// is that kid. Kids must already be in the shape And leaves them in (no
// constants, no nested conjunctions) — the caller guarantees this, as the
// smt.Context piece invariants do. The kids slice is not retained.
func (in *Interner) MkAnd(kids []NodeID) NodeID {
	switch len(kids) {
	case 0:
		return in.InternFormula(FTrue{})
	case 1:
		return kids[0]
	}
	return in.internComposite(KAnd, 0, kids)
}

// ---- accessors ----

// Hash returns the node's structural hash (stable across interners and
// processes).
func (in *Interner) Hash(id NodeID) uint64 { return in.nodes[id].hash }

// Kind returns the node's kind.
func (in *Interner) Kind(id NodeID) NodeKind { return in.nodes[id].kind }

// Kids returns the node's children (read-only).
func (in *Interner) Kids(id NodeID) []NodeID { return in.kidsView(in.nodes[id].kids) }

// BinOp returns the operator of a KBin node.
func (in *Interner) BinOp(id NodeID) TermOp { return TermOp(in.nodes[id].op) }

// PredOf returns the predicate of a KAtom node.
func (in *Interner) PredOf(id NodeID) Pred { return Pred(in.nodes[id].op) }

// ConstVal returns the value of a KConst node.
func (in *Interner) ConstVal(id NodeID) int64 { return in.nodes[id].val }

// Name returns the variable name of a KVar or function name of a KApp.
func (in *Interner) Name(id NodeID) string {
	nd := &in.nodes[id]
	switch nd.kind {
	case KVar:
		return in.varName[nd.nameID]
	case KApp:
		return in.funcName[nd.nameID]
	}
	return ""
}

// TermOf rebuilds the tree of a term node (nil for formula nodes). Nodes
// do not retain the trees they were constructed from — keeping every
// source AST alive for the arena's lifetime made the GC scan the whole
// construction history on every cycle — so this allocates a fresh,
// structurally equal tree per call. Cold paths only.
func (in *Interner) TermOf(id NodeID) Term {
	if !in.nodes[id].kind.IsTerm() {
		return nil
	}
	return in.buildTerm(id)
}

func (in *Interner) buildTerm(id NodeID) Term {
	nd := &in.nodes[id]
	switch nd.kind {
	case KConst:
		return TConst{Value: nd.val}
	case KVar:
		return TVar{Name: in.varName[nd.nameID]}
	case KApp:
		kids := in.kidsView(nd.kids)
		args := make([]Term, len(kids))
		for i, k := range kids {
			args[i] = in.buildTerm(k)
		}
		return TApp{Func: in.funcName[nd.nameID], Args: args}
	case KBin:
		kids := in.kidsView(nd.kids)
		return TBin{Op: TermOp(nd.op), L: in.buildTerm(kids[0]), R: in.buildTerm(kids[1])}
	}
	panic("logic: buildTerm on formula node")
}

// FormulaOf rebuilds the tree of a formula node (nil for term nodes).
// Like TermOf, it allocates per call; cold paths only.
func (in *Interner) FormulaOf(id NodeID) Formula {
	if in.nodes[id].kind.IsTerm() {
		return nil
	}
	return in.buildFormula(id)
}

func (in *Interner) buildFormula(id NodeID) Formula {
	nd := &in.nodes[id]
	switch nd.kind {
	case KTrue:
		return FTrue{}
	case KFalse:
		return FFalse{}
	case KAtom:
		kids := in.kidsView(nd.kids)
		return FAtom{Pred: Pred(nd.op), L: in.buildTerm(kids[0]), R: in.buildTerm(kids[1])}
	case KNot:
		return FNot{F: in.buildFormula(in.kidsView(nd.kids)[0])}
	case KAnd:
		kids := in.kidsView(nd.kids)
		fs := make([]Formula, len(kids))
		for i, k := range kids {
			fs[i] = in.buildFormula(k)
		}
		return FAnd{Fs: fs}
	case KOr:
		kids := in.kidsView(nd.kids)
		fs := make([]Formula, len(kids))
		for i, k := range kids {
			fs[i] = in.buildFormula(k)
		}
		return FOr{Fs: fs}
	}
	panic("logic: buildFormula on term node")
}

// VarsOf returns the node's free variables, sorted (read-only).
func (in *Interner) VarsOf(id NodeID) []VarID { return in.varView(in.nodes[id].vars) }

// LinkVarsOf returns the node's free variables occurring outside
// uninterpreted-call arguments, sorted (read-only).
func (in *Interner) LinkVarsOf(id NodeID) []VarID { return in.varView(in.nodes[id].linkVars) }

// CallKeysOf returns the call-instance keys of every application in the
// node's subtree, sorted (read-only).
func (in *Interner) CallKeysOf(id NodeID) []CallKey { return in.callView(in.nodes[id].calls) }

// AppCallKey returns a KApp node's own call-instance key.
func (in *Interner) AppCallKey(id NodeID) (CallKey, bool) {
	k := in.nodes[id].ownKey
	return k, k != NoCallKey
}

// ---- canonical byte encoding ----
//
// The shared smt.Cache keys entries by structural hash and verifies
// collisions against a canonical encoding of the formula rather than a
// retained tree: thousands of cached ASTs of small boxed nodes made the
// collector trace the whole cache on every cycle. The encoding is a flat
// preorder byte string — interner-independent, pointer-free — and
// verification streams the probing interner's DAG against it without
// materialising anything.

// AppendEncoding appends the canonical encoding of the node's tree to dst
// and returns the extended slice. Two nodes (in any interners) have equal
// encodings exactly when they are structurally equal.
func (in *Interner) AppendEncoding(dst []byte, id NodeID) []byte {
	nd := &in.nodes[id]
	dst = append(dst, byte(nd.kind), nd.op)
	switch nd.kind {
	case KConst:
		dst = binary.AppendVarint(dst, nd.val)
	case KVar:
		name := in.varName[nd.nameID]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	case KApp:
		name := in.funcName[nd.nameID]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	kids := in.kidsView(nd.kids)
	dst = binary.AppendUvarint(dst, uint64(len(kids)))
	for _, k := range kids {
		dst = in.AppendEncoding(dst, k)
	}
	return dst
}

// EncodingMatches reports whether enc is exactly the canonical encoding
// of the node's tree. It allocates nothing: the comparison walks the DAG
// and the bytes in lockstep and bails at the first divergence.
func (in *Interner) EncodingMatches(id NodeID, enc []byte) bool {
	pos, ok := in.matchNode(id, enc, 0)
	return ok && pos == len(enc)
}

func (in *Interner) matchNode(id NodeID, enc []byte, pos int) (int, bool) {
	nd := &in.nodes[id]
	if pos+2 > len(enc) || enc[pos] != byte(nd.kind) || enc[pos+1] != nd.op {
		return 0, false
	}
	pos += 2
	switch nd.kind {
	case KConst:
		v, n := binary.Varint(enc[pos:])
		if n <= 0 || v != nd.val {
			return 0, false
		}
		pos += n
	case KVar, KApp:
		name := in.varName
		if nd.kind == KApp {
			name = in.funcName
		}
		s := name[nd.nameID]
		l, n := binary.Uvarint(enc[pos:])
		if n <= 0 || l != uint64(len(s)) {
			return 0, false
		}
		pos += n
		if pos+len(s) > len(enc) || string(enc[pos:pos+len(s)]) != s {
			return 0, false
		}
		pos += len(s)
	}
	kids := in.kidsView(nd.kids)
	cnt, n := binary.Uvarint(enc[pos:])
	if n <= 0 || cnt != uint64(len(kids)) {
		return 0, false
	}
	pos += n
	for _, k := range kids {
		var ok bool
		pos, ok = in.matchNode(k, enc, pos)
		if !ok {
			return 0, false
		}
	}
	return pos, true
}

// Equal reports structural equality of formulas (the formula counterpart
// of EqualTerm). Two formulas are equal exactly when an interner would
// assign them the same NodeID.
func Equal(a, b Formula) bool {
	switch x := a.(type) {
	case FTrue:
		_, ok := b.(FTrue)
		return ok
	case FFalse:
		_, ok := b.(FFalse)
		return ok
	case FAtom:
		y, ok := b.(FAtom)
		return ok && x.Pred == y.Pred && EqualTerm(x.L, y.L) && EqualTerm(x.R, y.R)
	case FNot:
		y, ok := b.(FNot)
		return ok && Equal(x.F, y.F)
	case FAnd:
		y, ok := b.(FAnd)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !Equal(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	case FOr:
		y, ok := b.(FOr)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !Equal(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	}
	return false
}
