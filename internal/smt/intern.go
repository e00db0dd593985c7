// Package smt implements a from-scratch SMT solver for the quantifier-free
// combined theory of linear integer arithmetic and uninterpreted functions
// (QF_UFLIA), the theory in which the consolidation calculus discharges its
// validity queries Ψ ⊨ φ (Section 4). The original system used Z3; this
// solver substitutes for it with the same API surface the calculus needs:
// satisfiability checking and entailment.
//
// Architecture: formulas are reduced to CNF over a boolean abstraction of
// their atoms (Tseitin encoding), a DPLL search with unit propagation and
// theory-conflict blocking clauses enumerates boolean models, and each
// candidate model is checked by a combined theory solver — congruence
// closure for uninterpreted functions and a rational simplex with
// branch-and-bound for integer arithmetic, exchanging equalities in the
// style of Nelson–Oppen.
//
// The solver is deliberately conservative: Unknown results (resource caps,
// incomplete nonlinear reasoning) are reported as "not entailed", which can
// only cause the consolidator to miss an optimisation, never to produce an
// unsound one.
package smt

import (
	"slices"

	"consolidation/internal/logic"
)

// interner assigns node identifiers to terms so that congruence closure and
// the arithmetic solver can share a view of the term DAG. Nonlinear
// products (both factors non-constant) are canonicalised into applications
// of the synthetic symbol "$mul" with sorted arguments, making them
// uninterpreted-but-congruent: x*y and y*x share a node.
//
// Nodes are deduplicated structurally — constants by value, variables by
// name, applications by (function, child ids) through hash buckets — never
// by rendering keys to text. Inputs arrive as logic.NodeIDs into a source
// logic.Interner (the hash-consed term DAG), so repeated subterms cost one
// memo lookup instead of a re-walk. ID assignment order is a function of
// the literal sequence alone, which the Nelson–Oppen probe order (and
// therefore verdict determinism) depends on.
//
// An interner is part of a theoryWorkspace: reset empties it for the next
// conjunction and keeps the maps' buckets, the node slice and the arenas
// that node children and linear-form terms are carved from.
type interner struct {
	byConst map[int64]int
	byVar   map[string]int
	// byHash heads the chain (inode.next) of application nodes sharing a
	// dedup hash.
	byHash map[uint64]int
	nodes  []inode
	// kids backs every inode.children; args is the stack of child ids
	// internNode collects before the application is deduplicated.
	kids []int
	args []int
	// terms backs every lin.terms built during the check.
	terms []lterm

	// memoNode and memoLin cache per-source-node results; valid because
	// the interner is reset for every conjunction check and sees one source
	// arena (hash-consing makes equal NodeIDs equal subtrees).
	memoNode map[logic.NodeID]int
	memoLin  map[logic.NodeID]lin
}

type inode struct {
	// fn is non-empty for application nodes (including "$mul"); such nodes
	// participate in congruence closure.
	fn       string
	children []int
	// constVal is set for integer constant nodes.
	isConst  bool
	constVal int64
	// varName is set for variable nodes.
	varName string
	// next is the previous application node with the same dedup hash over
	// (fn, children), -1 at the end of the chain.
	next int
}

func newInterner() *interner {
	return &interner{
		byConst:  map[int64]int{},
		byVar:    map[string]int{},
		byHash:   map[uint64]int{},
		memoNode: map[logic.NodeID]int{},
		memoLin:  map[logic.NodeID]lin{},
	}
}

// reset empties the interner, keeping its storage.
func (in *interner) reset() {
	clear(in.byConst)
	clear(in.byVar)
	clear(in.byHash)
	clear(in.memoNode)
	clear(in.memoLin)
	in.nodes, in.kids, in.terms = in.nodes[:0], in.kids[:0], in.terms[:0]
}

// carve returns an empty slice with room for n elements at the end of
// *arena. When the arena is full it moves to a larger block; slices carved
// earlier keep the old one, and the next reset starts from the larger.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	if len(a)+n > cap(a) {
		a = make([]T, 0, 2*cap(a)+n)
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a) : len(a)+n]
}

// internConst interns an integer constant.
func (in *interner) internConst(v int64) int {
	if id, ok := in.byConst[v]; ok {
		return id
	}
	id := len(in.nodes)
	in.nodes = append(in.nodes, inode{isConst: true, constVal: v})
	in.byConst[v] = id
	return id
}

// internVar interns a variable.
func (in *interner) internVar(name string) int {
	if id, ok := in.byVar[name]; ok {
		return id
	}
	id := len(in.nodes)
	in.nodes = append(in.nodes, inode{varName: name})
	in.byVar[name] = id
	return id
}

// internApp interns an application over already-interned children,
// deduplicating through hash buckets with structural verification.
func (in *interner) internApp(fn string, children []int) int {
	h := hashString(fn)
	for _, c := range children {
		h = ihashCombine(h, uint64(c))
	}
	head, ok := in.byHash[h]
	if !ok {
		head = -1
	}
	for id := head; id >= 0; id = in.nodes[id].next {
		if nd := &in.nodes[id]; nd.fn == fn && slices.Equal(nd.children, children) {
			return id
		}
	}
	id := len(in.nodes)
	in.nodes = append(in.nodes, inode{fn: fn, children: append(carve(&in.kids, len(children)), children...), next: head})
	in.byHash[h] = id
	return id
}

// ihashCombine mixes a value into a hash; deterministic across processes.
func ihashCombine(h, x uint64) uint64 {
	h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// internNode interns a term given by its node in the source arena,
// returning the solver-local node for the term itself. Arithmetic
// structure is *not* flattened here; linearisation happens in linOfNode,
// which calls back into internNode for opaque subterms. The traversal
// order mirrors the term structure exactly, so ID assignment matches what
// walking the original logic.Term would produce.
func (in *interner) internNode(src *logic.Interner, t logic.NodeID) int {
	if id, ok := in.memoNode[t]; ok {
		return id
	}
	var id int
	switch src.Kind(t) {
	case logic.KConst:
		id = in.internConst(src.ConstVal(t))
	case logic.KVar:
		id = in.internVar(src.Name(t))
	case logic.KApp:
		base := len(in.args)
		for _, k := range src.Kids(t) {
			c := in.internNode(src, k) // pushes and pops in.args itself
			in.args = append(in.args, c)
		}
		id = in.internApp(src.Name(t), in.args[base:])
		in.args = in.args[:base]
	case logic.KBin:
		kids := src.Kids(t)
		l := in.internNode(src, kids[0])
		r := in.internNode(src, kids[1])
		var fn string
		switch src.BinOp(t) {
		case logic.Add:
			fn = "$add"
		case logic.Sub:
			fn = "$sub"
		case logic.Mul:
			fn = "$mulraw"
		}
		id = in.internApp(fn, []int{l, r})
	default:
		panic("smt: non-term node in internNode")
	}
	in.memoNode[t] = id
	return id
}

// lin is a linear combination Σ kᵢ·entity(idᵢ) + c over "atomic" arithmetic
// entities: variables, uninterpreted applications, and canonicalised
// nonlinear products. Terms are kept sorted by entity id with nonzero
// coefficients, so linear forms have one canonical representation and never
// need a map or a sort on the solver's hot path. Operations are functional:
// they carve fresh term slices from the interner the form was made in (in)
// and never mutate shared backing arrays, so a lin is valid until that
// interner's next reset.
type lterm struct {
	id int
	k  int64
}

type lin struct {
	terms []lterm
	c     int64
	in    *interner
}

func (in *interner) newLin() lin { return lin{in: in} }

func (l lin) addTerm(id int, k int64) lin {
	pos := len(l.terms)
	for i, t := range l.terms {
		if t.id >= id {
			pos = i
			break
		}
	}
	if pos < len(l.terms) && l.terms[pos].id == id {
		nk := l.terms[pos].k + k
		out := carve(&l.in.terms, len(l.terms))
		out = append(out, l.terms[:pos]...)
		if nk != 0 {
			out = append(out, lterm{id: id, k: nk})
		}
		out = append(out, l.terms[pos+1:]...)
		return lin{terms: out, c: l.c, in: l.in}
	}
	if k == 0 {
		return l
	}
	out := carve(&l.in.terms, len(l.terms)+1)
	out = append(out, l.terms[:pos]...)
	out = append(out, lterm{id: id, k: k})
	out = append(out, l.terms[pos:]...)
	return lin{terms: out, c: l.c, in: l.in}
}

func (l lin) scale(k int64) lin {
	out := lin{c: l.c * k, in: l.in}
	if k == 0 {
		return out
	}
	out.terms = carve(&l.in.terms, len(l.terms))
	for _, t := range l.terms {
		out.terms = append(out.terms, lterm{id: t.id, k: t.k * k})
	}
	return out
}

func (l lin) add(m lin) lin {
	out := lin{c: l.c + m.c, terms: carve(&l.in.terms, len(l.terms)+len(m.terms)), in: l.in}
	i, j := 0, 0
	for i < len(l.terms) && j < len(m.terms) {
		a, b := l.terms[i], m.terms[j]
		switch {
		case a.id < b.id:
			out.terms = append(out.terms, a)
			i++
		case a.id > b.id:
			out.terms = append(out.terms, b)
			j++
		default:
			if k := a.k + b.k; k != 0 {
				out.terms = append(out.terms, lterm{id: a.id, k: k})
			}
			i++
			j++
		}
	}
	out.terms = append(out.terms, l.terms[i:]...)
	out.terms = append(out.terms, m.terms[j:]...)
	return out
}

func (l lin) isConst() bool { return len(l.terms) == 0 }

// linOfNode converts a source-arena term node to a linear form, interning
// opaque subterms (applications and nonlinear products) as atomic
// entities. Results are memoized per source node; lin values are
// functional, so sharing them is safe.
func (in *interner) linOfNode(src *logic.Interner, t logic.NodeID) lin {
	if l, ok := in.memoLin[t]; ok {
		return l
	}
	var out lin
	switch src.Kind(t) {
	case logic.KConst:
		out = in.newLin()
		out.c = src.ConstVal(t)
	case logic.KVar:
		out = in.newLin().addTerm(in.internVar(src.Name(t)), 1)
	case logic.KApp:
		out = in.newLin().addTerm(in.internNode(src, t), 1)
	case logic.KBin:
		kids := src.Kids(t)
		switch src.BinOp(t) {
		case logic.Add:
			out = in.linOfNode(src, kids[0]).add(in.linOfNode(src, kids[1]))
		case logic.Sub:
			out = in.linOfNode(src, kids[0]).add(in.linOfNode(src, kids[1]).scale(-1))
		case logic.Mul:
			ll := in.linOfNode(src, kids[0])
			lr := in.linOfNode(src, kids[1])
			switch {
			case ll.isConst():
				out = lr.scale(ll.c)
			case lr.isConst():
				out = ll.scale(lr.c)
			default:
				// Nonlinear: canonicalise as an uninterpreted product of the
				// two subterm nodes, sorted to exploit commutativity.
				a := in.internNode(src, kids[0])
				b := in.internNode(src, kids[1])
				if b < a {
					a, b = b, a
				}
				out = in.newLin().addTerm(in.internApp("$mul", []int{a, b}), 1)
			}
		}
	default:
		panic("smt: non-term node in linOfNode")
	}
	in.memoLin[t] = out
	return out
}
