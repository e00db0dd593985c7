package smt

import "strconv"

// congruence implements congruence closure over the interned term DAG:
// union-find with congruence propagation for application nodes, conflict
// detection against disequalities and distinct constants.
type congruence struct {
	in     *interner
	parent []int
	rank   []int
	// classConst tracks, per representative, the id of a constant node in
	// the class (-1 when none). Merging classes holding distinct constants
	// is a conflict.
	classConst []int
	// uses[r] lists application nodes having a child in class r.
	uses map[int][]int
	// sigs maps an application signature (fn + representative children) to
	// a node with that signature.
	sigs map[string]int
	// diseqs are pairs asserted distinct.
	diseqs [][2]int

	conflict bool
	// merged records the sequence of performed merges for equality
	// propagation to the arithmetic solver.
	merged [][2]int
}

func newCongruence(in *interner) *congruence {
	n := len(in.nodes)
	c := &congruence{
		in:         in,
		parent:     make([]int, n),
		rank:       make([]int, n),
		classConst: make([]int, n),
		uses:       map[int][]int{},
		sigs:       map[string]int{},
	}
	for i := 0; i < n; i++ {
		c.parent[i] = i
		c.classConst[i] = -1
		if in.nodes[i].isConst {
			c.classConst[i] = i
		}
	}
	for i := 0; i < n; i++ {
		if in.nodes[i].fn != "" {
			for _, ch := range in.nodes[i].children {
				c.uses[c.find(ch)] = append(c.uses[c.find(ch)], i)
			}
			c.insertSig(i)
		}
	}
	return c
}

func (c *congruence) find(x int) int {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

func (c *congruence) sigOf(n int) string {
	nd := c.in.nodes[n]
	sig := nd.fn
	for _, ch := range nd.children {
		sig += ":" + strconv.Itoa(c.find(ch))
	}
	return sig
}

// insertSig registers node n under its current signature; if another node
// shares the signature, they are congruent and get merged.
func (c *congruence) insertSig(n int) {
	sig := c.sigOf(n)
	if other, ok := c.sigs[sig]; ok {
		c.merge(other, n)
		return
	}
	c.sigs[sig] = n
}

// merge unions the classes of a and b, propagating congruences.
func (c *congruence) merge(a, b int) {
	if c.conflict {
		return
	}
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	ca, cb := c.classConst[ra], c.classConst[rb]
	if ca >= 0 && cb >= 0 && c.in.nodes[ca].constVal != c.in.nodes[cb].constVal {
		c.conflict = true
		return
	}
	if c.rank[ra] < c.rank[rb] {
		ra, rb = rb, ra
	}
	// rb joins ra.
	c.parent[rb] = ra
	if c.rank[ra] == c.rank[rb] {
		c.rank[ra]++
	}
	if c.classConst[ra] < 0 {
		c.classConst[ra] = c.classConst[rb]
	}
	c.merged = append(c.merged, [2]int{ra, rb})
	// Re-signature the applications that used rb's class.
	moved := c.uses[rb]
	delete(c.uses, rb)
	c.uses[ra] = append(c.uses[ra], moved...)
	for _, app := range moved {
		c.insertSig(app)
	}
	// Check disequalities.
	for _, d := range c.diseqs {
		if c.find(d[0]) == c.find(d[1]) {
			c.conflict = true
			return
		}
	}
}

// assertEq asserts a = b.
func (c *congruence) assertEq(a, b int) { c.merge(a, b) }

// assertNeq asserts a ≠ b.
func (c *congruence) assertNeq(a, b int) {
	if c.find(a) == c.find(b) {
		c.conflict = true
		return
	}
	c.diseqs = append(c.diseqs, [2]int{a, b})
}

// congruentPairs reports current equivalences among the given nodes as
// (representative-chosen) pairs, used to export CC-derived equalities to
// the arithmetic solver.
func (c *congruence) congruentPairs(nodes []int) [][2]int {
	byRep := map[int]int{}
	var out [][2]int
	for _, n := range nodes {
		r := c.find(n)
		if first, ok := byRep[r]; ok {
			out = append(out, [2]int{first, n})
		} else {
			byRep[r] = n
		}
	}
	return out
}
