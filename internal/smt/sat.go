package smt

import (
	"consolidation/internal/logic"
)

// cnfBuilder performs a Tseitin encoding of a formula into CNF. Variables
// are 1-based; literals are ±var. Each distinct atom (by interned node)
// gets one variable; composite subformulas get auxiliary variables.
type cnfBuilder struct {
	in      *logic.Interner
	nvars   int
	clauses [][]int
	atomVar map[logic.NodeID]int
	varAtom map[int]logic.NodeID
}

func newCNFBuilder(in *logic.Interner) *cnfBuilder {
	return &cnfBuilder{in: in, atomVar: map[logic.NodeID]int{}, varAtom: map[int]logic.NodeID{}}
}

func (b *cnfBuilder) fresh() int {
	b.nvars++
	return b.nvars
}

func (b *cnfBuilder) addClause(lits ...int) {
	b.clauses = append(b.clauses, lits)
}

// encode returns a literal equisatisfiably representing f.
func (b *cnfBuilder) encode(f logic.Formula) int {
	switch x := f.(type) {
	case logic.FTrue:
		v := b.fresh()
		b.addClause(v)
		return v
	case logic.FFalse:
		v := b.fresh()
		b.addClause(-v)
		return v
	case logic.FAtom:
		k := b.in.InternFormula(x)
		if v, ok := b.atomVar[k]; ok {
			return v
		}
		v := b.fresh()
		b.atomVar[k] = v
		b.varAtom[v] = k
		return v
	case logic.FNot:
		return -b.encode(x.F)
	case logic.FAnd:
		v := b.fresh()
		all := make([]int, 0, len(x.Fs)+1)
		for _, g := range x.Fs {
			lg := b.encode(g)
			b.addClause(-v, lg)
			all = append(all, -lg)
		}
		all = append(all, v)
		b.addClause(all...)
		return v
	case logic.FOr:
		v := b.fresh()
		all := make([]int, 0, len(x.Fs)+1)
		for _, g := range x.Fs {
			lg := b.encode(g)
			b.addClause(v, -lg)
			all = append(all, lg)
		}
		all = append(all, -v)
		b.addClause(all...)
		return v
	}
	panic("smt: unknown formula")
}

type satStatus int

const (
	satUnsat satStatus = iota
	satSat
	satUnknown
)
