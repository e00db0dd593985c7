package logic

import (
	"bytes"
	"math/rand"
	"testing"
)

// renameFormula renames f's variables by m, keeping its structure exactly
// (Subst goes through the smart constructors, which may reshape).
func renameFormula(f Formula, m map[string]string) Formula {
	var term func(Term) Term
	term = func(t Term) Term {
		switch x := t.(type) {
		case TVar:
			return TVar{Name: m[x.Name]}
		case TApp:
			args := make([]Term, len(x.Args))
			for i, a := range x.Args {
				args[i] = term(a)
			}
			return TApp{Func: x.Func, Args: args}
		case TBin:
			return TBin{Op: x.Op, L: term(x.L), R: term(x.R)}
		}
		return t
	}
	switch x := f.(type) {
	case FAtom:
		return FAtom{Pred: x.Pred, L: term(x.L), R: term(x.R)}
	case FNot:
		return FNot{F: renameFormula(x.F, m)}
	case FAnd:
		fs := make([]Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = renameFormula(g, m)
		}
		return FAnd{Fs: fs}
	case FOr:
		fs := make([]Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = renameFormula(g, m)
		}
		return FOr{Fs: fs}
	}
	return f
}

// alphaEquivalent is the brute-force reference: some bijection between
// the two formulas' variables renames a into b.
func alphaEquivalent(a, b Formula) bool {
	va, vb := Vars(a), Vars(b)
	if len(va) != len(vb) {
		return false
	}
	used := make([]bool, len(vb))
	m := map[string]string{}
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(va) {
			return Equal(renameFormula(a, m), b)
		}
		for j := range vb {
			if used[j] {
				continue
			}
			used[j], m[va[i]] = true, vb[j]
			if try(i + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return try(0)
}

// checkAlphaKey holds the α-keys of a pair of formulas (fresh arenas) to
// the brute-force reference: equal encodings exactly when α-equivalent,
// and equal hashes when the encodings are.
func checkAlphaKey(t *testing.T, a, b Formula) {
	t.Helper()
	var sca, scb AlphaScratch
	ina, inb := NewInterner(), NewInterner()
	ka := ina.AlphaKey(&sca, ina.InternFormula(a))
	kb := inb.AlphaKey(&scb, inb.InternFormula(b))
	want := alphaEquivalent(a, b)
	if got := bytes.Equal(ka.Enc, kb.Enc); got != want {
		t.Fatalf("encodings equal = %v, α-equivalent = %v\na: %s\nb: %s", got, want, a, b)
	}
	if want && ka.Hash != kb.Hash {
		t.Fatalf("α-equivalent formulas hash apart: %#x vs %#x\na: %s\nb: %s", ka.Hash, kb.Hash, a, b)
	}
}

// TestAlphaKey pins the key's edges: a renaming (also one that permutes a
// formula's own names) keys alike, a non-injective one does not, constants
// and function names are part of the key, and the variables come back in
// first-occurrence order.
func TestAlphaKey(t *testing.T) {
	x, y, z := V("x"), V("y"), V("z")
	lt := func(a, b Term) Formula { return Atom(Lt, a, b) }
	f := func(a Term) Term { return TApp{Func: "f", Args: []Term{a}} }
	g := func(a Term) Term { return TApp{Func: "g", Args: []Term{a}} }
	cases := []struct {
		a, b Formula
		same bool
	}{
		{lt(x, y), lt(V("q1_x"), V("q1_y")), true},
		{lt(x, y), lt(y, x), true},
		{lt(x, y), lt(x, x), false},
		{lt(x, x), lt(y, y), true},
		{FAnd{Fs: []Formula{lt(x, y), lt(y, z)}}, FAnd{Fs: []Formula{lt(z, x), lt(x, y)}}, true},
		{FAnd{Fs: []Formula{lt(x, y), lt(y, z)}}, FAnd{Fs: []Formula{lt(x, y), lt(z, x)}}, false},
		{FAnd{Fs: []Formula{lt(x, y), lt(y, z)}}, FAnd{Fs: []Formula{lt(x, y), lt(y, x)}}, false},
		{EqT(x, Num(1)), EqT(y, Num(2)), false},
		{EqT(f(x), y), EqT(g(x), y), false},
		{EqT(f(x), y), EqT(f(y), x), true},
	}
	for _, c := range cases {
		if got := alphaEquivalent(c.a, c.b); got != c.same {
			t.Fatalf("reference says %v for %s vs %s", got, c.a, c.b)
		}
		checkAlphaKey(t, c.a, c.b)
	}

	var sc AlphaScratch
	in := NewInterner()
	k := in.AlphaKey(&sc, in.InternFormula(FAnd{Fs: []Formula{lt(z, x), lt(x, y)}}))
	var names []string
	for _, v := range k.Vars {
		names = append(names, in.VarName(v))
	}
	if got := names; len(got) != 3 || got[0] != "z" || got[1] != "x" || got[2] != "y" {
		t.Fatalf("first-occurrence order %v, want [z x y]", got)
	}
}

// TestAlphaKeyAllocation pins the key walk allocation-free once the
// scratch has grown, alternating nodes so each key is built afresh, and
// the scratch reset between walks: a node keys alike every time.
func TestAlphaKeyAllocation(t *testing.T) {
	var sc AlphaScratch
	in := NewInterner()
	ids := [2]NodeID{in.InternFormula(internBenchFormula(3)), in.InternFormula(internBenchFormula(4))}
	var encs [2][]byte
	for i, id := range ids {
		encs[i] = append([]byte(nil), in.AlphaKey(&sc, id).Enc...)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, id := range ids {
			if !bytes.Equal(in.AlphaKey(&sc, id).Enc, encs[i]) {
				t.Fatal("node keyed differently on a reused scratch")
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("AlphaKey allocated %.1f times", allocs)
	}
}

// FuzzAlphaKey: for a pair of random formulas over three variables, keys
// are equal exactly when the formulas are α-equivalent, checked by brute
// force over every bijection. With rename set, b is a seeded renaming of
// a onto fresh or permuted names, so the equivalent side is exercised as
// often as the other.
func FuzzAlphaKey(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed+100, seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seedA, seedB int64, rename bool) {
		a := randFormula(rand.New(rand.NewSource(seedA)), 2)
		var b Formula
		if rename {
			r := rand.New(rand.NewSource(seedB))
			pool := []string{"x", "y", "z", "q1_x", "q1_y", "q1_z"}
			r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			m := map[string]string{}
			for i, v := range Vars(a) {
				m[v] = pool[i]
			}
			b = renameFormula(a, m)
		} else {
			b = randFormula(rand.New(rand.NewSource(seedB)), 2)
		}
		checkAlphaKey(t, a, b)
	})
}
