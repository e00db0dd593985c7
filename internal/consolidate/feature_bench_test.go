package consolidate

import (
	"fmt"
	"testing"

	"consolidation/internal/lang"
)

// benchStmts builds a fragment shaped like the If-rule probes that hit the
// related() heuristic: assignments whose right-hand sides call library
// functions with constant and variable arguments. The locals t and u carry
// suffix, as renameApart leaves them in the second program of a pair, and
// shift moves the call constants.
func benchStmts(suffix string, shift int64) []lang.Stmt {
	t, u := "t"+suffix, "u"+suffix
	var ss []lang.Stmt
	for i := 0; i < 16; i++ {
		c := int64(i%5) + shift
		ss = append(ss,
			lang.Assign{Var: t, E: lang.Call{Func: "tempOfMonth", Args: []lang.IntExpr{
				lang.Var{Name: "r"}, lang.IntConst{Value: c},
			}}},
			lang.Cond{
				Test: lang.Cmp{Op: lang.Lt, L: lang.Var{Name: t}, R: lang.IntConst{Value: 30}},
				Then: lang.Assign{Var: u, E: lang.BinInt{Op: lang.Add, L: lang.Var{Name: t}, R: lang.IntConst{Value: 1}}},
				Else: lang.Skip{},
			},
		)
	}
	return ss
}

// legacyCallFeature is the pre-interning key builder, kept here as the
// benchmark baseline: per-argument `key += part` string concatenation,
// quadratic in the rendered key length.
func legacyCallFeature(c lang.Call) string {
	key := "call:" + c.Func + "("
	for i, a := range c.Args {
		if i > 0 {
			key += ","
		}
		switch t := a.(type) {
		case lang.IntConst:
			key += t.String()
		case lang.Var:
			key += t.Name
		default:
			return "fn:" + c.Func
		}
	}
	return key + ")"
}

func legacyAddStmtFeatures(s lang.Stmt, fs map[string]bool) {
	var addInt func(lang.IntExpr)
	addInt = func(e lang.IntExpr) {
		switch t := e.(type) {
		case lang.Var:
			fs["var:"+t.Name] = true
		case lang.Call:
			fs[legacyCallFeature(t)] = true
			for _, a := range t.Args {
				addInt(a)
			}
		case lang.BinInt:
			addInt(t.L)
			addInt(t.R)
		}
	}
	var addBool func(lang.BoolExpr)
	addBool = func(e lang.BoolExpr) {
		switch t := e.(type) {
		case lang.Cmp:
			addInt(t.L)
			addInt(t.R)
		case lang.Not:
			addBool(t.E)
		case lang.BinBool:
			addBool(t.L)
			addBool(t.R)
		}
	}
	switch t := s.(type) {
	case lang.Assign:
		addInt(t.E)
	case lang.Seq:
		legacyAddStmtFeatures(t.L, fs)
		legacyAddStmtFeatures(t.R, fs)
	case lang.Cond:
		addBool(t.Test)
		legacyAddStmtFeatures(t.Then, fs)
		legacyAddStmtFeatures(t.Else, fs)
	case lang.While:
		addBool(t.Test)
		legacyAddStmtFeatures(t.Body, fs)
	}
}

// BenchmarkFeatureKeys compares the text-keyed feature extraction the
// related() heuristic used before interning against the featTab path that
// replaced it.
func BenchmarkFeatureKeys(b *testing.B) {
	ss := benchStmts("", 0)
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs := map[string]bool{}
			for _, s := range ss {
				legacyAddStmtFeatures(s, fs)
			}
			if len(fs) == 0 {
				b.Fatal("no features")
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		t := newFeatTab()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs, _, _ := t.featuresOfStmts(ss)
			if len(fs) == 0 {
				b.Fatal("no features")
			}
		}
	})
}

// TestFeatureKeysMatchLegacy cross-checks the interned extraction against
// the legacy text keys the way Ω uses related(): on pairs of one fragment
// from each of two programs whose locals are renamed apart, every span of
// one or two statements of the first against every such span of the
// second. Both extractions must give the same feature counts, the walk's
// node count and loop flag must match lang.Size and lang.CountNodes, and
// related() must agree with text-key intersection; both verdicts must occur.
func TestFeatureKeysMatchLegacy(t *testing.T) {
	p1, p2 := benchStmts("", 0), benchStmts("$2", 2)
	tab := newFeatTab()
	text := func(ss []lang.Stmt) map[string]bool {
		fs := map[string]bool{}
		for _, s := range ss {
			legacyAddStmtFeatures(s, fs)
		}
		return fs
	}
	seen := map[bool]int{}
	for _, w := range []int{1, 2} {
		for lo1 := 0; lo1+w <= len(p1); lo1++ {
			for lo2 := 0; lo2+w <= len(p2); lo2++ {
				a, b := p1[lo1:lo1+w], p2[lo2:lo2+w]
				textA, textB := text(a), text(b)
				want := false
				for k := range textA {
					want = want || textB[k]
				}
				fa, sizeA, loopsA := tab.featuresOfStmts(a)
				fb, _, _ := tab.featuresOfStmts(b)
				span := fmt.Sprintf("spans [%d,%d) x [%d,%d)", lo1, lo1+w, lo2, lo2+w)
				wantSize, wantLoops := 0, false
				for _, s := range a {
					wantSize += lang.Size(s)
					wantLoops = wantLoops || lang.CountNodes[lang.While](s) > 0
				}
				if sizeA != wantSize || loopsA != wantLoops {
					t.Fatalf("%s: size/loops %d/%v, want %d/%v", span, sizeA, loopsA, wantSize, wantLoops)
				}
				if len(fa) != len(textA) || len(fb) != len(textB) {
					t.Fatalf("%s: feature counts diverge: %d/%d vs %d/%d", span, len(fa), len(textA), len(fb), len(textB))
				}
				if got := related(fa, fb); got != want {
					t.Fatalf("%s: related() = %v, text keys %v", span, got, want)
				}
				seen[want]++
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("related verdicts %v: both outcomes must occur", seen)
	}
}
