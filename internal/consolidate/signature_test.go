package consolidate

import (
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"consolidation/internal/lang"
)

func mustParseSig(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

const sigSrcA = `func qa(r) {
  t := avgTemp(r, 3);
  h := humidity(r);
  notify 1 (t > 20 && h < 50);
}`

const sigSrcB = `func qb(r) {
  t := avgTemp(r, 7);
  h := humidity(r);
  notify 1 (t > 25 && h < 40);
}`

const sigSrcC = `func qc(r) {
  v := volume(r);
  notify 1 (v > 1000);
}`

// TestFeatureSignatureDeterministic pins the cross-arena stability
// contract: the signature of a program depends only on its AST, not on
// which Consolidator ran before, how many other programs were signed
// first, or which parse produced the AST.
func TestFeatureSignatureDeterministic(t *testing.T) {
	p1 := mustParseSig(t, sigSrcA)
	s1 := FeatureSignature(p1)

	// A fresh parse of the same source (a fresh AST) signs identically.
	p2 := mustParseSig(t, sigSrcA)
	if s2 := FeatureSignature(p2); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same source, different signatures: %v vs %v", s1, s2)
	}

	// Interner arenas are per-Consolidator; running consolidation (which
	// interns features and formulas in its own tables) between signature
	// computations must not perturb them, and neither must signing other
	// programs first (a featTab-id-based signature would shift with
	// first-use order).
	q := mustParseSig(t, sigSrcC)
	_ = FeatureSignature(q)
	co := New(Options{})
	if _, err := co.Pair(prepareLeaf(mustParseSig(t, sigSrcA), 0, true), prepareLeaf(mustParseSig(t, sigSrcB), 1, true)); err != nil {
		t.Fatalf("pair: %v", err)
	}
	if s3 := FeatureSignature(p1); !reflect.DeepEqual(s1, s3) {
		t.Fatalf("signature changed across consolidator use: %v vs %v", s1, s3)
	}

	if len(s1.Hashes) == 0 {
		t.Fatal("signature of a call-bearing program is empty")
	}
	for i := 1; i < len(s1.Hashes); i++ {
		if s1.Hashes[i-1] >= s1.Hashes[i] {
			t.Fatalf("hashes not sorted/distinct at %d: %v", i, s1.Hashes)
		}
	}
}

// TestFeatureSignatureSimilarity checks the clustering signal: family
// members that differ only in constant parameters overlap on bare-function
// features, while queries over disjoint library calls do not relate.
func TestFeatureSignatureSimilarity(t *testing.T) {
	a := FeatureSignature(mustParseSig(t, sigSrcA))
	b := FeatureSignature(mustParseSig(t, sigSrcB))
	c := FeatureSignature(mustParseSig(t, sigSrcC))

	if sim := a.Similarity(a); sim != 1 {
		t.Fatalf("self-similarity = %v, want 1", sim)
	}
	ab, ac := a.Similarity(b), a.Similarity(c)
	if ab <= ac {
		t.Fatalf("same-family similarity %v not above cross-family %v", ab, ac)
	}
	if ab <= 0.2 {
		t.Fatalf("family members barely relate: %v", ab)
	}
	if ac != 0 {
		t.Fatalf("disjoint queries relate: %v", ac)
	}
	if got, want := a.Similarity(b), b.Similarity(a); got != want {
		t.Fatalf("similarity not symmetric: %v vs %v", got, want)
	}
}

// TestFeatureSignatureMerge checks the centroid operation: merging keeps
// the sketch sorted, bounded by SignatureK, and a member stays similar to
// a centroid containing it.
func TestFeatureSignatureMerge(t *testing.T) {
	a := FeatureSignature(mustParseSig(t, sigSrcA))
	b := FeatureSignature(mustParseSig(t, sigSrcB))
	m := a.Merge(b)
	if len(m.Hashes) > SignatureK {
		t.Fatalf("merged sketch over width: %d", len(m.Hashes))
	}
	for i := 1; i < len(m.Hashes); i++ {
		if m.Hashes[i-1] >= m.Hashes[i] {
			t.Fatalf("merged hashes not sorted/distinct: %v", m.Hashes)
		}
	}
	if sim := a.Similarity(m); sim <= 0 {
		t.Fatalf("member does not relate to its centroid: %v", sim)
	}
	if !reflect.DeepEqual(a.Merge(b), b.Merge(a)) {
		t.Fatal("merge not commutative")
	}
	var empty Signature
	if !reflect.DeepEqual(empty.Merge(a).Hashes, a.Hashes) {
		t.Fatal("merging into empty loses hashes")
	}
	if len(empty.Hashes) != 0 || len(a.Hashes) == 0 {
		t.Fatal("empty signature misreported")
	}
}

// TestFeatureSignatureCallFree pins the call-free fallback: programs with
// no calls sign by the variables they read and define.
func TestFeatureSignatureCallFree(t *testing.T) {
	p := mustParseSig(t, `func f(a, b) { x := a + b; notify 1 (x > 0); }`)
	q := mustParseSig(t, `func g(a, b) { x := a + b; notify 1 (x > 5); }`)
	r := mustParseSig(t, `func h(c, d) { y := c - d; notify 1 (y < 0); }`)
	sp, sq, sr := FeatureSignature(p), FeatureSignature(q), FeatureSignature(r)
	if len(sp.Hashes) == 0 {
		t.Fatal("call-free program signed empty")
	}
	if sim := sp.Similarity(sq); sim != 1 {
		t.Fatalf("identical call-free feature sets: similarity %v, want 1", sim)
	}
	if sim := sp.Similarity(sr); sim != 0 {
		t.Fatalf("disjoint call-free feature sets relate: %v", sim)
	}
}

// TestFeatureSignatureMinInt64 holds a call instance's constant arguments
// to featTab.callFeature's rendering at math.MinInt64, the one value whose
// negation overflows: the signature must carry the hash of exactly the key
// the related() heuristic interns.
func TestFeatureSignatureMinInt64(t *testing.T) {
	call := lang.Call{Func: "f", Args: []lang.IntExpr{lang.Var{Name: "r"}, lang.IntConst{Value: math.MinInt64}}}
	tab := newFeatTab()
	tab.callFeature(call)
	if key := string(tab.buf); key != "call:f(r,-9223372036854775808)" {
		t.Fatalf("featTab renders %q", key)
	}
	h := fnv.New64a()
	h.Write(tab.buf)
	sig := FeatureSignature(&lang.Program{Name: "q", Params: []string{"r"}, Body: lang.Assign{Var: "t", E: call}})
	if !slices.Contains(sig.Hashes, h.Sum64()) {
		t.Fatalf("signature %v lacks the hash of %q", sig.Hashes, tab.buf)
	}
}
