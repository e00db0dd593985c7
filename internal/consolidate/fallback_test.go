package consolidate

import (
	"testing"

	"consolidation/internal/lang"
)

// fallbackProgs builds programs that share a call, so a full consolidation
// performs rule work that a starved one cannot.
func fallbackProgs(n int) []*lang.Program {
	progs := make([]*lang.Program, n)
	for i := range progs {
		progs[i] = lang.MustParse(
			"func p(r) { v := price(r); if (v < 100) { notify 1 true; } else { notify 1 (airlineName(r) == 2); } }")
	}
	return progs
}

// TestFuelExhaustionFallbackSurfaced exercises the degraded-plan path end
// to end: with a tiny Ω fuel budget every pair gives up and emits its
// programs verbatim, the new MultiStats counter reports it, and the
// resulting plan — though unoptimised — still satisfies Definition 1 on
// concrete inputs. Before the counter existed this fallback was silent,
// indistinguishable from a consolidated plan.
func TestFuelExhaustionFallbackSurfaced(t *testing.T) {
	progs := fallbackProgs(4)

	opts := DefaultOptions()
	opts.FuncCoster = paperLib()
	opts.MaxFuel = 1
	merged, ms, err := All(progs, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if ms.VerbatimFallbacks() == 0 {
		t.Fatalf("tiny fuel budget did not surface the verbatim fallback: %+v", ms.Rules)
	}
	// Soundness survives the fallback: verbatim emission is sequential
	// execution, so notifications and the cost bound still hold.
	if err := Verify(progs, merged, paperLib(), nil, inputs(40), true); err != nil {
		t.Fatalf("degraded plan violates Definition 1: %v", err)
	}

	// A default budget must not trip the counter on the same workload, and
	// must produce a strictly smaller plan than the starved run.
	full := DefaultOptions()
	full.FuncCoster = paperLib()
	optimised, fms, err := All(progs, full, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if fms.VerbatimFallbacks() > 0 {
		t.Fatalf("default budget reported fallbacks: %+v", fms.Rules)
	}
	if lang.Size(optimised.Body) >= lang.Size(merged.Body) {
		t.Fatalf("optimised plan (%d nodes) not smaller than degraded plan (%d nodes)",
			lang.Size(optimised.Body), lang.Size(merged.Body))
	}
}

// TestAllTreeRecordsEveryNode checks the persisted merge tree: every leaf
// and every pairwise merge appears under its span, and the root matches
// what All returns.
func TestAllTreeRecordsEveryNode(t *testing.T) {
	progs := fallbackProgs(5)
	opts := DefaultOptions()
	opts.FuncCoster = paperLib()
	root, tree, ms, err := AllTree(progs, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil || tree.N != 5 || tree.Root != root {
		t.Fatalf("tree not recorded: %+v", tree)
	}
	for i := 0; i < 5; i++ {
		if tree.Nodes[Span{i, i + 1}] == nil {
			t.Fatalf("leaf %d missing from tree", i)
		}
	}
	// 5 leaves → pairs (0,1),(2,3) at level 1 and ((0,2),(2,4)) at level 2,
	// leaf 4 carried twice, then the root merge (0,4)⊗(4,5).
	for _, sp := range []Span{{0, 2}, {2, 4}, {0, 4}, {0, 5}} {
		if tree.Nodes[sp] == nil {
			t.Fatalf("merge node %v missing from tree", sp)
		}
	}
	if ms.Pairs != 4 {
		t.Fatalf("expected 4 pairs for 5 leaves, got %d", ms.Pairs)
	}

	same, sms, err := All(progs, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if lang.Format(same) != lang.Format(root) {
		t.Fatal("AllTree root differs from All output")
	}
	if sms.Rules != ms.Rules {
		t.Fatalf("rule counts differ: %+v vs %+v", sms.Rules, ms.Rules)
	}
}
