package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"consolidation/internal/consolidate"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/smt"
)

// AggCase is one generated windowed-aggregation test case: aggregation
// programs over the oracle's probe-input dataset (records read through
// the p0/p1 accessors and the u/w/sq scan functions, exactly as the
// batch-parity check's engine UDFs do).
type AggCase struct {
	Seed   int64
	Aggs   []*lang.AggProgram
	Inputs [][]int64
}

// Sources pretty-prints the case's aggregations for reproducers.
func (c *AggCase) Sources() string {
	var sb strings.Builder
	for _, a := range c.Aggs {
		sb.WriteString(lang.FormatAgg(a))
		sb.WriteString("\n")
	}
	return sb.String()
}

// aggAccShapes are the accumulator fold shapes the generator draws from.
// The first four are the homomorphic shapes (sum, max, min, guarded
// count) the classifier must admit; the rest are deliberate near-misses —
// a non-comparand guarded write and a chained double-sum — that exercise
// the classifier's reject paths and the uncut whole-window fold without
// ever changing outputs.
const (
	aggShapeSum = iota
	aggShapeMax
	aggShapeMin
	aggShapeCount
	aggShapeGuardShift // if (x < a) { a := x + 1; } — rejected, non-hom
	aggShapeDoubleSum  // a := a + x; a := a + 1;  — still hom (two sums)
	aggShapeCrossAcc   // a := a + <other acc>     — rejected, non-hom
	numAggShapes
)

// GenAggCase derives one windowed-aggregation case from the seed: 2–4
// aggregations over 1–2 window specs (sizes 1–5, or one time in four a long
// window of 12–51 so the engine cuts windows; half of them partitioned by
// the first record column via p0), each folding 1–2 accumulators whose
// shapes mix the homomorphic fold forms with rejectable near-misses, over
// shared scan bindings so Ω has a traversal to recover. Accumulators start
// at small non-identity values (sums −3..3, maxima and minima −4..4,
// counts 0..2), so a cut window's later piece that folds from the inits
// instead of the combine identities changes the output.
func GenAggCase(seed int64) *AggCase {
	rng := rand.New(rand.NewSource(seed ^ 0x3A66D0C2))

	specs := []string{genAggSpec(rng)}
	if rng.Intn(3) == 0 {
		specs = append(specs, genAggSpec(rng))
	}
	fields := []string{"u(p0(r))", "w(p1(r))", "sq(p0(r))", "p1(r)"}

	n := 2 + rng.Intn(3)
	c := &AggCase{Seed: seed}
	for i := 0; i < n; i++ {
		src := genAggSrc(rng, fmt.Sprintf("g%d", i), specs[rng.Intn(len(specs))], fields)
		a, err := lang.ParseAgg(src)
		if err != nil {
			// A generated aggregation failing to parse is itself a bug; keep
			// the panic loud rather than threading an error through every
			// campaign driver.
			panic(fmt.Sprintf("oracle: generated aggregation does not parse: %v\n%s", err, src))
		}
		c.Aggs = append(c.Aggs, a)
	}

	// Records: small two-column rows. Column 0 doubles as the partition
	// key, drawn from a tiny range (2–7 values) so keyed windows interleave
	// and collide, and a long keyed window can exceed a batch.
	records, keys := 12+rng.Intn(40), 2+rng.Intn(6)
	for i := 0; i < records; i++ {
		c.Inputs = append(c.Inputs, []int64{
			int64(rng.Intn(keys) - 3),
			int64(rng.Intn(17) - 8),
		})
	}
	return c
}

func genAggSpec(rng *rand.Rand) string {
	size := 1 + rng.Intn(5)
	if rng.Intn(4) == 0 {
		size = 12 + rng.Intn(40) // long: past the batch of 7, up to the whole stream
	}
	spec := fmt.Sprintf("window %d", size)
	if rng.Intn(2) == 0 {
		spec += " by p0"
	}
	return spec
}

func genAggSrc(rng *rand.Rand, name, spec string, fields []string) string {
	nAccs := 1 + rng.Intn(2)
	field := fields[rng.Intn(len(fields))]
	var accs, folds, emits strings.Builder
	for a := 0; a < nAccs; a++ {
		acc := fmt.Sprintf("a%d", a)
		thr := rng.Intn(21) - 10
		shape := rng.Intn(numAggShapes)
		if shape == aggShapeCrossAcc && a == 0 {
			shape = aggShapeSum // no other accumulator to read yet
		}
		switch shape {
		case aggShapeSum:
			fmt.Fprintf(&accs, "  acc %s = %d;\n", acc, rng.Intn(7)-3)
			fmt.Fprintf(&folds, "    %s := %s + x;\n", acc, acc)
		case aggShapeMax:
			fmt.Fprintf(&accs, "  acc %s = %d;\n", acc, rng.Intn(9)-4)
			fmt.Fprintf(&folds, "    if (%s < x) { %s := x; }\n", acc, acc)
		case aggShapeMin:
			fmt.Fprintf(&accs, "  acc %s = %d;\n", acc, rng.Intn(9)-4)
			fmt.Fprintf(&folds, "    if (x < %s) { %s := x; }\n", acc, acc)
		case aggShapeCount:
			fmt.Fprintf(&accs, "  acc %s = %d;\n", acc, rng.Intn(3))
			fmt.Fprintf(&folds, "    if (x > %d) { %s := %s + 1; }\n", thr, acc, acc)
		case aggShapeGuardShift:
			fmt.Fprintf(&accs, "  acc %s = 100000;\n", acc)
			fmt.Fprintf(&folds, "    if (x < %s) { %s := x + 1; }\n", acc, acc)
		case aggShapeDoubleSum:
			fmt.Fprintf(&accs, "  acc %s = %d;\n", acc, rng.Intn(7)-3)
			fmt.Fprintf(&folds, "    %s := %s + x;\n    %s := %s + 1;\n", acc, acc, acc, acc)
		default: // aggShapeCrossAcc
			fmt.Fprintf(&accs, "  acc %s = 0;\n", acc)
			fmt.Fprintf(&folds, "    %s := %s + a%d;\n", acc, acc, rng.Intn(a))
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&emits, "  notify %d (%s > %d);\n", a, acc, thr)
		} else {
			fmt.Fprintf(&emits, "  notify %d (%s < %d);\n", a, acc, thr)
		}
	}
	return fmt.Sprintf("agg %s(r) %s {\n%s  fold {\n    x := %s;\n%s  }\n  emit {\n%s  }\n}",
		name, spec, accs.String(), field, folds.String(), emits.String())
}

func aggFailf(check string, c *AggCase, format string, args ...any) *Failure {
	return &Failure{
		Check: check,
		Seed:  c.Seed,
		Msg:   fmt.Sprintf(format, args...) + "\n\naggregations:\n" + c.Sources(),
	}
}

// CheckAggregate holds windowed aggregation to its replay-equivalence
// contract: the merged shared-traversal execution — windows cut into
// partials and combined, and windows folded whole, alike — must
// reproduce the per-aggregation serial replay byte-identically (emitted
// verdicts, window counts, partition keys) at every Workers/BatchSize
// combination. Every combination merges again over the shared query
// cache, and every re-merge must build the first one's folds. nil means
// every combination matched.
func CheckAggregate(c *AggCase) *Failure {
	if len(c.Inputs) == 0 || len(c.Aggs) == 0 {
		return nil
	}
	d := newInputLibrary(c.Inputs)
	ref, err := engine.AggregateMany(d, c.Aggs, engine.Options{})
	if err != nil {
		return aggFailf(CheckErr, c, "serial reference: %v", err)
	}
	copts := consolidate.Options{Cache: smt.NewCache(0)}
	var folds string
	rng := rand.New(rand.NewSource(c.Seed ^ 0x51D37A91))
	for _, bs := range batchSizesFor(len(c.Inputs), rng) {
		for _, w := range []int{1, 2, 3, 4} {
			label := fmt.Sprintf("workers=%d batch=%d", w, bs)
			got, err := engine.AggregateConsolidated(d, c.Aggs, copts, engine.Options{Workers: w, BatchSize: bs})
			if err != nil {
				return aggFailf(CheckErr, c, "consolidated %s: %v", label, err)
			}
			if !engine.SameAggResults(ref, &got.AggResult) {
				return aggFailf(CheckAggParity, c,
					"%s: merged windowed outputs diverge from the per-aggregation replay", label)
			}
			var b strings.Builder
			for _, g := range got.Groups {
				fmt.Fprintf(&b, "%v %s\n", g.Homomorphic, lang.Format(g.Fold))
			}
			if folds == "" {
				folds = b.String()
			} else if b.String() != folds {
				return aggFailf(CheckAggParity, c, "%s: re-merge over the warm cache built different folds", label)
			}
		}
	}
	return nil
}
