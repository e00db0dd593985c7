package consolidate

import (
	"hash/fnv"
	"sort"
	"strconv"

	"consolidation/internal/lang"
)

// SignatureK is the sketch width of FeatureSignature: a program keeps the
// SignatureK smallest distinct 64-bit feature hashes (a bottom-k /
// k-minimum-values sketch), which is enough resolution to estimate Jaccard
// similarity between the feature sets of two UDFs without retaining the
// sets themselves.
const SignatureK = 16

// Signature is a bottom-k sketch of a program's feature set, the public
// form of the featTab features the related() heuristic runs on. It is
// hash-based — features are hashed from their rendered source form, never
// from interner-table ids — so two structurally identical programs produce
// identical signatures regardless of which Consolidator, interner arena,
// or process computed them.
//
// Sharding layers use signatures to bucket incoming UDFs: queries whose
// signatures overlap plausibly share call instances, which is exactly when
// pairwise consolidation pays.
type Signature struct {
	// Hashes holds at most SignatureK distinct feature hashes, sorted
	// ascending. Fewer means the program has fewer distinct features than
	// the sketch width, in which case the sketch is the exact feature set.
	Hashes []uint64
}

// FeatureSignature computes the similarity signature of one UDF. The
// features mirror the related() heuristic's featureSet at two
// granularities per call — the exact call instance ("call:f(3,r)", with
// compound arguments collapsing to the bare form) and the bare function
// ("fn:f") — so queries from one family that differ only in constant
// parameters still overlap on the bare-function features. Call-free
// programs fall back to the variables they read and define, as
// featureSet does.
//
// The signature is deterministic across interner arenas by construction:
// it renders and hashes feature strings directly off the AST and never
// consults a featTab's dense per-table ids.
func FeatureSignature(p *lang.Program) Signature {
	c := &sigCollector{seen: map[uint64]bool{}}
	if p != nil {
		lang.Inspect(p.Body, c.visit)
		if !c.hasCall {
			// No calls anywhere: the variable features are the only
			// signal, as in featureSet's call-free fallback.
			for _, f := range c.varFeats {
				c.add(f)
			}
		}
	}
	hs := make([]uint64, 0, len(c.seen))
	for h := range c.seen {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	if len(hs) > SignatureK {
		hs = hs[:SignatureK]
	}
	return Signature{Hashes: append([]uint64(nil), hs...)}
}

// Similarity estimates the Jaccard similarity of the two underlying
// feature sets from their sketches, in [0, 1]: the fraction of shared
// hashes among the (at most SignatureK) smallest hashes of the union.
// When both feature sets fit the sketch width the estimate is exact.
func (s Signature) Similarity(t Signature) float64 {
	a, b := s.Hashes, t.Hashes
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, union := 0, 0
	i, j := 0, 0
	for union < SignatureK && (i < len(a) || j < len(b)) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			i++
		case i >= len(a) || b[j] < a[i]:
			j++
		default:
			inter++
			i++
			j++
		}
		union++
	}
	return float64(inter) / float64(union)
}

// Merge returns the sketch of the union of the two feature sets — the
// SignatureK smallest distinct hashes across both. Sharding layers use it
// to maintain a cluster centroid incrementally as members join.
func (s Signature) Merge(t Signature) Signature {
	a, b := s.Hashes, t.Hashes
	out := make([]uint64, 0, SignatureK)
	i, j := 0, 0
	for len(out) < SignatureK && (i < len(a) || j < len(b)) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return Signature{Hashes: out}
}

// sigCollector walks one program, hashing rendered feature strings. It
// reuses one render buffer the way featTab does, and defers the call-free
// variable fallback until the walk has decided whether any call exists.
type sigCollector struct {
	seen     map[uint64]bool
	buf      []byte
	hasCall  bool
	varFeats []uint64
}

func (c *sigCollector) add(h uint64) { c.seen[h] = true }

// visit is the Inspect callback: calls are hashed at once, variable reads
// and definitions are held back for the call-free fallback.
func (c *sigCollector) visit(n lang.Node) bool {
	switch x := n.(type) {
	case lang.Var:
		c.varFeats = append(c.varFeats, c.varFeature("var:", x.Name))
	case lang.Call:
		c.call(x)
	case lang.Assign:
		c.varFeats = append(c.varFeats, c.varFeature("def:", x.Var))
	}
	return true
}

func (c *sigCollector) hashBuf() uint64 {
	h := fnv.New64a()
	h.Write(c.buf) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

func (c *sigCollector) varFeature(kind, name string) uint64 {
	c.buf = append(c.buf[:0], kind...)
	c.buf = append(c.buf, name...)
	return c.hashBuf()
}

// call records both granularities of one source-level call: the exact
// instance (constants and variable arguments spelled out, compound
// arguments collapsing the whole call to the bare form, exactly as
// featTab.callFeature renders it) and the bare function name.
func (c *sigCollector) call(x lang.Call) {
	c.hasCall = true
	c.buf = append(c.buf[:0], "fn:"...)
	c.buf = append(c.buf, x.Func...)
	c.add(c.hashBuf())

	c.buf = append(c.buf[:0], "call:"...)
	c.buf = append(c.buf, x.Func...)
	c.buf = append(c.buf, '(')
	for i, a := range x.Args {
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		switch y := a.(type) {
		case lang.IntConst:
			c.buf = strconv.AppendInt(c.buf, y.Value, 10)
		case lang.Var:
			c.buf = append(c.buf, y.Name...)
		default:
			// Compound argument: the instance feature degrades to the bare
			// function, already recorded above.
			return
		}
	}
	c.buf = append(c.buf, ')')
	c.add(c.hashBuf())
}
