package smt

import (
	"sync/atomic"
	"testing"

	"consolidation/internal/logic"
)

// benchFormulas builds n distinct interned conjunctions with their
// α-keys, the way consolidation workers key the shared cache.
func benchFormulas(n int) (*logic.Interner, []logic.AlphaKey) {
	in := logic.NewInterner()
	ks := make([]logic.AlphaKey, n)
	for i := 0; i < n; i++ {
		ks[i] = alphaKey(in, in.InternFormula(benchFormula(int64(i))))
	}
	return in, ks
}

// benchFormula is the i-th of a family of distinct small conjunctions.
func benchFormula(i int64) logic.Formula {
	return logic.And(
		le(n_(i), x()),
		lt(x(), n_(i+7)),
		eq(logic.TApp{Func: "f", Args: []logic.Term{x()}}, y()),
	)
}

func n_(v int64) logic.Term { return logic.Num(v) }

// BenchmarkCacheContention hammers one shared cache from GOMAXPROCS
// goroutines with precomputed hashes — the tentpole's O(1) shard-and-probe
// path. The reported contended-lock count (Stats().Contended) is the
// stripe-pressure signal; ns/op the end-to-end cost of a hit.
func BenchmarkCacheContention(b *testing.B) {
	in, ks := benchFormulas(256)
	c := NewCache(0)
	for i := range ks {
		c.put(ks[i], in, verdict{r: Unsat}, 0, 0)
	}
	var i64 atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		j := int(i64.Add(1)) * 17
		for pb.Next() {
			j++
			k := j & 255
			if v, ok := c.get(ks[k], in, 0, 0, false); !ok || v.r != Unsat {
				b.Fatal("miss on warmed cache")
			}
		}
	})
	b.ReportMetric(float64(c.Stats().Contended)/float64(b.N), "contended/op")
}

// BenchmarkCachePut measures the store path, including FIFO eviction once
// the per-shard bound is hit.
func BenchmarkCachePut(b *testing.B) {
	in, ks := benchFormulas(256)
	c := NewCache(4 * cacheShards)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 255
		c.put(ks[k], in, verdict{r: Unsat}, 0, 0)
	}
}

// BenchmarkCheckCached times what TestCheckCachedAllocation bounds: a
// cache-served Solver.Check, interner walk and lookup included.
func BenchmarkCheckCached(b *testing.B) {
	s := New()
	fs := make([]logic.Formula, 8)
	for k := range fs {
		fs[k] = benchFormula(int64(k))
		s.Check(fs[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Check(fs[i&7])
	}
}

// TestCacheGetHitAllocation pins the lookup hot path allocation-free: with
// the key precomputed by the asker, a Get is a mask, a mutex, and a
// bucket scan — no rendering, no hashing, no garbage.
func TestCacheGetHitAllocation(t *testing.T) {
	in, ks := benchFormulas(8)
	c := NewCache(0)
	for i := range ks {
		c.put(ks[i], in, verdict{r: Unsat}, 0, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range ks {
			if v, ok := c.get(ks[i], in, 0, 0, false); !ok || v.r != Unsat {
				t.Fatal("miss on warmed cache")
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("cache hits allocated %.1f times per 8 lookups; the text-key rendering has crept back in", allocs)
	}
}

// TestCheckCachedAllocation bounds the whole cache-served Solver.Check: one
// interner walk (all dedup hits) plus the lookup. The text-keyed pipeline
// rendered the formula to a string on every call; a regression shows up as
// an allocation count proportional to formula size.
func TestCheckCachedAllocation(t *testing.T) {
	s := New()
	f := benchFormula(0)
	if got := s.Check(f); got != Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got := s.Check(f); got != Sat {
			t.Fatal("verdict changed")
		}
	})
	if allocs > 4 {
		t.Fatalf("cache-served Check allocated %.1f times; key building has regressed into the hot path", allocs)
	}
}
