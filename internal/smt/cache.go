package smt

import (
	"sync"
	"sync/atomic"

	"consolidation/internal/logic"
)

// Cache is a concurrency-safe query cache shared between Solver instances.
// Entries are keyed by the formula's precomputed 64-bit structural hash
// (computed once at interning time by the hash-consing arena in
// internal/logic) and striped over a fixed number of shards, each guarded
// by its own mutex, so parallel consolidation workers rarely contend on the
// same lock. Structural hashes are interner-independent — two workers
// interning the same formula into private arenas compute the same hash —
// so verdicts flow between workers exactly as the old text keys allowed,
// without rendering a single byte. Hash collisions are resolved by bucket
// lists verified against a canonical byte encoding of the formula
// (logic.AppendEncoding), so a collision can cost a comparison but never
// a wrong verdict. Entries keep only that flat encoding — not the
// formula tree — so a full cache is nearly free for the garbage
// collector to trace.
//
// The divide-and-conquer driver in internal/consolidate injects one Cache
// into every pair worker: later pairs and later levels re-issue many
// queries that earlier ones already solved, and the shared cache turns
// those into lookups.
//
// Decided verdicts (Sat/Unsat) are cached unconditionally — they are true
// forever. Unknown verdicts are budget-capped artefacts, not facts about
// the formula: an entry produced under MaxConflicts=100 must not shadow a
// later query that is willing to spend 200000 conflicts. Unknown entries
// therefore carry the budget that produced them and hit only for queries
// whose budget does not exceed it (a smaller budget cannot do better).
//
// A check that asks for its assignment (Solver.CheckModel,
// Context.CheckAssumingModel) stores it with the verdict, and every hit
// of such a check returns it, so a warm run prunes exactly what the cold
// run pruned. Verdicts stored by checks that did not ask carry none and
// do not answer one that does.
//
// The zero Cache is not usable; construct with NewCache.
type Cache struct {
	shards [cacheShards]cacheShard
	// maxPerShard bounds each shard's entry count; 0 means unbounded.
	// Eviction is FIFO per shard: consolidation queries have strong level
	// locality, so dropping the oldest entries first is a good fit and
	// keeps eviction O(1).
	maxPerShard int

	lookups   atomic.Uint64
	hits      atomic.Uint64
	stores    atomic.Uint64
	evictions atomic.Uint64
	contended atomic.Uint64
}

// cacheShards is a power of two so the hash can be masked, large enough
// that GOMAXPROCS workers hashing uniformly rarely collide on a stripe.
const cacheShards = 64

type cacheShard struct {
	mu sync.Mutex
	// m buckets entries by structural hash; each bucket holds the formulas
	// (almost always exactly one) sharing that hash, oldest first.
	m     map[uint64][]hashEntry
	order []uint64 // insertion order of entry hashes, for FIFO eviction
}

// hashEntry is one cached verdict together with the canonical encoding
// of the formula that keys it, kept for collision verification.
type hashEntry struct {
	enc []byte
	e   cacheEntry
}

// cacheEntry records a verdict, with the assignment that came with it when
// the check that computed it asked for one; for Unknown it also records the
// budget that failed to decide the query.
type cacheEntry struct {
	v         verdict
	conflicts int
	lazyIters int
}

// CacheStats is a point-in-time snapshot of the cache counters. Counters
// accumulate over the cache's lifetime, so callers comparing runs should
// use a fresh Cache per run or diff snapshots.
type CacheStats struct {
	Lookups   uint64
	Hits      uint64
	Stores    uint64
	Evictions uint64
	// Contended counts lock acquisitions that found the shard mutex held
	// by another goroutine — a direct measure of stripe contention.
	Contended uint64
	Entries   int
	Shards    int
}

// HitRate is Hits/Lookups in [0,1]; 0 when nothing was looked up.
func (cs CacheStats) HitRate() float64 {
	if cs.Lookups == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(cs.Lookups)
}

// NewCache returns a cache bounded to roughly maxEntries entries
// (0 = unbounded). The bound is approximate: it is split evenly across
// shards and enforced per shard.
func NewCache(maxEntries int) *Cache {
	c := &Cache{}
	if maxEntries > 0 {
		c.maxPerShard = (maxEntries + cacheShards - 1) / cacheShards
		if c.maxPerShard < 1 {
			c.maxPerShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i].m = map[uint64][]hashEntry{}
	}
	return c
}

// shardOf stripes by the structural hash. The hash is already well mixed
// (splitmix finalizer), so masking low bits is uniform, and it is
// deterministic across processes, which keeps shard assignment (and
// therefore eviction behaviour) reproducible run to run. O(1): no bytes
// are hashed per call.
func shardOf(h uint64) uint32 {
	return uint32(h) & (cacheShards - 1)
}

// lock acquires the shard mutex, counting contention.
func (c *Cache) lock(sh *cacheShard) {
	if sh.mu.TryLock() {
		return
	}
	c.contended.Add(1)
	sh.mu.Lock()
}

// find locates the node's entry in a bucket; callers hold the shard lock.
func bucketFind(bucket []hashEntry, in *logic.Interner, id logic.NodeID) int {
	for i := range bucket {
		if in.EncodingMatches(id, bucket[i].enc) {
			return i
		}
	}
	return -1
}

// get looks up a verdict for the interned formula id (whose precomputed
// structural hash is h) under the given solver budget. Decided entries
// always hit; an Unknown entry hits only when the query's budget is no
// larger than the budget that produced it. A lookup that wants the
// assignment hits only an entry computed for a check that asked for one,
// or an Unsat, which never has one. get allocates nothing.
func (c *Cache) get(h uint64, in *logic.Interner, id logic.NodeID, conflicts, lazyIters int, want bool) (verdict, bool) {
	c.lookups.Add(1)
	sh := &c.shards[shardOf(h)]
	c.lock(sh)
	var e cacheEntry
	ok := false
	if bucket := sh.m[h]; bucket != nil {
		if i := bucketFind(bucket, in, id); i >= 0 {
			e, ok = bucket[i].e, true
		}
	}
	sh.mu.Unlock()
	if !ok {
		return verdict{}, false
	}
	if e.v.r == Unknown && (conflicts > e.conflicts || lazyIters > e.lazyIters) {
		// The caller has more budget than the run that gave up; the query
		// may well be decidable now. Miss, so it is re-solved.
		return verdict{}, false
	}
	if !e.v.answers(want) {
		// Stored by a check that did not ask; solving again yields the
		// assignment, and the verdict is the same.
		return verdict{}, false
	}
	c.hits.Add(1)
	return e.v, true
}

// put stores a verdict computed under the given budget and reports whether
// it was stored. Decided verdicts replace anything, including a stale
// Unknown, but keep the assignment an equal verdict already carries. An
// Unknown is stored together with its budget — it can answer only queries
// with no more budget than that — and never overwrites a decided entry.
func (c *Cache) put(h uint64, in *logic.Interner, id logic.NodeID, v verdict, conflicts, lazyIters int) bool {
	sh := &c.shards[shardOf(h)]
	c.lock(sh)
	defer sh.mu.Unlock()
	bucket := sh.m[h]
	idx := bucketFind(bucket, in, id)
	e := cacheEntry{v: v}
	if idx >= 0 && !v.asked && bucket[idx].e.v.r == v.r {
		e.v = bucket[idx].e.v
	}
	if v.r == Unknown {
		if idx >= 0 && bucket[idx].e.v.r != Unknown {
			// A budget-capped Unknown must never shadow a decided verdict.
			return false
		}
		e.conflicts, e.lazyIters = conflicts, lazyIters
		if idx >= 0 {
			// Keep the largest budget seen so equally-budgeted re-queries
			// keep hitting after a racing lower-budget store.
			if old := bucket[idx].e; old.conflicts > e.conflicts {
				e.conflicts = old.conflicts
			}
			if old := bucket[idx].e; old.lazyIters > e.lazyIters {
				e.lazyIters = old.lazyIters
			}
		}
	}
	if idx < 0 {
		if c.maxPerShard > 0 && len(sh.order) >= c.maxPerShard {
			victim := sh.order[0]
			sh.order = sh.order[1:]
			vb := sh.m[victim]
			// The oldest entry under that hash is the bucket head.
			if len(vb) <= 1 {
				delete(sh.m, victim)
			} else {
				sh.m[victim] = vb[1:]
			}
			c.evictions.Add(1)
		}
		sh.order = append(sh.order, h)
		sh.m[h] = append(sh.m[h], hashEntry{enc: in.AppendEncoding(nil, id), e: e})
	} else {
		bucket[idx].e = e
	}
	c.stores.Add(1)
	return true
}

// Len reports the current number of entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		c.lock(sh)
		for _, bucket := range sh.m {
			n += len(bucket)
		}
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Lookups:   c.lookups.Load(),
		Hits:      c.hits.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
		Contended: c.contended.Load(),
		Entries:   c.Len(),
		Shards:    cacheShards,
	}
}
