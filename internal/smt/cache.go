package smt

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"consolidation/internal/logic"
)

// Cache is a concurrency-safe query cache shared between Solver instances.
// Entries are keyed modulo α-renaming: by the hash of the formula's
// α-canonical encoding (logic.AlphaKey), which writes each variable as the
// number of its first occurrence, and striped over a fixed number of
// shards, each guarded by its own mutex, so parallel consolidation workers
// rarely contend on the same lock. The key is interner-independent and
// name-blind: a verdict one worker solved for q1_x < q1_y answers another
// worker's q3_x < q3_y. The asker builds the key once and passes it to
// both lookup and store. Hash collisions are resolved by bucket lists
// verified by comparing the stored encoding's bytes, so a collision can
// cost a comparison but never a wrong verdict. Entries keep only flat
// bytes — the encoding and the storing check's variable names — not the
// formula tree, so a full cache is nearly free for the garbage collector
// to trace.
//
// Sharing across renamings is exact because the solver is α-invariant: its
// theory interner numbers variables by first occurrence, linear forms are
// sorted by entity id, Nelson–Oppen candidates are ordered by function
// name and argument position, congruence signatures use function names
// and class ids, and the stateless boolean path allocates Tseitin
// variables in walk order. A renamed query gets the same verdict from the
// same work, and the renamed assignment.
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
// run pruned. The assignment is in the storing check's variable names; a
// hit from a check whose names differ gets a copy renamed position by
// position in first-occurrence order (function tables name no variables
// and are shared). Verdicts stored by checks that did not ask carry none
// and do not answer one that does.
//
// The DPLL(T) loop's theory checks are entries too (Solver.lazy): keyed by
// the conjunction of the literals a boolean model assigns, in atom
// variable order, they hold the check's verdict and, for an Unsat, its
// minimized conflict core as positions in that list. Such a lemma is true
// of its list whatever search proposed it, so unlike a warm instance's
// verdict it is published. Lemma lookups are not counted as lookups or
// hits: those count queries.
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
	renamed   atomic.Uint64
	stores    atomic.Uint64
	evictions atomic.Uint64
	contended atomic.Uint64
}

// cacheShards is a power of two so the hash can be masked, large enough
// that GOMAXPROCS workers hashing uniformly rarely collide on a stripe.
const cacheShards = 64

type cacheShard struct {
	mu sync.Mutex
	// m buckets entries by α-hash; each bucket holds the α-classes (almost
	// always exactly one) sharing that hash, oldest first.
	m     map[uint64][]hashEntry
	order []uint64 // insertion order of entry hashes, for FIFO eviction
}

// hashEntry is one cached verdict together with the α-canonical encoding
// of the formula that keys it, kept for collision verification, and the
// variable names of the check whose verdict it holds, in first-occurrence
// order, each prefixed by its length.
type hashEntry struct {
	enc   []byte
	names []byte
	e     cacheEntry
}

// cacheEntry records a verdict, with the assignment that came with it when
// the check that computed it asked for one; for Unknown it also records the
// budget that failed to decide the query. An Unsat conjunction of literals
// may carry its minimized conflict core: the positions, ascending, of the
// literals that stay inconsistent (Solver.lazy).
type cacheEntry struct {
	v         verdict
	core      []int32
	conflicts int
	lazyIters int
}

// CacheStats is a point-in-time snapshot of the cache counters. Counters
// accumulate over the cache's lifetime, so callers comparing runs should
// use a fresh Cache per run or diff snapshots.
type CacheStats struct {
	Lookups uint64
	Hits    uint64
	// Renamed counts the hits answered by an entry stored under other
	// variable names than the asker's: the sharing α-keys add.
	Renamed   uint64
	Stores    uint64
	Evictions uint64
	// Contended counts lock acquisitions that found the shard mutex held
	// by another goroutine — a direct measure of stripe contention.
	Contended uint64
	Entries   int
	Shards    int
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

// shardOf stripes by the α-hash. The hash is already well mixed (splitmix
// finalizer), so masking low bits is uniform, and it is deterministic
// across processes, which keeps shard assignment (and therefore eviction
// behaviour) reproducible run to run.
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

// find locates the key's α-class in the shard's bucket; callers hold the
// shard lock.
func (sh *cacheShard) find(k logic.AlphaKey) int {
	bucket := sh.m[k.Hash]
	for i := range bucket {
		if bytes.Equal(bucket[i].enc, k.Enc) {
			return i
		}
	}
	return -1
}

// appendNames appends the variables' names, each prefixed by its length.
func appendNames(dst []byte, in *logic.Interner, vars []logic.VarID) []byte {
	for _, v := range vars {
		name := in.VarName(v)
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// nextName splits the first length-prefixed name off names.
func nextName(names []byte) (name, rest []byte) {
	l, n := binary.Uvarint(names)
	return names[n : n+int(l)], names[n+int(l):]
}

// sameNames reports whether names spells the variables' names.
func sameNames(names []byte, in *logic.Interner, vars []logic.VarID) bool {
	for _, v := range vars {
		var name []byte
		name, names = nextName(names)
		if string(name) != in.VarName(v) {
			return false
		}
	}
	return true
}

// renameModel returns m with its variables renamed position by position
// from the stored names to the asker's variables. The function table names
// no variables, so the copy shares it.
func renameModel(m *logic.Model, names []byte, in *logic.Interner, vars []logic.VarID) *logic.Model {
	out := &logic.Model{Vars: make(map[string]int64, len(m.Vars)), Table: m.Table}
	for _, v := range vars {
		var name []byte
		name, names = nextName(names)
		if val, ok := m.Vars[string(name)]; ok {
			out.Vars[in.VarName(v)] = val
		}
	}
	return out
}

// lookup returns the entry stored for k and the storing check's names, if
// it answers a query under the given budget: decided entries always do; an
// Unknown entry only when the query's budget is no larger than the budget
// that produced it. A lookup that wants the assignment hits only an entry
// computed for a check that asked for one, or an Unsat, which never has
// one. lookup counts nothing.
func (c *Cache) lookup(k logic.AlphaKey, conflicts, lazyIters int, want bool) (cacheEntry, []byte, bool) {
	sh := &c.shards[shardOf(k.Hash)]
	c.lock(sh)
	var e cacheEntry
	var names []byte
	i := sh.find(k)
	if i >= 0 {
		// put replaces an entry's names and core and never writes into
		// them, so the slices stay valid after the unlock.
		entry := &sh.m[k.Hash][i]
		e, names = entry.e, entry.names
	}
	sh.mu.Unlock()
	if i < 0 {
		return cacheEntry{}, nil, false
	}
	if e.v.r == Unknown && (conflicts > e.conflicts || lazyIters > e.lazyIters) {
		// The caller has more budget than the run that gave up; the query
		// may well be decidable now. Miss, so it is re-solved.
		return cacheEntry{}, nil, false
	}
	if !e.v.answers(want) {
		// Stored by a check that did not ask; solving again yields the
		// assignment, and the verdict is the same.
		return cacheEntry{}, nil, false
	}
	return e, names, true
}

// get looks up a query's verdict by the α-key k built in the interner in,
// under lookup's rules, and counts the lookup. get allocates nothing,
// except the renamed copy of an assignment stored under other names.
func (c *Cache) get(k logic.AlphaKey, in *logic.Interner, conflicts, lazyIters int, want bool) (verdict, bool) {
	c.lookups.Add(1)
	e, names, ok := c.lookup(k, conflicts, lazyIters, want)
	if !ok {
		return verdict{}, false
	}
	c.hits.Add(1)
	if !sameNames(names, in, k.Vars) {
		c.renamed.Add(1)
		if e.v.m != nil {
			e.v.m = renameModel(e.v.m, names, in, k.Vars)
		}
	}
	return e.v, true
}

// put stores a verdict computed under the given budget, and with an Unsat
// the conflict core (nil for none), and reports whether it was stored.
// Decided verdicts replace anything, including a stale Unknown, but keep
// the assignment an equal verdict already carries, and an Unsat keeps the
// core already stored. An Unknown is stored together with its budget — it
// can answer only queries with no more budget than that — and never
// overwrites a decided entry. The entry takes the asker's variable names
// with the asker's verdict.
func (c *Cache) put(k logic.AlphaKey, in *logic.Interner, v verdict, core []int32, conflicts, lazyIters int) bool {
	h := k.Hash
	sh := &c.shards[shardOf(h)]
	c.lock(sh)
	defer sh.mu.Unlock()
	bucket := sh.m[h]
	idx := sh.find(k)
	e := cacheEntry{v: v, core: core}
	kept := idx >= 0 && !v.asked && bucket[idx].e.v.r == v.r
	if kept {
		e.v = bucket[idx].e.v
	}
	if idx >= 0 && core == nil {
		// Only an Unsat carries a core, and a decided entry is replaced
		// only by an equal verdict.
		e.core = bucket[idx].e.core
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
		key := append([]byte(nil), k.Enc...)
		n := len(key)
		key = appendNames(key, in, k.Vars)
		sh.m[h] = append(sh.m[h], hashEntry{enc: key[:n:n], names: key[n:], e: e})
	} else {
		entry := &bucket[idx]
		if !kept && !sameNames(entry.names, in, k.Vars) {
			entry.names = appendNames(nil, in, k.Vars)
		}
		entry.e = e
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
		Renamed:   c.renamed.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
		Contended: c.contended.Load(),
		Entries:   c.Len(),
		Shards:    cacheShards,
	}
}
