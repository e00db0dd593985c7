// Package shard is the live query registry — the one surface a live pass
// (engine.WhereSharded) is served from. A ShardedRegistry buckets incoming
// UDFs by the similarity signature consolidate.FeatureSignature derives
// from their feature sets, and each cluster owns a registry.Registry of its
// own — merge tree, content-keyed node cache, and synthesized admission
// guard. Add/Remove touch exactly one
// cluster, so the incremental rebuild a change triggers re-merges
// O(log cluster-size) small programs instead of O(log N) programs whose
// roots span every live query, and unrelated queries never bloat each
// other's merged program or guard.
//
// Consolidation quality survives the split because the signature is built
// from the same features the related() heuristic consolidates on: queries
// that would cross-simplify land in the same cluster, and queries that
// share nothing were never going to help each other anyway.
//
// A cluster that grows past its size threshold is rebalanced by splitting
// around its two least-similar members; moved queries keep their QueryID
// while re-entering the target cluster's registry through the ordinary
// delta-snapshot path, so the engine's exactness guarantees hold
// mid-rebalance. One global merge tree over every query is the
// configuration Options{MaxClusterSize: math.MaxInt, MinSimilarity: -1}:
// every query joins the first cluster and it never splits.
//
// Rebuilds are caller-driven: the registry starts no goroutine, and a
// cluster is re-consolidated only on Rebuild or Flush. Until then every
// change is served by its cluster's delta snapshot.
//
// Snapshots are atomic across clusters: every mutation and every Rebuild
// publishes one Snapshot holding each cluster's current registry snapshot
// under a single monotone generation. A query has one id
// everywhere: the cluster registries are handed the shard's QueryID. The
// engine's WhereSharded operator loads the snapshot once per batch and
// swaps generations only at batch boundaries, so no record is dropped or
// double-notified during a swap.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/registry"
	"consolidation/internal/smt"
)

// QueryID is the stable handle of one subscribed query. It survives
// rebalancing, and it is the registry.QueryID its cluster knows it by.
type QueryID uint64

// DefaultMaxClusterSize is the split threshold when Options leaves it zero:
// big enough that a cluster's merged program amortizes real sharing, small
// enough that its incremental rebuild stays in the low milliseconds.
const DefaultMaxClusterSize = 64

// DefaultMinSimilarity is the affinity a query must have to the best
// existing cluster centroid to join it rather than open a new cluster.
const DefaultMinSimilarity = 0.25

// Options configures a ShardedRegistry.
type Options struct {
	// Registry is the per-cluster registry configuration. The SMT cache is
	// shared across all clusters (nil creates one).
	Registry registry.Options
	// MaxClusterSize is the size past which a cluster is split;
	// 0 means DefaultMaxClusterSize.
	MaxClusterSize int
	// MinSimilarity is the centroid affinity required to join an existing
	// cluster; below it a new cluster opens. 0 means DefaultMinSimilarity;
	// negative means always join the most similar cluster (size splits
	// still apply).
	MinSimilarity float64
}

func (o Options) maxClusterSize() int {
	if o.MaxClusterSize > 0 {
		return o.MaxClusterSize
	}
	return DefaultMaxClusterSize
}

func (o Options) minSimilarity() float64 {
	if o.MinSimilarity != 0 {
		return o.MinSimilarity
	}
	return DefaultMinSimilarity
}

// ClusterSnapshot is one cluster's contribution to a shard snapshot: its
// registry's current snapshot.
type ClusterSnapshot struct {
	ID   int
	Snap *registry.Snapshot
}

// Snapshot is one atomically published view across all clusters. The
// engine loads it once per batch; Gen increases with every publish, from
// any cluster or the shard layer itself.
type Snapshot struct {
	Gen      uint64
	Clusters []ClusterSnapshot
}

// Clean reports whether every cluster's snapshot reflects its live set.
func (s *Snapshot) Clean() bool {
	for i := range s.Clusters {
		if !s.Clusters[i].Snap.Clean() {
			return false
		}
	}
	return true
}

// LiveIDs returns the ids live in this snapshot, in cluster order then
// cluster-internal order.
func (s *Snapshot) LiveIDs() []QueryID {
	var out []QueryID
	for i := range s.Clusters {
		for _, id := range s.Clusters[i].Snap.LiveIDs() {
			out = append(out, QueryID(id))
		}
	}
	return out
}

// Stats summarises shard activity.
type Stats struct {
	Gen      uint64
	Queries  int
	Clusters int
	Adds     uint64
	Removes  uint64
	// Splits counts rebalance operations; Moves counts queries relocated
	// by them.
	Splits uint64
	Moves  uint64
}

// ClusterStat describes one live cluster.
type ClusterStat struct {
	ID   int
	Size int
	// MergedSize is the AST size of the cluster's current consolidated
	// program (0 before its first rebuild or when drained).
	MergedSize int
	Pending    int
	Clean      bool
	Registry   registry.Stats
}

type member struct {
	id   QueryID
	prog *lang.Program
	sig  consolidate.Signature
	c    *cluster
}

type cluster struct {
	id       int
	reg      *registry.Registry
	order    []*member // insertion order; deterministic iteration
	centroid consolidate.Signature
}

// ShardedRegistry is the similarity-sharded query-lifecycle subsystem.
// All methods are safe for concurrent use. Programs handed to Add must not
// be mutated afterwards.
type ShardedRegistry struct {
	opts Options

	mu       sync.Mutex // guards the fields below
	clusters []*cluster
	members  map[QueryID]*member
	param    string // the record parameter every query names
	nextID   QueryID
	nextCID  int
	gen      uint64
	stats    Stats

	snap atomic.Pointer[Snapshot]
}

// New creates a sharded registry. It starts no goroutine: clusters are
// re-consolidated only when the caller calls Rebuild or Flush.
func New(opts Options) (*ShardedRegistry, error) {
	if opts.Registry.Consolidate.Solver != nil {
		return nil, fmt.Errorf("shard: Options.Registry.Consolidate.Solver is not supported; share a Cache instead")
	}
	if opts.Registry.Consolidate.Cache == nil {
		opts.Registry.Consolidate.Cache = smt.NewCache(0)
	}
	s := &ShardedRegistry{
		opts:    opts,
		members: map[QueryID]*member{},
		nextID:  1,
	}
	s.snap.Store(&Snapshot{})
	return s, nil
}

// Close does nothing: the registry starts no goroutine and holds nothing
// to release. The last published snapshot remains readable.
func (s *ShardedRegistry) Close() {}

// Snapshot returns the current cross-cluster generation; the returned
// value is immutable.
func (s *ShardedRegistry) Snapshot() *Snapshot { return s.snap.Load() }

// Size reports the number of live queries across all clusters.
func (s *ShardedRegistry) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

// Stats snapshots shard counters.
func (s *ShardedRegistry) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Gen = s.gen
	st.Queries = len(s.members)
	st.Clusters = len(s.clusters)
	return st
}

// ClusterStats describes every live cluster, in cluster order.
func (s *ShardedRegistry) ClusterStats() []ClusterStat {
	s.mu.Lock()
	cls := append([]*cluster(nil), s.clusters...)
	s.mu.Unlock()
	out := make([]ClusterStat, 0, len(cls))
	for _, c := range cls {
		snap := c.reg.Snapshot()
		st := ClusterStat{
			ID:       c.id,
			Size:     c.reg.Size(),
			Pending:  len(snap.Pending),
			Clean:    snap.Clean(),
			Registry: c.reg.Stats(),
		}
		if snap.Merged != nil {
			st.MergedSize = lang.Size(snap.Merged.Body)
		}
		out = append(out, st)
	}
	return out
}

// Add subscribes a query: its similarity signature routes it to the most
// affine cluster (or opens a new one), and the cluster's delta snapshot
// makes it live immediately; the next Rebuild re-consolidates that cluster
// (and the one a split opens) alone. Only the target cluster is touched —
// every other cluster's merge tree and guard are untouched by
// construction. The program
// must take exactly the record parameter a live pass runs it with.
func (s *ShardedRegistry) Add(p *lang.Program) (QueryID, error) {
	if p == nil {
		return 0, fmt.Errorf("shard: nil program")
	}
	if len(p.Params) != 1 {
		return 0, fmt.Errorf("shard: query %s must take exactly the record parameter, takes %d", p.Name, len(p.Params))
	}
	sig := consolidate.FeatureSignature(p)

	s.mu.Lock()
	if len(s.members) == 0 {
		s.param = p.Params[0]
	} else if p.Params[0] != s.param {
		s.mu.Unlock()
		return 0, fmt.Errorf("shard: query %s names its record parameter %q, registry uses %q", p.Name, p.Params[0], s.param)
	}

	c, created := s.routeLocked(sig)
	id := s.nextID
	if err := c.reg.Add(registry.QueryID(id), p); err != nil {
		if created {
			s.dropClusterLocked(c)
		}
		s.mu.Unlock()
		return 0, err
	}
	s.nextID++
	m := &member{id: id, prog: p, sig: sig, c: c}
	s.members[id] = m
	c.order = append(c.order, m)
	c.centroid = c.centroid.Merge(sig)
	s.stats.Adds++

	if err := s.maybeSplitLocked(c); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.publishLocked()
	s.mu.Unlock()
	return id, nil
}

// Remove unsubscribes a query: its cluster's delta snapshot suppresses it
// from the next admitted record on, and the next Rebuild re-consolidates
// that cluster. A drained cluster is dropped entirely.
func (s *ShardedRegistry) Remove(id QueryID) error {
	s.mu.Lock()
	m, ok := s.members[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("shard: unknown query id %d", id)
	}
	c := m.c
	if err := c.reg.Remove(registry.QueryID(id)); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("shard: cluster %d: %w", c.id, err)
	}
	delete(s.members, id)
	for i, mm := range c.order {
		if mm == m {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	s.stats.Removes++
	if len(c.order) == 0 {
		s.dropClusterLocked(c)
	} else {
		s.recentroidLocked(c)
	}
	s.publishLocked()
	s.mu.Unlock()
	return nil
}

// Rebuild re-consolidates every dirty cluster now and publishes the
// result; it returns the number of clusters rebuilt. Clean clusters are
// not touched — this is what keeps a churn event's rebuild cost bounded by
// the one cluster it dirtied.
func (s *ShardedRegistry) Rebuild() (int, error) {
	s.mu.Lock()
	cls := append([]*cluster(nil), s.clusters...)
	s.mu.Unlock()
	rebuilt := 0
	for _, c := range cls {
		if c.reg.Snapshot().Clean() {
			continue
		}
		if _, err := c.reg.Flush(); err != nil {
			return rebuilt, fmt.Errorf("shard: cluster %d: %w", c.id, err)
		}
		rebuilt++
	}
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return rebuilt, nil
}

// Flush rebuilds until the published snapshot reflects the live set of
// every cluster and returns that clean snapshot (assuming no concurrent
// churn).
func (s *ShardedRegistry) Flush() (*Snapshot, error) {
	for {
		if _, err := s.Rebuild(); err != nil {
			return nil, err
		}
		snap := s.Snapshot()
		if snap.Clean() {
			return snap, nil
		}
	}
}

// routeLocked picks the cluster a signature joins: the most affine
// centroid when it clears the similarity bar, a fresh cluster otherwise.
func (s *ShardedRegistry) routeLocked(sig consolidate.Signature) (*cluster, bool) {
	var best *cluster
	bestSim := -1.0
	for _, c := range s.clusters {
		if sim := sig.Similarity(c.centroid); sim > bestSim {
			best, bestSim = c, sim
		}
	}
	if best != nil && bestSim >= s.opts.minSimilarity() {
		return best, false
	}
	return s.newClusterLocked(), true
}

func (s *ShardedRegistry) newClusterLocked() *cluster {
	reg, err := registry.New(s.opts.Registry)
	if err != nil {
		// Options were validated in New; per-cluster construction cannot
		// fail after that.
		panic(fmt.Sprintf("shard: cluster registry: %v", err))
	}
	c := &cluster{id: s.nextCID, reg: reg}
	s.nextCID++
	s.clusters = append(s.clusters, c)
	return c
}

func (s *ShardedRegistry) dropClusterLocked(c *cluster) {
	for i, cc := range s.clusters {
		if cc == c {
			s.clusters = append(s.clusters[:i], s.clusters[i+1:]...)
			break
		}
	}
}

func (s *ShardedRegistry) recentroidLocked(c *cluster) {
	var cen consolidate.Signature
	for _, m := range c.order {
		cen = cen.Merge(m.sig)
	}
	c.centroid = cen
}

// maybeSplitLocked applies the rebalance policy to a cluster that just
// grew: split when it is past the size threshold.
func (s *ShardedRegistry) maybeSplitLocked(c *cluster) error {
	if len(c.order) <= s.opts.maxClusterSize() || len(c.order) < 2 {
		return nil
	}
	return s.splitLocked(c)
}

// splitLocked rebalances one cluster: the two least-similar members seed
// two sides, every member joins the side it is more similar to (ties
// alternate, so identical-signature clusters still split evenly), and the
// second side moves into a fresh cluster through ordinary Remove/Add under
// its own id — delta snapshots keep every moved query live throughout.
func (s *ShardedRegistry) splitLocked(c *cluster) error {
	n := len(c.order)
	ai, bi := 0, n-1
	bestSim := 2.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sim := c.order[i].sig.Similarity(c.order[j].sig); sim < bestSim {
				bestSim, ai, bi = sim, i, j
			}
		}
	}
	seedA, seedB := c.order[ai], c.order[bi]
	var stay, move []*member
	for i, m := range c.order {
		switch {
		case m == seedA:
			stay = append(stay, m)
		case m == seedB:
			move = append(move, m)
		default:
			simA, simB := m.sig.Similarity(seedA.sig), m.sig.Similarity(seedB.sig)
			if simA > simB || (simA == simB && i%2 == 0) {
				stay = append(stay, m)
			} else {
				move = append(move, m)
			}
		}
	}
	if len(move) == 0 || len(stay) == 0 {
		return nil
	}
	nc := s.newClusterLocked()
	for _, m := range move {
		if err := c.reg.Remove(registry.QueryID(m.id)); err != nil {
			return fmt.Errorf("shard: split remove: %w", err)
		}
		if err := nc.reg.Add(registry.QueryID(m.id), m.prog); err != nil {
			return fmt.Errorf("shard: split re-add: %w", err)
		}
		m.c = nc
	}
	c.order = stay
	nc.order = move
	s.recentroidLocked(c)
	s.recentroidLocked(nc)
	s.stats.Splits++
	s.stats.Moves += uint64(len(move))
	return nil
}

// publishLocked assembles and stores the cross-cluster snapshot under one
// new generation.
func (s *ShardedRegistry) publishLocked() {
	s.gen++
	cs := make([]ClusterSnapshot, 0, len(s.clusters))
	for _, c := range s.clusters {
		cs = append(cs, ClusterSnapshot{ID: c.id, Snap: c.reg.Snapshot()})
	}
	s.snap.Store(&Snapshot{Gen: s.gen, Clusters: cs})
}
