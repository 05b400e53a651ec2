//! The topology-epoch path cache.
//!
//! Path planning is the engine's hot loop: every payment admission runs
//! one or more graph searches over a topology that changes rarely. The
//! cache memoizes the plans that read the topology and channel *totals*
//! only, keyed by `(source, dest, scheme-view class)`, and serves an
//! entry only while [`pcn_graph::Graph::topology_epoch`] is unchanged
//! since it was computed. A total is constant for a channel's lifetime,
//! so **a cache hit is bit-identical to recomputation** — pinned for all
//! six schemes by `tests/determinism.rs`. Entries are stored as
//! `Arc<[Path]>`, so a hit hands out a reference-counted plan instead of
//! deep-cloning it.
//!
//! Plans over live balances ([`crate::paths::BalanceView::Live`]:
//! Splicer's hub middles and any live ablation cell) are not cached;
//! the engine computes them on every plan. Every cross-hub TU locks and
//! settles on the hub backbone those middles read, so an entry keyed to
//! the balances it read would almost never be fresh again: one scoped
//! to exactly those channels was reused on under 1 % of its lookups on
//! the e2ebench workloads.
//!
//! The cache is bounded by entry count ([`PathCache::capacity`]). When
//! inserting would exceed it, the cache evicts the first stale entry
//! among a constant-size window of the oldest entries (insertion order),
//! falling back to the oldest entry when none in the window is stale —
//! stale entries go first without a miss ever paying an O(capacity)
//! scan. Eviction is deterministic (insertion order, never hash order),
//! which keeps the diagnostic counters — and therefore whole `RunStats`
//! — reproducible across runs.
//!
//! Hit/miss/invalidation/eviction counters are exported into
//! [`crate::stats::RunStats`] (and from there into every harness grid
//! cell and `probe`) so the cache's effectiveness is visible per
//! experiment.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use pcn_graph::Path;
use pcn_types::NodeId;

/// Which kind of plan a cached entry holds. One engine runs one scheme,
/// but a single scheme can issue differently-shaped queries for the same
/// endpoint pair (Flash: a mice pool *and* an elephant max-flow plan;
/// Splicer: per-leg sub-plans), so the class is part of the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanClass {
    /// The scheme's full path plan for a payment.
    Plan,
    /// Flash's precomputed mice path pool (one path is drawn per payment).
    MicePool,
    /// Flash's elephant max-flow decomposition.
    Elephant,
    /// A hub scheme's client↔hub access leg (`source → hub_s` or
    /// `hub_r → dest`): a pure topology lookup, cached capacity-only.
    HubLeg,
    /// A hub scheme's inter-hub middle segment (`hub_s → hub_r`), cached
    /// only when the scheme plans over channel totals (a live-balance
    /// middle is computed on every plan).
    HubMiddle,
}

/// Cache key: endpoints plus the scheme-view class of the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Payment source (or sub-query source).
    pub source: NodeId,
    /// Payment destination.
    pub dest: NodeId,
    /// Query class.
    pub class: PlanClass,
}

impl CacheKey {
    /// Key for a scheme's full plan.
    pub fn plan(source: NodeId, dest: NodeId) -> CacheKey {
        CacheKey {
            source,
            dest,
            class: PlanClass::Plan,
        }
    }

    /// Key for a hub access leg (`from` endpoint to `to` endpoint).
    pub fn hub_leg(from: NodeId, to: NodeId) -> CacheKey {
        CacheKey {
            source: from,
            dest: to,
            class: PlanClass::HubLeg,
        }
    }

    /// Key for the inter-hub middle segment.
    pub fn hub_middle(hub_s: NodeId, hub_r: NodeId) -> CacheKey {
        CacheKey {
            source: hub_s,
            dest: hub_r,
            class: PlanClass::HubMiddle,
        }
    }
}

/// Hit/miss/invalidation/eviction counters, exported into run
/// statistics. Invalidations are split by cause; the lumped total is
/// [`PathCacheStats::invalidations`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathCacheStats {
    /// Queries served from a fresh entry.
    pub hits: u64,
    /// Queries with no entry at all (first sight of the key).
    pub misses: u64,
    /// Stale entries recomputed because the topology epoch moved
    /// (structural mutations: channel close/open, hub outages, node
    /// additions).
    pub inv_topology: u64,
    /// Always 0: no entry reads live balances, so the topology epoch is
    /// the only cause of staleness. Kept because the e2ebench report
    /// reads it; it goes with the next change to the benchmark.
    pub inv_footprint: u64,
    /// Entries removed to respect the capacity bound.
    pub evictions: u64,
}

impl PathCacheStats {
    /// Total invalidations (stale entries recomputed), across causes.
    pub fn invalidations(&self) -> u64 {
        self.inv_topology + self.inv_footprint
    }

    /// Total queries that went through the cache.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.invalidations()
    }

    /// Fraction of lookups served from cache (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds `other`'s counters into this one, per cause — the
    /// aggregation [`crate::RunStats::merge`] uses. The exhaustive
    /// destructure makes adding a counter without deciding its merge
    /// role a compile error.
    pub fn absorb(&mut self, other: &PathCacheStats) {
        let PathCacheStats {
            hits,
            misses,
            inv_topology,
            inv_footprint,
            evictions,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.inv_topology += inv_topology;
        self.inv_footprint += inv_footprint;
        self.evictions += evictions;
    }
}

struct CacheEntry {
    /// The topology epoch the plan was computed at.
    epoch: u64,
    paths: Arc<[Path]>,
}

/// Default capacity bound (resident entries) of [`PathCache::new`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The topology-epoch path cache; see the module docs for the
/// invalidation contract.
pub struct PathCache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Resident keys in insertion order (each exactly once) — the
    /// deterministic eviction scan order.
    order: VecDeque<CacheKey>,
    capacity: usize,
    stats: PathCacheStats,
}

impl Default for PathCache {
    fn default() -> PathCache {
        PathCache::new()
    }
}

impl PathCache {
    /// Creates an empty cache bounded at [`DEFAULT_CAPACITY`] entries.
    pub fn new() -> PathCache {
        PathCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty cache bounded at `capacity` resident entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> PathCache {
        assert!(capacity > 0, "cache capacity must be positive");
        PathCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            stats: PathCacheStats::default(),
        }
    }

    /// The capacity bound (resident entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the cached paths for `key` while the topology epoch `now`
    /// equals the one they were computed at; otherwise runs `compute`,
    /// stores its result stamped with `now`, and returns it. `compute`
    /// must read the topology and channel totals only. Counters are
    /// updated either way.
    pub fn get_or_compute<F>(&mut self, key: CacheKey, now: u64, compute: F) -> Arc<[Path]>
    where
        F: FnOnce() -> Vec<Path>,
    {
        let stale = match self.entries.get(&key) {
            Some(entry) if entry.epoch == now => {
                self.stats.hits += 1;
                return Arc::clone(&entry.paths);
            }
            found => found.is_some(),
        };
        let paths: Arc<[Path]> = compute().into();
        let entry = CacheEntry {
            epoch: now,
            paths: Arc::clone(&paths),
        };
        if stale {
            // Refreshed in place: the key keeps its place in the order.
            self.stats.inv_topology += 1;
            self.entries.insert(key, entry);
        } else {
            self.stats.misses += 1;
            if self.entries.len() >= self.capacity {
                self.evict_one(now);
            }
            self.entries.insert(key, entry);
            self.order.push_back(key);
        }
        paths
    }

    /// How many of the oldest entries an eviction inspects looking for a
    /// stale victim — a constant bound so a miss on a full cache stays
    /// O(1), not O(capacity).
    const EVICTION_SCAN: usize = 8;

    /// Evicts the first stale entry among the [`Self::EVICTION_SCAN`]
    /// oldest (insertion order), or the oldest entry when none of them
    /// is stale. Deterministic — the scan never depends on hash order.
    fn evict_one(&mut self, now: u64) {
        let pos = self
            .order
            .iter()
            .take(Self::EVICTION_SCAN)
            .position(|k| self.entries.get(k).is_some_and(|e| e.epoch != now))
            .unwrap_or(0);
        let key = self.order.remove(pos).expect("order tracks entries");
        self.entries.remove(&key).expect("order tracks entries");
        self.stats.evictions += 1;
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> PathCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::NetworkFunds;
    use pcn_graph::Graph;
    use pcn_types::Amount;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path01() -> Path {
        let mut g = Graph::new(2);
        let ch = g.add_edge(n(0), n(1));
        Path::new(vec![n(0), n(1)], vec![ch])
    }

    #[test]
    fn first_lookup_is_a_miss_then_hits() {
        let mut cache = PathCache::new();
        let key = CacheKey::plan(n(0), n(1));
        let a = cache.get_or_compute(key, 1, || vec![path01()]);
        let b = cache.get_or_compute(key, 1, || panic!("fresh entry must not recompute"));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].nodes(), b[0].nodes());
        assert_eq!(
            cache.stats(),
            PathCacheStats {
                hits: 1,
                misses: 1,
                ..PathCacheStats::default()
            }
        );
        assert_eq!(cache.stats().invalidations(), 0);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hits_share_the_stored_allocation() {
        let mut cache = PathCache::new();
        let key = CacheKey::plan(n(0), n(1));
        let a = cache.get_or_compute(key, 1, || vec![path01()]);
        let b = cache.get_or_compute(key, 1, Vec::new);
        assert!(Arc::ptr_eq(&a, &b), "a hit must not deep-clone the plan");
    }

    /// An entry reads channel totals only, so funds moving between two
    /// lookups at one topology epoch leave it fresh; the epoch moving
    /// stales it.
    #[test]
    fn capacity_only_entries_survive_funds_movement() {
        let mut g = Graph::new(2);
        let ch = g.add_edge(n(0), n(1));
        let mut funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        let mut cache = PathCache::new();
        let key = CacheKey::plan(n(0), n(1));
        let epoch = g.topology_epoch();
        cache.get_or_compute(key, epoch, || vec![path01()]);
        funds.lock(ch, n(0), Amount::from_tokens(4)).unwrap();
        funds.settle(ch, n(0), Amount::from_tokens(4)).unwrap();
        cache.get_or_compute(key, epoch, || {
            panic!("a capacity-only entry must ignore funds movement")
        });
        assert_eq!(cache.stats().hits, 1);
        // Topology moved: stale, attributed to the topology epoch.
        g.add_node();
        cache.get_or_compute(key, g.topology_epoch(), Vec::new);
        assert_eq!(cache.stats().invalidations(), 1);
        assert_eq!(cache.stats().inv_topology, 1);
    }

    #[test]
    fn classes_partition_the_key_space() {
        let mut cache = PathCache::new();
        let mice = CacheKey {
            source: n(0),
            dest: n(1),
            class: PlanClass::MicePool,
        };
        let elephant = CacheKey {
            source: n(0),
            dest: n(1),
            class: PlanClass::Elephant,
        };
        cache.get_or_compute(mice, 1, || vec![path01()]);
        let got = cache.get_or_compute(elephant, 1, Vec::new).len();
        assert_eq!(got, 0, "elephant entry is distinct from the mice pool");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    /// A stale entry refreshed in place keeps its place in the insertion
    /// order, so after the topology moves the oldest entry can be fresh
    /// while a younger one is stale: the eviction takes the stale one.
    /// With every resident entry fresh it falls back to the oldest.
    #[test]
    fn capacity_bound_evicts_stale_first_then_oldest() {
        let mut cache = PathCache::with_capacity(2);
        // A: the oldest entry; B: younger.
        let a = CacheKey::plan(n(0), n(1));
        let b = CacheKey::plan(n(0), n(2));
        cache.get_or_compute(a, 1, || vec![path01()]);
        cache.get_or_compute(b, 1, || vec![path01()]);
        // The topology moves; A is refreshed in place and stays oldest,
        // B is left stale.
        cache.get_or_compute(a, 2, || vec![path01()]);
        assert_eq!(cache.stats().inv_topology, 1);
        // Inserting C at capacity must evict stale B, not the older A.
        let c = CacheKey::plan(n(0), n(3));
        cache.get_or_compute(c, 2, || vec![path01()]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        cache.get_or_compute(a, 2, || panic!("fresh A must survive the eviction"));
        assert_eq!(cache.stats().hits, 1);
        // B is gone: re-inserting it is a miss, and with every resident
        // entry fresh the eviction falls back to the oldest — A.
        cache.get_or_compute(b, 2, || vec![path01()]);
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().evictions, 2);
        cache.get_or_compute(a, 2, Vec::new);
        assert_eq!(cache.stats().misses, 5, "A was the oldest fresh entry");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PathCache::with_capacity(0);
    }
}
