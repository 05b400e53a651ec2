//! The epoch-versioned, footprint-scoped path cache.
//!
//! Path planning is the engine's hot loop: every payment admission runs
//! one or more graph searches over a topology that changes rarely and
//! channel state that changes often. The cache memoizes plan results
//! keyed by `(source, dest, scheme-view class)` and serves an entry only
//! while every input of the original computation is provably unchanged,
//! so **a cache hit is bit-identical to recomputation** — pinned for all
//! six schemes by `tests/determinism.rs`. Entries are stored as
//! `Arc<[Path]>`, so a hit hands out a reference-counted plan instead of
//! deep-cloning it.
//!
//! Each entry snapshots an [`EpochStamp`] — the global counters whose
//! movement can change a path computation's inputs — and one of two
//! freshness regimes, chosen by the lookup that stored it, decides when
//! the entry is stale:
//!
//! * **Capacity-only** ([`PathCache::get_or_compute`]): the computation
//!   reads the topology and channel *totals*, which are constant for a
//!   channel's lifetime, so the entry stales only when
//!   [`pcn_graph::Graph::topology_epoch`] moves.
//! * **Footprint-scoped** ([`PathCache::get_or_compute_scoped`]): for
//!   live-balance computations. Staling them on any balance movement
//!   anywhere would keep hub-scheme (Splicer) hit rates near zero, so the
//!   computation records the **channel dependency footprint** it
//!   actually read (a [`pcn_graph::Footprint`] threaded through the
//!   width closure, see `crate::paths::select_paths_footprint`) and the
//!   entry snapshots each footprint channel's
//!   [`crate::channel::NetworkFunds::channel_epoch`]. The entry is fresh
//!   iff the topology epoch matches and either the global
//!   [`crate::channel::NetworkFunds::funds_epoch`] is unchanged (the
//!   cheap "nothing moved at all" fast path) or every footprint
//!   channel's epoch is unchanged. Funds movements on channels outside
//!   the footprint cannot alter the result, so such entries survive
//!   unrelated traffic. Scoped computations read balances only — never
//!   the price table.
//!
//! The cache is bounded by **weight**, not bare entry count: an entry
//! weighs `max(1, footprint pairs / FOOTPRINT_WEIGHT_DIVISOR)` units
//! against [`PathCache::capacity`], so a broad-footprint world — where
//! one live search can consult a large fraction of all channels and its
//! entry stores one `(channel, epoch)` pair per consulted channel —
//! cannot blow worst-case memory past `capacity ×
//! FOOTPRINT_WEIGHT_DIVISOR` pairs. Capacity-only entries weigh one unit,
//! so for them the bound degenerates to the entry count. When inserting
//! would exceed the capacity, the cache evicts the first provably-stale
//! entry among a constant-size window of the oldest entries (insertion
//! order), falling back to the oldest entry when none in the window is
//! stale — stale entries go first without a miss ever paying an
//! O(capacity) scan. Eviction is deterministic (insertion order, never
//! hash order), which keeps the diagnostic counters — and therefore
//! whole `RunStats` — reproducible across runs.
//!
//! Hit/miss/invalidation/eviction counters are exported into
//! [`crate::stats::RunStats`] (and from there into every harness grid
//! cell and `probe`) so the cache's effectiveness is visible per
//! experiment.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use pcn_graph::{Footprint, Path};
use pcn_types::{ChannelId, NodeId};

use crate::channel::NetworkFunds;

/// Snapshot of the two global invalidation counters an entry may
/// depend on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStamp {
    /// Structural graph mutations ([`pcn_graph::Graph::topology_epoch`]).
    pub topology: u64,
    /// Global channel balance movements
    /// ([`crate::channel::NetworkFunds::funds_epoch`]): the
    /// footprint-scoped regime's "nothing moved at all" fast path.
    pub funds: u64,
}

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
    /// A hub scheme's inter-hub middle segment (`hub_s → hub_r`): a
    /// live-balance search with a small footprint, cached scoped.
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

/// Why a stale entry went stale — which watched input moved. A single
/// lumped invalidation count hides *which* epoch fired (a dynamic world
/// churns topology while ordinary traffic churns funds), so the cache
/// attributes every invalidation to exactly one cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StaleCause {
    /// The topology epoch moved (structural mutation, channel
    /// close/reopen, hub outage).
    Topology,
    /// A channel inside a scoped entry's footprint moved funds.
    Footprint,
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
    /// Stale footprint-scoped entries recomputed because a channel in
    /// their own footprint moved funds.
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

    fn record_stale(&mut self, cause: StaleCause) {
        match cause {
            StaleCause::Topology => self.inv_topology += 1,
            StaleCause::Footprint => self.inv_footprint += 1,
        }
    }
}

struct CacheEntry {
    stamp: EpochStamp,
    /// `(channel, per-channel funds epoch at compute time)` for every
    /// channel the computation read — `Some` for footprint-scoped
    /// entries, `None` for capacity-only ones.
    footprint: Option<Box<[(ChannelId, u64)]>>,
    /// Capacity units this entry counts against the bound:
    /// `max(1, footprint pairs / FOOTPRINT_WEIGHT_DIVISOR)`.
    weight: usize,
    paths: Arc<[Path]>,
}

/// Footprint pairs per capacity unit: an entry's weight is
/// `max(1, pairs / FOOTPRINT_WEIGHT_DIVISOR)`, so the documented memory
/// bound holds at `capacity × FOOTPRINT_WEIGHT_DIVISOR` stored pairs
/// worst-case while small-footprint entries still weigh a single unit.
pub const FOOTPRINT_WEIGHT_DIVISOR: usize = 16;

fn weight_of(footprint_pairs: usize) -> usize {
    (footprint_pairs / FOOTPRINT_WEIGHT_DIVISOR).max(1)
}

impl CacheEntry {
    /// Whether the entry is provably fresh at `now`.
    fn is_fresh(&self, now: EpochStamp, funds: &NetworkFunds) -> bool {
        self.stamp.topology == now.topology
            && self.footprint.as_ref().is_none_or(|fp| {
                self.stamp.funds == now.funds
                    || fp
                        .iter()
                        .all(|&(ch, epoch)| funds.channel_epoch(ch) == epoch)
            })
    }

    /// Attributes a (known-stale) entry's staleness to the input that
    /// moved: the topology stales both regimes; with the topology
    /// unchanged, only a footprint channel can have moved.
    fn stale_cause(&self, now: EpochStamp) -> StaleCause {
        if self.stamp.topology != now.topology {
            StaleCause::Topology
        } else {
            StaleCause::Footprint
        }
    }
}

/// Default capacity bound (resident entries) of [`PathCache::new`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The epoch-versioned path cache; see the module docs for the
/// invalidation contract.
pub struct PathCache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Resident keys in insertion order (each exactly once) — the
    /// deterministic eviction scan order.
    order: VecDeque<CacheKey>,
    capacity: usize,
    /// Total weight of resident entries (≤ capacity except transiently
    /// for a single entry heavier than the whole cache).
    weight: usize,
    /// Reusable footprint recorder for scoped computations.
    scratch: Footprint,
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
            weight: 0,
            scratch: Footprint::new(),
            stats: PathCacheStats::default(),
        }
    }

    /// The capacity bound (weight units; a capacity-only entry weighs one).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight of the resident entries.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Capacity-only lookup for computations that read the topology and
    /// channel totals only: returns the cached paths for `key` while the
    /// topology epoch is unchanged since they were computed; otherwise
    /// runs `compute`, stores its result stamped with `now`, and returns
    /// it. Counters are updated either way. `funds` lets a capacity
    /// eviction triggered by the insert run the per-channel footprint
    /// check on candidate victims, so footprint-fresh scoped entries are
    /// not misjudged stale just because the global funds epoch moved.
    pub fn get_or_compute<F>(
        &mut self,
        key: CacheKey,
        now: EpochStamp,
        funds: &NetworkFunds,
        compute: F,
    ) -> Arc<[Path]>
    where
        F: FnOnce() -> Vec<Path>,
    {
        match self.entries.get(&key) {
            Some(entry) if entry.is_fresh(now, funds) => {
                self.stats.hits += 1;
                Arc::clone(&entry.paths)
            }
            found => {
                let stale = found.map(|e| e.stale_cause(now));
                let paths: Arc<[Path]> = compute().into();
                let entry = CacheEntry {
                    stamp: now,
                    footprint: None,
                    weight: 1,
                    paths: Arc::clone(&paths),
                };
                self.store(key, entry, stale, now, funds);
                paths
            }
        }
    }

    /// Footprint-scoped lookup for live-balance computations. `compute`
    /// receives a cleared [`Footprint`] and must record every channel it
    /// reads (e.g. via `crate::paths::select_paths_footprint`); the
    /// stored entry then snapshots each footprint channel's
    /// [`NetworkFunds::channel_epoch`] and stays fresh across funds
    /// movements confined to other channels. Freshness at `now`:
    /// topology unchanged, and global funds epoch unchanged (fast path)
    /// *or* every footprint channel epoch unchanged.
    pub fn get_or_compute_scoped<F>(
        &mut self,
        key: CacheKey,
        now: EpochStamp,
        funds: &NetworkFunds,
        compute: F,
    ) -> Arc<[Path]>
    where
        F: FnOnce(&mut Footprint) -> Vec<Path>,
    {
        match self.entries.get(&key) {
            Some(entry) if entry.is_fresh(now, funds) => {
                self.stats.hits += 1;
                Arc::clone(&entry.paths)
            }
            found => {
                let stale = found.map(|e| e.stale_cause(now));
                self.scratch.clear();
                let paths: Arc<[Path]> = compute(&mut self.scratch).into();
                let snapshot: Box<[(ChannelId, u64)]> = self
                    .scratch
                    .channels()
                    .iter()
                    .map(|&ch| (ch, funds.channel_epoch(ch)))
                    .collect();
                let entry = CacheEntry {
                    stamp: now,
                    weight: weight_of(snapshot.len()),
                    footprint: Some(snapshot),
                    paths: Arc::clone(&paths),
                };
                self.store(key, entry, stale, now, funds);
                paths
            }
        }
    }

    /// Replaces a stale entry in place or inserts a new key, evicting
    /// first when the weight bound would be exceeded. Updates the
    /// miss/invalidation counters (`stale` carries the attributed
    /// cause when the key held a stale entry).
    fn store(
        &mut self,
        key: CacheKey,
        entry: CacheEntry,
        stale: Option<StaleCause>,
        now: EpochStamp,
        funds: &NetworkFunds,
    ) {
        if let Some(cause) = stale {
            self.stats.record_stale(cause);
            let new_weight = entry.weight;
            let slot = self.entries.get_mut(&key).expect("stale entry present");
            self.weight = self.weight - slot.weight + new_weight;
            *slot = entry;
            if self.weight > self.capacity {
                // The replacement grew: shed other entries (never the
                // one just stored).
                self.evict_to_fit(0, now, funds, Some(key));
            }
        } else {
            self.stats.misses += 1;
            self.evict_to_fit(entry.weight, now, funds, None);
            self.weight += entry.weight;
            self.entries.insert(key, entry);
            self.order.push_back(key);
        }
    }

    /// How many of the oldest entries an eviction inspects looking for a
    /// stale victim — a constant bound so a miss on a full cache stays
    /// O(1), not O(capacity).
    const EVICTION_SCAN: usize = 8;

    /// Frees room for `incoming` weight units: evicts the first
    /// provably-stale entry among the [`Self::EVICTION_SCAN`] oldest
    /// (insertion order), falling back to the oldest entry when none of
    /// them is stale, until the incoming entry fits (or nothing
    /// evictable remains — a lone entry heavier than the whole cache is
    /// admitted rather than thrashing). `exclude` protects a key that
    /// must survive (an in-place replacement). `funds` lets the staleness
    /// check run the per-channel footprint comparison, so footprint-fresh
    /// entries are not misjudged stale just because the global epoch
    /// moved. Deterministic — the scan
    /// never depends on hash order.
    fn evict_to_fit(
        &mut self,
        incoming: usize,
        now: EpochStamp,
        funds: &NetworkFunds,
        exclude: Option<CacheKey>,
    ) {
        while self.weight + incoming > self.capacity {
            let mut stale_pos = None;
            let mut oldest_pos = None;
            for (i, k) in self.order.iter().take(Self::EVICTION_SCAN).enumerate() {
                if Some(*k) == exclude {
                    continue;
                }
                if oldest_pos.is_none() {
                    oldest_pos = Some(i);
                }
                if self.entries.get(k).is_some_and(|e| !e.is_fresh(now, funds)) {
                    stale_pos = Some(i);
                    break;
                }
            }
            let Some(pos) = stale_pos.or(oldest_pos) else {
                break;
            };
            let key = self.order.remove(pos).expect("order tracks entries");
            let evicted = self.entries.remove(&key).expect("order tracks entries");
            self.weight -= evicted.weight;
            self.stats.evictions += 1;
        }
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

    fn stamp(topology: u64, funds: u64) -> EpochStamp {
        EpochStamp { topology, funds }
    }

    #[test]
    fn first_lookup_is_a_miss_then_hits() {
        let (mut cache, funds) = (PathCache::new(), NetworkFunds::default());
        let key = CacheKey::plan(n(0), n(1));
        let now = stamp(1, 1);
        let a = cache.get_or_compute(key, now, &funds, || vec![path01()]);
        let b = cache.get_or_compute(key, now, &funds, || {
            panic!("fresh entry must not recompute")
        });
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
        let (mut cache, funds) = (PathCache::new(), NetworkFunds::default());
        let key = CacheKey::plan(n(0), n(1));
        let now = stamp(1, 1);
        let a = cache.get_or_compute(key, now, &funds, || vec![path01()]);
        let b = cache.get_or_compute(key, now, &funds, Vec::new);
        assert!(Arc::ptr_eq(&a, &b), "a hit must not deep-clone the plan");
    }

    #[test]
    fn capacity_only_entries_survive_funds_movement() {
        let (mut cache, funds) = (PathCache::new(), NetworkFunds::default());
        let key = CacheKey::plan(n(0), n(1));
        cache.get_or_compute(key, stamp(3, 10), &funds, || vec![path01()]);
        // Funds moved; topology did not.
        cache.get_or_compute(key, stamp(3, 99), &funds, || {
            panic!("capacity-only entry must ignore the funds epoch")
        });
        assert_eq!(cache.stats().hits, 1);
        // Topology moved: stale, attributed to the topology epoch.
        cache.get_or_compute(key, stamp(4, 99), &funds, Vec::new);
        assert_eq!(cache.stats().invalidations(), 1);
        assert_eq!(cache.stats().inv_topology, 1);
    }

    #[test]
    fn classes_partition_the_key_space() {
        let (mut cache, funds) = (PathCache::new(), NetworkFunds::default());
        let now = stamp(1, 1);
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
        cache.get_or_compute(mice, now, &funds, || vec![path01()]);
        let got = cache.get_or_compute(elephant, now, &funds, Vec::new).len();
        assert_eq!(got, 0, "elephant entry is distinct from the mice pool");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    /// A line 0-1-2 plus an unrelated channel 3-4; the scoped entry's
    /// footprint covers the line only.
    fn scoped_world() -> (Graph, NetworkFunds, pcn_types::ChannelId) {
        let mut g = Graph::new(5);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let unrelated = g.add_edge(n(3), n(4));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        (g, funds, unrelated)
    }

    fn scoped_stamp(g: &Graph, funds: &NetworkFunds) -> EpochStamp {
        EpochStamp {
            topology: g.topology_epoch(),
            funds: funds.funds_epoch(),
        }
    }

    fn scoped_compute(g: &Graph, fp: &mut Footprint) -> Vec<Path> {
        g.shortest_path(n(0), n(2), |e| {
            fp.record(e.id);
            Some(1.0)
        })
        .map(|(_, p)| vec![p])
        .unwrap_or_default()
    }

    #[test]
    fn scoped_entries_survive_unrelated_funds_movement() {
        let (g, mut funds, unrelated) = scoped_world();
        let mut cache = PathCache::new();
        let key = CacheKey::plan(n(0), n(2));
        let now = scoped_stamp(&g, &funds);
        let first = cache.get_or_compute_scoped(key, now, &funds, |fp| scoped_compute(&g, fp));
        assert_eq!(first.len(), 1);
        // Funds move on a channel outside the footprint: global epoch
        // advances, the entry stays fresh via the per-channel check.
        funds.lock(unrelated, n(3), Amount::from_tokens(1)).unwrap();
        let now = scoped_stamp(&g, &funds);
        let second = cache.get_or_compute_scoped(key, now, &funds, |_| {
            panic!("unrelated movement must not invalidate")
        });
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().hits, 1);
        // Funds move on a footprint channel: stale, recomputed.
        funds
            .lock(pcn_types::ChannelId::new(0), n(0), Amount::from_tokens(1))
            .unwrap();
        let now = scoped_stamp(&g, &funds);
        cache.get_or_compute_scoped(key, now, &funds, |fp| scoped_compute(&g, fp));
        assert_eq!(cache.stats().invalidations(), 1);
        assert_eq!(cache.stats().inv_footprint, 1);
    }

    #[test]
    fn scoped_global_fast_path_hits_without_per_channel_scan() {
        let (g, funds, _) = scoped_world();
        let mut cache = PathCache::new();
        let key = CacheKey::plan(n(0), n(2));
        let now = scoped_stamp(&g, &funds);
        cache.get_or_compute_scoped(key, now, &funds, |fp| scoped_compute(&g, fp));
        // Nothing moved anywhere: the global stamp matches.
        cache.get_or_compute_scoped(key, now, &funds, |_| panic!("must hit"));
        assert_eq!(cache.stats().hits, 1);
        // Topology moved: stale regardless of funds.
        let mut g2 = g;
        g2.add_node();
        let now = scoped_stamp(&g2, &funds);
        cache.get_or_compute_scoped(key, now, &funds, |fp| scoped_compute(&g2, fp));
        assert_eq!(cache.stats().invalidations(), 1);
        assert_eq!(cache.stats().inv_topology, 1);
    }

    #[test]
    fn capacity_bound_evicts_stale_first_then_oldest() {
        let (g, mut funds, _) = scoped_world();
        let mut cache = PathCache::with_capacity(2);
        let now = scoped_stamp(&g, &funds);
        // A: the oldest entry, capacity-only — fresh across funds
        // movement.
        let a = CacheKey::plan(n(0), n(1));
        cache.get_or_compute(a, now, &funds, || vec![path01()]);
        // B: scoped over the 0-1-2 line — stale once a line channel moves.
        let b = CacheKey::plan(n(0), n(2));
        cache.get_or_compute_scoped(b, now, &funds, |fp| scoped_compute(&g, fp));
        funds
            .lock(pcn_types::ChannelId::new(0), n(0), Amount::from_tokens(1))
            .unwrap();
        let later = scoped_stamp(&g, &funds);
        // Inserting C at capacity must evict stale B, not the older A.
        let c = CacheKey::plan(n(0), n(3));
        cache.get_or_compute(c, later, &funds, || vec![path01()]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        cache.get_or_compute(a, later, &funds, || {
            panic!("fresh A must survive the eviction")
        });
        assert_eq!(cache.stats().hits, 1);
        // B is gone: re-inserting it is a miss, and with every resident
        // entry fresh the eviction falls back to the oldest — A.
        cache.get_or_compute_scoped(b, later, &funds, |fp| scoped_compute(&g, fp));
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().evictions, 2);
        cache.get_or_compute(a, later, &funds, Vec::new);
        assert_eq!(cache.stats().misses, 5, "A was the oldest fresh entry");
        assert_eq!(cache.len(), 2);
    }

    /// Eviction triggered from a scoped insert must run the per-channel
    /// footprint check on candidates: an entry whose footprint channels
    /// are unmoved is *fresh* even though the global funds epoch
    /// advanced, and a genuinely stale entry must be evicted instead.
    #[test]
    fn eviction_spares_footprint_fresh_entries() {
        let (g, mut funds, unrelated) = scoped_world();
        let mut cache = PathCache::with_capacity(2);
        // A: scoped entry over the 0-1-2 line channels.
        let a = CacheKey::plan(n(0), n(2));
        let now = scoped_stamp(&g, &funds);
        cache.get_or_compute_scoped(a, now, &funds, |fp| scoped_compute(&g, fp));
        // B: scoped entry whose footprint is the unrelated channel.
        let b = CacheKey::plan(n(3), n(4));
        cache.get_or_compute_scoped(b, now, &funds, |fp| {
            fp.record(unrelated);
            vec![path01()]
        });
        // Movement on B's channel: A stays footprint-fresh, B goes stale.
        funds.lock(unrelated, n(3), Amount::from_tokens(1)).unwrap();
        let now = scoped_stamp(&g, &funds);
        // Inserting C at capacity must evict stale B, not footprint-fresh
        // A (which sits first in insertion order).
        let c = CacheKey::plan(n(2), n(0));
        cache.get_or_compute_scoped(c, now, &funds, |fp| {
            g.shortest_path(n(2), n(0), |e| {
                fp.record(e.id);
                Some(1.0)
            })
            .map(|(_, p)| vec![p])
            .unwrap_or_default()
        });
        assert_eq!(cache.stats().evictions, 1);
        // A still hits; B is gone (re-lookup misses).
        cache.get_or_compute_scoped(a, now, &funds, |_| {
            panic!("footprint-fresh entry must survive eviction")
        });
        assert_eq!(cache.stats().hits, 1);
        cache.get_or_compute_scoped(b, now, &funds, |_| Vec::new());
        assert_eq!(cache.stats().misses, 4, "B was evicted, not A");
    }

    /// The same guarantee for evictions triggered by capacity-only
    /// inserts (e.g. a hub access leg): they must not evict a
    /// footprint-fresh scoped entry either.
    #[test]
    fn unscoped_inserts_with_funds_spare_scoped_entries() {
        let (g, mut funds, unrelated) = scoped_world();
        let mut cache = PathCache::with_capacity(2);
        let a = CacheKey::plan(n(0), n(2));
        let now = scoped_stamp(&g, &funds);
        cache.get_or_compute_scoped(a, now, &funds, |fp| scoped_compute(&g, fp));
        let b = CacheKey::plan(n(3), n(4));
        cache.get_or_compute_scoped(b, now, &funds, |fp| {
            fp.record(unrelated);
            vec![path01()]
        });
        funds.lock(unrelated, n(3), Amount::from_tokens(1)).unwrap();
        let now = scoped_stamp(&g, &funds);
        // Capacity-only insert: evicts stale B, not footprint-fresh A.
        let c = CacheKey::plan(n(2), n(1));
        cache.get_or_compute(c, now, &funds, || vec![path01()]);
        assert_eq!(cache.stats().evictions, 1);
        cache.get_or_compute_scoped(a, now, &funds, |_| {
            panic!("footprint-fresh entry must survive a capacity-only insert's eviction")
        });
        assert_eq!(cache.stats().hits, 1);
        cache.get_or_compute_scoped(b, now, &funds, |_| Vec::new());
        assert_eq!(cache.stats().misses, 4, "B was evicted, not A");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PathCache::with_capacity(0);
    }

    /// Broad-footprint entries count `footprint pairs / divisor` units
    /// against the capacity, so a world where every live search consults
    /// many channels cannot hold more pairs than the documented bound —
    /// the cache evicts by weight, not by entry count.
    #[test]
    fn footprint_weight_counts_against_capacity() {
        // A long line: the search from one end to the other consults
        // every channel, so its footprint holds 2×divisor channels and
        // the entry weighs 2 units.
        let chain = 2 * FOOTPRINT_WEIGHT_DIVISOR;
        let mut g = Graph::new(chain + 1);
        for i in 0..chain {
            g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
        }
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        let span = |cache: &mut PathCache, key: CacheKey, src: usize, dst: usize| {
            let now = EpochStamp {
                topology: g.topology_epoch(),
                funds: funds.funds_epoch(),
            };
            cache.get_or_compute_scoped(key, now, &funds, |fp| {
                g.shortest_path(NodeId::from_index(src), NodeId::from_index(dst), |e| {
                    fp.record(e.id);
                    Some(1.0)
                })
                .map(|(_, p)| vec![p])
                .unwrap_or_default()
            });
        };
        let plan_key = CacheKey::plan(NodeId::from_index(0), NodeId::from_index(chain));
        let rev_key = CacheKey::plan(NodeId::from_index(chain), NodeId::from_index(0));
        let mid_key = CacheKey::hub_middle(NodeId::from_index(0), NodeId::from_index(chain));
        // Capacity 5 weight units: two full-line entries (2 units each)
        // fit; the third forces an eviction even though only two entries
        // are resident — entry-count bounding would have kept all three.
        let mut cache = PathCache::with_capacity(5);
        span(&mut cache, plan_key, 0, chain);
        assert_eq!(
            cache.weight(),
            2,
            "footprint of {} channels weighs 2",
            chain
        );
        span(&mut cache, rev_key, chain, 0);
        assert_eq!((cache.len(), cache.weight()), (2, 4));
        span(&mut cache, mid_key, 0, chain);
        assert_eq!(
            cache.stats().evictions,
            1,
            "2 + 2 + 2 units exceed capacity 5: the oldest entry must go"
        );
        assert_eq!((cache.len(), cache.weight()), (2, 4));
        assert!(cache.weight() <= cache.capacity());
        // The evicted key was the oldest (plan 0 → chain): re-querying
        // it misses.
        span(&mut cache, plan_key, 0, chain);
        assert_eq!(cache.stats().misses, 4);
        // Capacity-only entries still weigh one unit each: the bound
        // degenerates to entry-count capacity for them.
        let mut unit = PathCache::with_capacity(2);
        let now = stamp(1, 1);
        for i in 0..3u32 {
            unit.get_or_compute(CacheKey::plan(n(i), n(10 + i)), now, &funds, || {
                vec![path01()]
            });
        }
        assert_eq!((unit.len(), unit.weight()), (2, 2));
        assert_eq!(unit.stats().evictions, 1);
    }

    /// An in-place stale replacement that grows its footprint must shed
    /// *other* entries to restore the bound — never the entry just
    /// stored.
    #[test]
    fn stale_replacement_growth_evicts_others() {
        let chain = 2 * FOOTPRINT_WEIGHT_DIVISOR;
        let mut g = Graph::new(chain + 1);
        let first = g.add_edge(NodeId::new(0), NodeId::new(1));
        for i in 1..chain {
            g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
        }
        let mut funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        let mut cache = PathCache::with_capacity(3);
        let key = CacheKey::plan(NodeId::new(0), NodeId::new(1));
        let now = |g: &Graph, funds: &NetworkFunds| EpochStamp {
            topology: g.topology_epoch(),
            funds: funds.funds_epoch(),
        };
        // A narrow scoped entry (footprint: one channel, weight 1) …
        cache.get_or_compute_scoped(key, now(&g, &funds), &funds, |fp| {
            fp.record(first);
            vec![path01()]
        });
        // … plus two capacity-only fresh entries fill the cache to weight 3.
        for i in 1..3u32 {
            cache.get_or_compute(
                CacheKey::plan(n(i), n(10 + i)),
                now(&g, &funds),
                &funds,
                || vec![path01()],
            );
        }
        assert_eq!(cache.weight(), 3);
        // Invalidate the scoped entry and recompute it with the full
        // line footprint: weight jumps 1 → 2, total would be 4 > 3.
        funds
            .lock(first, NodeId::new(0), Amount::from_tokens(1))
            .unwrap();
        cache.get_or_compute_scoped(key, now(&g, &funds), &funds, |fp| {
            g.shortest_path(NodeId::new(0), NodeId::from_index(chain), |e| {
                fp.record(e.id);
                Some(1.0)
            })
            .map(|(_, p)| vec![p])
            .unwrap_or_default()
        });
        assert_eq!(cache.stats().invalidations(), 1);
        assert_eq!(cache.stats().evictions, 1, "one capacity-only entry shed");
        assert!(cache.weight() <= cache.capacity());
        // The replaced key itself survived.
        cache.get_or_compute_scoped(key, now(&g, &funds), &funds, |_| {
            panic!("the grown entry must still be resident and fresh")
        });
    }
}
