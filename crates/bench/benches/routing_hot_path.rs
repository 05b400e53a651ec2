//! The routing hot path: repeated path selection on a 1k-node world.
//!
//! Four regimes over the same query set (16 source/dest pairs, EDW
//! k = 4):
//!
//! * `uncached`  — the pre-PathCache behaviour: every query allocates
//!   fresh search buffers and recomputes from scratch (capacity-only
//!   view — Spider's hot loop).
//! * `workspace` — recompute every query, but on a reusable
//!   [`pcn_graph::SearchWorkspace`] (allocation-free search state).
//! * `cached`    — the epoch-versioned [`pcn_routing::PathCache`] in the
//!   cache-hit regime (epochs pinned, as between funds movements).
//! * `cached_live_churn` — the footprint-scoped live-view regime: every
//!   pass first moves funds on a channel *outside* the query footprints
//!   (the global funds epoch advances, as under real traffic), then runs
//!   the 16 live-balance queries through
//!   [`pcn_routing::PathCache::get_or_compute_scoped`]. Per-channel
//!   epochs keep every entry fresh, so the steady-state hit rate stays
//!   above 50% — the regime that used to sit at ~0% under the global
//!   funds epoch.
//!
//! The committed `BENCH_routing_hot_path.json` baseline documents the
//! speedup; the acceptance bar is `cached` ≥ 2× faster than `uncached`.

use criterion::{criterion_group, criterion_main, Criterion};
use pcn_graph::SearchWorkspace;
use pcn_routing::cache::{CacheKey, EpochStamp};
use pcn_routing::channel::NetworkFunds;
use pcn_routing::paths::{
    select_paths, select_paths_footprint, select_paths_in, BalanceView, PathSelect,
};
use pcn_routing::PathCache;
use pcn_types::{Amount, ChannelId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const NODES: usize = 1_000;
const QUERIES: usize = 16;
const K: usize = 4;

fn world() -> (
    pcn_graph::Graph,
    NetworkFunds,
    Vec<(NodeId, NodeId)>,
    ChannelId,
) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut g = pcn_graph::watts_strogatz(NODES, 8, 0.3, &mut rng);
    // An isolated appendage the queries can never reach: funds churn on
    // it advances the global epoch without touching any footprint.
    let a = g.add_node();
    let b = g.add_node();
    let churn = g.add_edge(a, b);
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
    let pairs: Vec<(NodeId, NodeId)> = (0..QUERIES)
        .map(|_| {
            let a = rng.random_range(0..NODES);
            let mut b = rng.random_range(0..NODES);
            while b == a {
                b = rng.random_range(0..NODES);
            }
            (NodeId::from_index(a), NodeId::from_index(b))
        })
        .collect();
    (g, funds, pairs, churn)
}

fn bench_hot_path(c: &mut Criterion) {
    let (g, mut funds, pairs, churn) = world();
    let churn_side = g.endpoints(churn).expect("churn channel exists").0;
    let mut group = c.benchmark_group("routing_hot_path");
    group.sample_size(10);

    group.bench_function(format!("uncached_{QUERIES}q_{NODES}n"), |b| {
        b.iter(|| {
            for &(src, dst) in &pairs {
                black_box(select_paths(
                    &g,
                    &funds,
                    src,
                    dst,
                    K,
                    PathSelect::Edw,
                    BalanceView::CapacityOnly,
                    Amount::from_tokens(1),
                    false,
                ));
            }
        })
    });

    let mut ws = SearchWorkspace::new();
    group.bench_function(format!("workspace_{QUERIES}q_{NODES}n"), |b| {
        b.iter(|| {
            for &(src, dst) in &pairs {
                black_box(select_paths_in(
                    &g,
                    &mut ws,
                    &funds,
                    src,
                    dst,
                    K,
                    PathSelect::Edw,
                    BalanceView::CapacityOnly,
                    Amount::from_tokens(1),
                    false,
                ));
            }
        })
    });

    // Cache-hit regime: the epochs are pinned for the whole bench, as
    // they are between funds movements in a live engine. The calibration
    // pass warms the cache; every sample then measures hits *including*
    // the `Arc` handoff the engine pays to share the result.
    let mut cache = PathCache::new();
    let mut ws = SearchWorkspace::new();
    let now = EpochStamp {
        topology: g.topology_epoch(),
        funds: funds.funds_epoch(),
    };
    group.bench_function(format!("cached_{QUERIES}q_{NODES}n"), |b| {
        b.iter(|| {
            for &(src, dst) in &pairs {
                let plan = cache.get_or_compute(CacheKey::plan(src, dst), now, &funds, || {
                    select_paths_in(
                        &g,
                        &mut ws,
                        &funds,
                        src,
                        dst,
                        K,
                        PathSelect::Edw,
                        BalanceView::CapacityOnly,
                        Amount::from_tokens(1),
                        false,
                    )
                });
                black_box(plan);
            }
        })
    });

    // Footprint-scoped live-view regime under funds churn: each pass
    // moves funds on the isolated appendage channel (advancing the
    // global funds epoch, as any real traffic does) before the queries.
    // Entries stay fresh through their per-channel footprint check.
    let mut cache = PathCache::new();
    let mut ws = SearchWorkspace::new();
    group.bench_function(format!("cached_live_churn_{QUERIES}q_{NODES}n"), |b| {
        b.iter(|| {
            funds
                .lock(churn, churn_side, Amount::from_tokens(1))
                .expect("churn lock");
            funds
                .refund(churn, churn_side, Amount::from_tokens(1))
                .expect("churn refund");
            let now = EpochStamp {
                topology: g.topology_epoch(),
                funds: funds.funds_epoch(),
            };
            for &(src, dst) in &pairs {
                let plan =
                    cache.get_or_compute_scoped(CacheKey::plan(src, dst), now, &funds, |fp| {
                        select_paths_footprint(
                            &g,
                            &mut ws,
                            &funds,
                            src,
                            dst,
                            K,
                            PathSelect::Edw,
                            BalanceView::Live,
                            Amount::from_tokens(1),
                            false,
                            fp,
                        )
                    });
                black_box(plan);
            }
        })
    });
    let stats = cache.stats();
    assert!(
        stats.hit_rate() > 0.5,
        "steady-state live-view hit rate must exceed 50% under unrelated churn, got {:.1}% ({stats:?})",
        100.0 * stats.hit_rate(),
    );
    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
