//! The routing hot path: repeated path selection on a 1k-node world.
//!
//! Three regimes over the same query set (16 source/dest pairs, EDW
//! k = 4, capacity-only view — Spider's hot loop):
//!
//! * `uncached`  — the pre-PathCache behaviour: every query allocates
//!   fresh search buffers and recomputes from scratch.
//! * `workspace` — recompute every query, but on a reusable
//!   [`pcn_graph::SearchWorkspace`] (allocation-free search state).
//! * `cached`    — the topology-epoch [`pcn_routing::PathCache`] in the
//!   cache-hit regime (the topology epoch pinned, as between channel
//!   opens and closes).
//!
//! The committed `BENCH_routing_hot_path.json` baseline documents the
//! speedup; the acceptance bar is `cached` ≥ 2× faster than `uncached`.

use criterion::{criterion_group, criterion_main, Criterion};
use pcn_graph::SearchWorkspace;
use pcn_routing::cache::CacheKey;
use pcn_routing::channel::NetworkFunds;
use pcn_routing::paths::{select_paths, select_paths_in, BalanceView, PathSelect};
use pcn_routing::PathCache;
use pcn_types::{Amount, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const NODES: usize = 1_000;
const QUERIES: usize = 16;
const K: usize = 4;

fn world() -> (pcn_graph::Graph, NetworkFunds, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(42);
    let g = pcn_graph::watts_strogatz(NODES, 8, 0.3, &mut rng);
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
    (g, funds, pairs)
}

fn bench_hot_path(c: &mut Criterion) {
    let (g, funds, pairs) = world();
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

    // Cache-hit regime: the topology epoch is pinned for the whole
    // bench, as it is between channel opens and closes in a live engine.
    // The calibration pass warms the cache; every sample then measures
    // hits *including* the `Arc` handoff the engine pays to share the
    // result.
    let mut cache = PathCache::new();
    let mut ws = SearchWorkspace::new();
    let epoch = g.topology_epoch();
    group.bench_function(format!("cached_{QUERIES}q_{NODES}n"), |b| {
        b.iter(|| {
            for &(src, dst) in &pairs {
                let plan = cache.get_or_compute(CacheKey::plan(src, dst), epoch, || {
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

    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
