//! Goal-directed planning on the 100k-node large-world topology.
//!
//! An interleaved same-build A/B over WS(100 000, 16) — the world
//! `tests/large_world.rs` pins for scaling — comparing the plain
//! planner against the goal-directed one (`use_goal_directed`):
//!
//! * `plan_p2p_plain` / `plan_p2p_goal_directed` — warm point-to-point
//!   EDS plan selection (`select_paths_in`, k = 4, capacity view), the
//!   shape Direct-routing schemes run per payment. Goal-directed runs
//!   the unit-cost bidirectional BFS in place of every Dijkstra.
//! * `hub_legs_per_pair` / `hub_legs_batched_trees` — the Landmark
//!   scheme's hub-leg planning: 2·k single-pair Dijkstra searches versus
//!   one BFS tree from the source plus one from the destination with
//!   per-landmark readoffs (`shortest_path_two_trees_in`).
//!
//! Three more rows time the source-routing baselines' planner kernels on
//! the e2ebench `fig8_large` world: `ScenarioParams::large()` (WS(3 000,
//! 8) with the Lightning-shaped heavy-tailed channel funds), 30 s of
//! payments at 60 tx/s, seed 1. One iteration plans every distinct
//! (source, dest) pair of that trace, 1 142 of them, in trace order on
//! one warm workspace, through the exact `select_paths_in` call a cache
//! miss makes in the engine:
//!
//! * `edw_capacity_3000n_k4` — Spider's plan: EDW, k = 4, capacity
//!   view, which walks the funds' capacity order
//!   (`edge_disjoint_widest_paths_static_in`; the layer row behind
//!   e2ebench's `planner.query_us.spider`);
//! * `edw_heap_capacity_3000n_k4` — the same plans through the heap
//!   search (`edge_disjoint_widest_paths_in` with the capacity-view
//!   width closure), which live-balance EDW runs;
//! * `ksp_accel_3000n_k4` — Flash's mice pool: Yen KSP, k = 4,
//!   capacity view, every spur search a goal-directed bidirectional BFS.
//!
//! Divide a row's median by the `fig8_pairs` metadata for the time per
//! plan. One more row replays Flash's other plan on that trace:
//!
//! * `maxflow_elephants_3000n_k4` — Flash's elephant plan: Dinic's max
//!   flow (`max_flow_in`) under the engine's capacity closure (each
//!   direction of a channel carries its total), on one warm workspace,
//!   over the trace's distinct pairs that send an elephant (a payment
//!   above the Flash threshold `SystemBuilder` sets, 40 tokens), in
//!   order. Divide by the `elephant_pairs` metadata for the time per
//!   flow.
//!
//! One row times Splicer's planner kernel on the multi-star
//! `SystemBuilder::build_splicer` builds from that same scenario: every
//! client has one channel to its hub, and the hubs are joined by a
//! mesh.
//!
//! * `edw_live_hub_middles_3000n_k5` — Splicer's hub-to-hub middles:
//!   EDW, k = 5, live balances, through the `select_paths_in` call the
//!   engine makes for every cross-hub plan, over every ordered hub pair
//!   once (`hub_pairs` metadata). The widest search skips the
//!   single-channel clients, so it walks only the hub backbone.
//!
//! The 100k rows alternate pair by pair inside one process and one
//! build, so frequency drift and cache warmth cancel. The acceptance
//! bars assert in every run, `--quick` CI smoke included:
//!
//! * goal-directed warm plan latency ≥ 1.5× faster than plain;
//! * goal-directed settles ≤ half the plain search's settled nodes (a
//!   BFS settles each node whose adjacency it expands);
//! * batched hub-leg trees ≥ 1.5× faster than the per-pair baseline;
//! * on the Fig. 8 pairs, alternating plan by plan, the capacity-order
//!   EDW walk returns the heap search's paths and is ≥ 1.5× faster;
//! * on the Fig. 8 hub pairs, alternating plan by plan, the hub
//!   middles equal those of the search without its dead-end skip
//!   (a bench-local `Topology` whose `degree` never reports 1) and are
//!   ≥ 5× faster.
//!
//! The committed `BENCH_planner.json` baseline records the measured
//! numbers (full, non-quick run).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pcn_graph::{
    edge_disjoint_widest_paths_in, max_flow_in, shortest_path_two_trees_in, EdgeRef, Graph, Path,
    SearchWorkspace, Topology,
};
use pcn_routing::channel::NetworkFunds;
use pcn_routing::paths::{select_paths_in, BalanceView, PathSelect};
use pcn_routing::{EngineConfig, RouteVia, SchemeConfig};
use pcn_types::{Amount, ChannelId, NodeId, SimDuration};
use pcn_workload::{Scenario, ScenarioParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splicer_core::SystemBuilder;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 100_000;
const DEGREE: usize = 16;
const K: usize = 4;
const NUM_LANDMARKS: usize = 8;
const PAIRS: usize = 12;
const AB_ROUNDS: usize = 3;
/// Splicer's path count, the `k` of its hub middles.
const HUB_K: usize = 5;

/// A graph seen without the widest search's dead-end skip: `degree`
/// reports every node as a hub, never 1, so every spoke is priced.
struct Unpruned<'g>(&'g Graph);

impl Topology for Unpruned<'_> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.0.edges_of(node)
    }

    fn directed_edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.0.directed_edges()
    }

    fn endpoints(&self, id: ChannelId) -> pcn_types::Result<(NodeId, NodeId)> {
        self.0.endpoints(id)
    }

    fn degree(&self, _: NodeId) -> usize {
        usize::MAX
    }
}

fn world() -> (pcn_graph::Graph, NetworkFunds, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(7);
    let g = pcn_graph::watts_strogatz(NODES, DEGREE, 0.3, &mut rng);
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
    // Deterministic scattered pairs: strided indices, no RNG reuse.
    let pairs = (0..PAIRS)
        .map(|i| {
            (
                NodeId::from_index((i * 8_191 + 17) % NODES),
                NodeId::from_index((i * 15_773 + NODES / 2) % NODES),
            )
        })
        .collect();
    (g, funds, pairs)
}

/// The e2ebench `fig8_large` scenario at seed 1, ready to assemble, and
/// its trace's distinct (source, dest) pairs, in order.
fn fig8_world() -> (SystemBuilder, Vec<(NodeId, NodeId)>) {
    let mut params = ScenarioParams::large();
    params.duration = SimDuration::from_secs(30);
    params.arrivals_per_sec = 60.0;
    params.seed = 1;
    let scenario = Scenario::build(params);
    let pairs = distinct_pairs(&scenario, Amount::ZERO);
    (SystemBuilder::new(scenario), pairs)
}

/// The distinct (source, dest) pairs of `scenario`'s payments worth more
/// than `above`, in order.
fn distinct_pairs(scenario: &Scenario, above: Amount) -> Vec<(NodeId, NodeId)> {
    let pairs: BTreeSet<(NodeId, NodeId)> = scenario
        .payments
        .iter()
        .filter(|p| p.value > above)
        .map(|p| (p.source, p.dest))
        .collect();
    pairs.into_iter().collect()
}

/// One warm EDS plan selection; returns (nanos, settled nodes).
fn plan_once(
    g: &pcn_graph::Graph,
    ws: &mut SearchWorkspace,
    funds: &NetworkFunds,
    src: NodeId,
    dst: NodeId,
    accel: bool,
) -> (u128, u64) {
    let settled0 = ws.nodes_settled();
    let t0 = Instant::now();
    black_box(select_paths_in(
        g,
        ws,
        funds,
        src,
        dst,
        K,
        PathSelect::Eds,
        BalanceView::CapacityOnly,
        Amount::from_tokens(1),
        accel,
    ));
    (t0.elapsed().as_nanos(), ws.nodes_settled() - settled0)
}

/// The Landmark scheme's per-pair hub-leg baseline: 2·k single-pair
/// searches (source → landmark, and the canonical dest → landmark leg,
/// reversed — exactly what `plan_paths` runs with the toggle off).
fn hub_legs_per_pair(
    g: &pcn_graph::Graph,
    ws: &mut SearchWorkspace,
    funds: &NetworkFunds,
    landmarks: &[NodeId],
    src: NodeId,
    dst: NodeId,
) -> Vec<(Option<Path>, Option<Path>)> {
    let cost = |e: pcn_graph::EdgeRef| (funds.total(e.id) > Amount::ZERO).then_some(1.0);
    landmarks
        .iter()
        .map(|&lm| {
            (
                g.shortest_path_in(ws, src, lm, cost).map(|(_, p)| p),
                g.shortest_path_in(ws, dst, lm, cost)
                    .map(|(_, p)| p.reversed()),
            )
        })
        .collect()
}

/// The batched replacement: one tree from the source, one from the
/// destination, legs read off per landmark.
fn hub_legs_batched(
    g: &pcn_graph::Graph,
    ws: &mut SearchWorkspace,
    funds: &NetworkFunds,
    landmarks: &[NodeId],
    src: NodeId,
    dst: NodeId,
) -> Vec<(Option<Path>, Option<Path>)> {
    let cost = |e: pcn_graph::EdgeRef| (funds.total(e.id) > Amount::ZERO).then_some(1.0);
    let (up_tree, down_tree) = shortest_path_two_trees_in(g, ws, src, dst, cost);
    landmarks
        .iter()
        .map(|&lm| {
            (
                up_tree.path_to(lm),
                down_tree.path_to(lm).map(Path::reversed),
            )
        })
        .collect()
}

fn bench_planner(c: &mut Criterion) {
    let (g, funds, pairs) = world();
    let mut ws = SearchWorkspace::new();
    let landmarks: Vec<NodeId> = (0..NUM_LANDMARKS)
        .map(|i| NodeId::from_index((i * 12_347 + 5) % NODES))
        .collect();

    // ---- Interleaved A/B: the acceptance bars -------------------------
    // Alternate plain/goal-directed per pair (order flipped every round)
    // so the two sides sample identical machine conditions; one warmup
    // query each absorbs first-touch buffer growth.
    plan_once(&g, &mut ws, &funds, pairs[0].0, pairs[0].1, false);
    plan_once(&g, &mut ws, &funds, pairs[0].0, pairs[0].1, true);
    let (mut plain_ns, mut accel_ns) = (0u128, 0u128);
    let (mut plain_settled, mut accel_settled) = (0u64, 0u64);
    for round in 0..AB_ROUNDS {
        for &(src, dst) in &pairs {
            for &accel in if round % 2 == 0 {
                &[false, true]
            } else {
                &[true, false]
            } {
                let (ns, settled) = plan_once(&g, &mut ws, &funds, src, dst, accel);
                if accel {
                    accel_ns += ns;
                    accel_settled += settled;
                } else {
                    plain_ns += ns;
                    plain_settled += settled;
                }
            }
        }
    }
    let plan_speedup = plain_ns as f64 / accel_ns as f64;
    let settle_ratio = plain_settled as f64 / accel_settled as f64;
    assert!(
        plan_speedup >= 1.5,
        "goal-directed warm plans must be ≥1.5× faster than plain \
         (plain {plain_ns} ns vs goal-directed {accel_ns} ns = {plan_speedup:.2}×)"
    );
    assert!(
        settle_ratio >= 2.0,
        "goal-directed search must settle ≤ half the nodes \
         (plain {plain_settled} vs goal-directed {accel_settled} = {settle_ratio:.2}×)"
    );

    let (mut pair_ns, mut tree_ns) = (0u128, 0u128);
    for round in 0..AB_ROUNDS {
        for &(src, dst) in &pairs {
            for &batched in if round % 2 == 0 {
                &[false, true]
            } else {
                &[true, false]
            } {
                let t0 = Instant::now();
                let legs = if batched {
                    hub_legs_batched(&g, &mut ws, &funds, &landmarks, src, dst)
                } else {
                    hub_legs_per_pair(&g, &mut ws, &funds, &landmarks, src, dst)
                };
                let ns = t0.elapsed().as_nanos();
                if batched {
                    tree_ns += ns;
                } else {
                    pair_ns += ns;
                }
                black_box(legs);
            }
        }
    }
    let tree_speedup = pair_ns as f64 / tree_ns as f64;
    assert!(
        tree_speedup >= 1.5,
        "batched hub-leg trees must be ≥1.5× faster than 2·k single-pair \
         searches (per-pair {pair_ns} ns vs batched {tree_ns} ns = {tree_speedup:.2}×)"
    );

    // ---- Criterion samples: the committed baseline --------------------
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);
    group.metadata("world", format!("watts_strogatz({NODES}, {DEGREE}, 0.3)"));
    group.metadata("plan_speedup_interleaved", format!("{plan_speedup:.2}"));
    group.metadata(
        "settled_reduction_interleaved",
        format!("{settle_ratio:.2}"),
    );
    group.metadata("hub_leg_speedup_interleaved", format!("{tree_speedup:.2}"));

    let sample: Vec<(NodeId, NodeId)> = pairs.iter().copied().take(4).collect();
    group.bench_function(format!("plan_p2p_plain_{NODES}n_k{K}"), |b| {
        b.iter(|| {
            for &(src, dst) in &sample {
                plan_once(&g, &mut ws, &funds, src, dst, false);
            }
        })
    });
    group.bench_function(format!("plan_p2p_goal_directed_{NODES}n_k{K}"), |b| {
        b.iter(|| {
            for &(src, dst) in &sample {
                plan_once(&g, &mut ws, &funds, src, dst, true);
            }
        })
    });
    group.bench_function(
        format!("hub_legs_per_pair_{NODES}n_{NUM_LANDMARKS}lm"),
        |b| {
            b.iter(|| {
                for &(src, dst) in &sample {
                    black_box(hub_legs_per_pair(&g, &mut ws, &funds, &landmarks, src, dst));
                }
            })
        },
    );
    group.bench_function(
        format!("hub_legs_batched_trees_{NODES}n_{NUM_LANDMARKS}lm"),
        |b| {
            b.iter(|| {
                for &(src, dst) in &sample {
                    black_box(hub_legs_batched(&g, &mut ws, &funds, &landmarks, src, dst));
                }
            })
        },
    );

    // ---- Fig. 8 world: the baselines' planner kernels -----------------
    // The rows replay the engine's cache-miss calls: Spider plans EDW
    // with no goal-directed search, Flash's mice pools are goal-directed
    // KSP, both on the capacity view with the engine's minimum TU.
    let spider = SchemeConfig::spider();
    assert_eq!(
        (spider.path_select, spider.num_paths, spider.balance_view),
        (PathSelect::Edw, K, BalanceView::CapacityOnly)
    );
    let flash = SchemeConfig::flash(Amount::ZERO);
    assert_eq!(
        (flash.path_select, flash.num_paths, flash.balance_view),
        (PathSelect::Ksp, K, BalanceView::CapacityOnly)
    );
    let engine = EngineConfig::default();
    assert!(engine.use_goal_directed);
    let (builder, fig8_pairs) = fig8_world();
    let flat = &builder.scenario().flat;
    let mut fig8_ws = SearchWorkspace::new();
    let min_w = engine.min_tu.to_tokens_f64();
    // `select_paths_in`'s capacity-view width, with EDW's `min_width`
    // filter: the closure the heap search ran before the walk.
    let capacity_width = |e: EdgeRef| {
        let tokens = flat.funds.total(e.id).to_tokens_f64();
        (tokens > 0.0 && tokens >= min_w).then_some(tokens)
    };

    // Walk vs heap, alternating which runs first plan by plan.
    let (mut walk_ns, mut heap_ns) = (0u128, 0u128);
    for (i, &(src, dst)) in fig8_pairs.iter().enumerate() {
        let mut paths = [Vec::new(), Vec::new()];
        for heap in [i % 2 == 0, i % 2 == 1] {
            let t0 = Instant::now();
            paths[usize::from(heap)] = if heap {
                edge_disjoint_widest_paths_in(
                    &flat.graph,
                    &mut fig8_ws,
                    src,
                    dst,
                    K,
                    capacity_width,
                )
            } else {
                select_paths_in(
                    &flat.graph,
                    &mut fig8_ws,
                    &flat.funds,
                    src,
                    dst,
                    K,
                    PathSelect::Edw,
                    BalanceView::CapacityOnly,
                    engine.min_tu,
                    false,
                )
            };
            let ns = t0.elapsed().as_nanos();
            if heap {
                heap_ns += ns;
            } else {
                walk_ns += ns;
            }
        }
        assert_eq!(
            paths[0], paths[1],
            "EDW walk and heap search differ on {src}->{dst}"
        );
    }
    let edw_speedup = heap_ns as f64 / walk_ns as f64;
    assert!(
        edw_speedup >= 1.5,
        "the capacity-order EDW walk must be ≥1.5× faster than the heap search \
         (heap {heap_ns} ns vs walk {walk_ns} ns = {edw_speedup:.2}×)"
    );
    group.metadata("edw_walk_speedup_interleaved", format!("{edw_speedup:.2}"));
    let mut plan_all = |select: PathSelect, accel: bool| {
        for &(src, dst) in &fig8_pairs {
            black_box(select_paths_in(
                &flat.graph,
                &mut fig8_ws,
                &flat.funds,
                src,
                dst,
                K,
                select,
                BalanceView::CapacityOnly,
                engine.min_tu,
                accel,
            ));
        }
    };
    group.metadata(
        "fig8_world",
        "ScenarioParams::large(), 30 s at 60 tx/s, seed 1",
    );
    group.metadata("fig8_pairs", fig8_pairs.len());
    group.throughput(Throughput::Elements(fig8_pairs.len() as u64));
    group.bench_function(format!("edw_capacity_3000n_k{K}"), |b| {
        b.iter(|| plan_all(PathSelect::Edw, false))
    });
    group.bench_function(format!("ksp_accel_3000n_k{K}"), |b| {
        b.iter(|| plan_all(PathSelect::Ksp, true))
    });
    group.bench_function(format!("edw_heap_capacity_3000n_k{K}"), |b| {
        b.iter(|| {
            for &(src, dst) in &fig8_pairs {
                black_box(edge_disjoint_widest_paths_in(
                    &flat.graph,
                    &mut fig8_ws,
                    src,
                    dst,
                    K,
                    capacity_width,
                ));
            }
        })
    });

    // ---- Fig. 8 world: Flash's elephant max flows ---------------------
    let mut flash_run = builder.build_flash();
    let mut elephant_threshold = None;
    flash_run.tune_scheme(|s| {
        assert_eq!(s.num_paths, K);
        if let RouteVia::FlashMaxFlow {
            elephant_threshold: t,
        } = s.route_via
        {
            elephant_threshold = Some(t);
        }
    });
    let elephant_threshold = elephant_threshold.expect("Flash plans elephants by max flow");
    let elephant_pairs = distinct_pairs(builder.scenario(), elephant_threshold);
    // The engine's elephant capacity: a channel's total, either way.
    let capacity = |e: EdgeRef| Some(flat.funds.total(e.id).millitokens());
    group.metadata("elephant_pairs", elephant_pairs.len());
    group.throughput(Throughput::Elements(elephant_pairs.len() as u64));
    group.bench_function(format!("maxflow_elephants_3000n_k{K}"), |b| {
        b.iter(|| {
            for &(src, dst) in &elephant_pairs {
                black_box(max_flow_in(&flat.graph, &mut fig8_ws, src, dst, capacity));
            }
        })
    });

    // ---- Fig. 8 multi-star: Splicer's hub middles ---------------------
    let mut splicer = builder
        .build_splicer()
        .expect("placement is feasible on the fig8 world");
    let mut scheme = None;
    splicer.tune_scheme(|s| scheme = Some(s.clone()));
    let scheme = scheme.expect("the tweak ran");
    assert_eq!(
        (scheme.path_select, scheme.num_paths, scheme.balance_view),
        (PathSelect::Edw, HUB_K, BalanceView::Live)
    );
    let RouteVia::Hubs { assignment } = &scheme.route_via else {
        panic!("Splicer routes via its hubs");
    };
    let hubs: BTreeSet<NodeId> = assignment.values().copied().collect();
    let hub_pairs: Vec<(NodeId, NodeId)> = hubs
        .iter()
        .flat_map(|&a| hubs.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    let star = splicer.topology();
    // `select_paths_in`'s live-view width, with EDW's `min_width`
    // filter.
    let live_width = |e: EdgeRef| {
        let tokens = star.funds.balance(e.id, e.from).to_tokens_f64();
        (tokens > 0.0 && tokens >= min_w).then_some(tokens)
    };
    let middle = |ws: &mut SearchWorkspace, (hub_s, hub_r)| {
        select_paths_in(
            &star.graph,
            ws,
            &star.funds,
            hub_s,
            hub_r,
            HUB_K,
            PathSelect::Edw,
            BalanceView::Live,
            engine.min_tu,
            false,
        )
    };

    // Pruned vs unpruned, alternating which runs first plan by plan.
    let (mut pruned_ns, mut unpruned_ns) = (0u128, 0u128);
    for round in 0..AB_ROUNDS {
        for (i, &(hub_s, hub_r)) in hub_pairs.iter().enumerate() {
            let mut paths = [Vec::new(), Vec::new()];
            let first_unpruned = (i + round) % 2 == 0;
            for unpruned in [first_unpruned, !first_unpruned] {
                let t0 = Instant::now();
                paths[usize::from(unpruned)] = if unpruned {
                    edge_disjoint_widest_paths_in(
                        &Unpruned(&star.graph),
                        &mut fig8_ws,
                        hub_s,
                        hub_r,
                        HUB_K,
                        live_width,
                    )
                } else {
                    middle(&mut fig8_ws, (hub_s, hub_r))
                };
                let ns = t0.elapsed().as_nanos();
                if unpruned {
                    unpruned_ns += ns;
                } else {
                    pruned_ns += ns;
                }
            }
            assert_eq!(
                paths[0], paths[1],
                "hub middles {hub_s}->{hub_r} differ without the dead-end skip"
            );
        }
    }
    let middle_speedup = unpruned_ns as f64 / pruned_ns as f64;
    assert!(
        middle_speedup >= 5.0,
        "hub middles must be ≥5× faster with the dead-end skip than without \
         (unpruned {unpruned_ns} ns vs pruned {pruned_ns} ns = {middle_speedup:.2}×)"
    );
    group.metadata(
        "hub_middle_speedup_interleaved",
        format!("{middle_speedup:.2}"),
    );
    group.metadata("hub_pairs", hub_pairs.len());
    group.throughput(Throughput::Elements(hub_pairs.len() as u64));
    group.bench_function(format!("edw_live_hub_middles_3000n_k{HUB_K}"), |b| {
        b.iter(|| {
            for &pair in &hub_pairs {
                black_box(middle(&mut fig8_ws, pair));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
