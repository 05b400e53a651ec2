//! Payment admission and route computation.
//!
//! Arrivals are serviced by a per-node FIFO CPU (the source device for
//! source-routing schemes, the responsible hub otherwise); the service
//! time scales with the topology size plus the scheme's cryptographic
//! overhead. Once computed, the path plan per `RouteVia` feeds the TU
//! lifecycle layer.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use pcn_graph::{max_flow_in, Path};
use pcn_types::{Amount, NodeId, SimDuration, SimTime, TxId};

use crate::cache::{CacheKey, PathCache, PlanClass};
use crate::paths::{select_paths_in, BalanceView, PathSelect};
use crate::rate::RateController;
use crate::scheme::RouteVia;
use crate::tu::{split_demand, Payment};
use crate::window::WindowController;

use super::{Engine, Ev, FlowState, TxState};

/// Routes one capacity-only plan query — `compute` reads the topology
/// and channel totals, never live balances — through the
/// topology-epoch cache (or straight to `compute` when caching is off).
/// A hit shares the cached `Arc<[Path]>` — exactly what `compute` would
/// have returned, per the epoch contract — without deep-cloning the
/// plan.
fn cached_or<F>(
    cache: &mut PathCache,
    use_cache: bool,
    key: CacheKey,
    epoch: u64,
    compute: F,
) -> Arc<[Path]>
where
    F: FnOnce() -> Vec<Path>,
{
    if use_cache {
        cache.get_or_compute(key, epoch, compute)
    } else {
        compute().into()
    }
}

/// An empty plan.
fn no_paths() -> Arc<[Path]> {
    Vec::new().into()
}

/// Runs one path-selection query: a capacity-only view goes through a
/// topology-stamped cache entry, a live view computes on every plan
/// (it reads balances, which the cache never watches). Shared by the
/// `Direct` plan and the inter-hub middle leg.
#[allow(clippy::too_many_arguments)] // the routing tuple is the paper's Table II axes
fn cached_select(
    cache: &mut PathCache,
    use_cache: bool,
    key: CacheKey,
    epoch: u64,
    graph: &pcn_graph::Graph,
    workspace: &mut pcn_graph::SearchWorkspace,
    funds: &crate::channel::NetworkFunds,
    src: NodeId,
    dst: NodeId,
    k: usize,
    strategy: PathSelect,
    view: BalanceView,
    min_w: Amount,
    accel: bool,
) -> Arc<[Path]> {
    let use_cache = use_cache && view == BalanceView::CapacityOnly;
    cached_or(cache, use_cache, key, epoch, || {
        select_paths_in(
            graph, workspace, funds, src, dst, k, strategy, view, min_w, accel,
        )
    })
}

/// Whether this payment's plan goes through a goal-directed computation
/// when `EngineConfig::use_goal_directed` is on. Purely a function of
/// the scheme and the payment — identical with or without the cache —
/// so `goal_directed_plans` stays a semantic counter.
fn plan_uses_accel(scheme: &crate::scheme::SchemeConfig, p: &Payment) -> bool {
    match &scheme.route_via {
        RouteVia::Direct | RouteVia::Hubs { .. } => matches!(
            scheme.path_select,
            PathSelect::Ksp | PathSelect::Eds | PathSelect::Heuristic
        ),
        RouteVia::Landmarks { .. } => true,
        RouteVia::FlashMaxFlow { elephant_threshold } => p.value <= *elephant_threshold,
        RouteVia::SingleHub { .. } => false,
    }
}

impl Engine {
    pub(super) fn on_arrival(&mut self, now: SimTime) {
        let payment = self.payments.pop_front().expect("arrival without payment");
        debug_assert_eq!(payment.created, now);
        if let Some(next) = self.payments.front() {
            self.events.schedule_at(next.created, Ev::Arrival);
        }
        self.stats.generated += 1;
        self.stats.generated_value += payment.value;
        if !self
            .fault
            .as_ref()
            .is_some_and(|f| f.plan.is_adversarial(payment.id))
        {
            // Honest runs count everything here, so honest_tsr == tsr.
            self.stats.honest_generated += 1;
        }
        let tx = payment.id;
        // Route computation is serviced at the source (source routing) or
        // at the responsible hub, modelled as a FIFO per-node CPU.
        let compute_node = self.compute_node(&payment);
        let per_edge = if self.scheme.compute_at_source {
            self.scheme.compute.client_secs_per_edge
        } else {
            self.scheme.compute.hub_secs_per_edge
        };
        // Open channels only: closed tombstones keep their dense ids but
        // are invisible to route computation, so they must not inflate
        // its modeled cost as churn accumulates.
        let service = SimDuration::from_secs_f64(per_edge * self.graph.open_edge_count() as f64)
            + self.scheme.compute.crypto_overhead;
        let start = self.node_busy[compute_node.index()].max(now);
        let done = start + service;
        self.node_busy[compute_node.index()] = done;
        self.events.schedule_at(done, Ev::ComputeDone(tx));
        self.events.schedule_at(payment.deadline, Ev::Deadline(tx));
        self.txs.insert(
            tx,
            TxState {
                payment,
                flow: None,
                backlog: VecDeque::new(),
                delivered: Amount::ZERO,
                resolved: false,
                next_path: 0,
            },
        );
        self.active.push(tx);
    }

    pub(super) fn compute_node(&self, p: &Payment) -> NodeId {
        match &self.scheme.route_via {
            RouteVia::Hubs { assignment } => assignment.get(&p.source).copied().unwrap_or(p.source),
            RouteVia::SingleHub { hub } => *hub,
            _ => p.source,
        }
    }

    pub(super) fn on_compute_done(&mut self, now: SimTime, tx: TxId) {
        let Some(state) = self.txs.get(tx) else {
            return;
        };
        if state.resolved {
            return;
        }
        let payment = state.payment.clone();
        let paths = self.plan_paths(&payment);
        if paths.is_empty() {
            self.stats.unroutable += 1;
            self.fail_tx(tx);
            return;
        }
        let k = paths.len();
        let rates = self.scheme.rate_control.then(|| {
            RateController::new(
                k,
                self.cfg.initial_rate,
                self.cfg.min_rate,
                self.cfg.max_rate,
                self.cfg.alpha,
            )
        });
        let windows =
            WindowController::new(k, self.cfg.initial_window, self.cfg.beta, self.cfg.gamma);
        let backlog: VecDeque<Amount> =
            split_demand(payment.value, self.cfg.min_tu, self.cfg.max_tu).into();
        let state = self.txs.get_mut(tx).expect("checked above");
        let mut flow = FlowState {
            outstanding: vec![0; k],
            paths,
            rates,
            windows,
            admit_mask: 0,
        };
        for i in 0..k {
            flow.refresh_admit(i);
        }
        state.flow = Some(flow);
        state.backlog = backlog;
        if self.scheme.rate_control {
            for i in 0..k {
                self.events.schedule_at(now, Ev::Inject(tx, i));
            }
        } else {
            // Blast every TU immediately, round-robin over the paths.
            while self.send_next_tu(now, tx, None) {}
        }
    }

    /// Computes the payment's plan. Flash mice draw their one path from
    /// the cached candidate pool on the engine RNG, right after the pool
    /// lookup, cache on or off.
    pub(super) fn plan_paths(&mut self, p: &Payment) -> Arc<[Path]> {
        let accel = self.cfg.use_goal_directed && plan_uses_accel(&self.scheme, p);
        if accel {
            self.stats.goal_directed_plans += 1;
        }
        let k = self.scheme.num_paths.max(1);
        let strategy = self.scheme.path_select;
        let view = self.scheme.balance_view;
        let min_w = self.cfg.min_tu;
        let use_cache = self.cfg.use_path_cache;
        let Engine {
            scheme,
            graph,
            funds,
            path_cache,
            workspace,
            rng,
            ..
        } = self;
        let epoch = graph.topology_epoch();
        match &scheme.route_via {
            RouteVia::Direct => cached_select(
                path_cache,
                use_cache,
                CacheKey::plan(p.source, p.dest),
                epoch,
                graph,
                workspace,
                funds,
                p.source,
                p.dest,
                k,
                strategy,
                view,
                min_w,
                accel,
            ),
            RouteVia::Hubs { assignment } => {
                let Some(&hub_s) = assignment.get(&p.source) else {
                    return no_paths();
                };
                let Some(&hub_r) = assignment.get(&p.dest) else {
                    return no_paths();
                };
                // The plan decomposes into legs with very different
                // volatility: the head (source→hub_s) and tail
                // (hub_r→dest) access legs are pure topology lookups,
                // cached per client, while the hub_s→hub_r middle runs
                // on the scheme's balance view: live for Splicer (the
                // hubs route on fresh state), so computed on every plan
                // (see `cached_select`). Composition (and the middle's
                // client-avoidance filter, which depends on the payment's
                // endpoints) happens per payment. The composed plan is
                // bit-identical to the old monolithic computation.
                let head = cached_or(
                    path_cache,
                    use_cache,
                    CacheKey::hub_leg(p.source, hub_s),
                    epoch,
                    || {
                        graph
                            .edge_between(p.source, hub_s)
                            .map(|ch| vec![Path::new(vec![p.source, hub_s], vec![ch])])
                            .unwrap_or_default()
                    },
                );
                let tail = cached_or(
                    path_cache,
                    use_cache,
                    CacheKey::hub_leg(hub_r, p.dest),
                    epoch,
                    || {
                        graph
                            .edge_between(hub_r, p.dest)
                            .map(|ch| vec![Path::new(vec![hub_r, p.dest], vec![ch])])
                            .unwrap_or_default()
                    },
                );
                let (Some(head), Some(tail)) = (head.first(), tail.first()) else {
                    return no_paths();
                };
                if hub_s == hub_r {
                    // Same-hub fast path: both clients hang off one hub,
                    // the plan is the joined access legs — topology-only,
                    // never invalidated by funds movement.
                    return vec![head.clone().join(tail.clone())].into();
                }
                let middles = cached_select(
                    path_cache,
                    use_cache,
                    CacheKey::hub_middle(hub_s, hub_r),
                    epoch,
                    graph,
                    workspace,
                    funds,
                    hub_s,
                    hub_r,
                    k,
                    strategy,
                    view,
                    min_w,
                    accel,
                );
                middles
                    .iter()
                    .filter(|m| {
                        // A middle path must not route through either client.
                        m.nodes()[1..m.nodes().len() - 1]
                            .iter()
                            .all(|&n| n != p.source && n != p.dest)
                    })
                    .map(|m| head.clone().join(m.clone()).join(tail.clone()))
                    .collect::<Vec<Path>>()
                    .into()
            }
            RouteVia::Landmarks { landmarks } => cached_or(
                path_cache,
                use_cache,
                CacheKey::plan(p.source, p.dest),
                epoch,
                || {
                    // Both toggle arms build each route as
                    // `source → landmark` joined with the **reverse** of
                    // the canonical `dest → landmark` leg, so flipping
                    // `use_goal_directed` is bit-identical: the batched
                    // trees below read off exactly those two searches.
                    let cost =
                        |e: pcn_graph::EdgeRef| (funds.total(e.id) > Amount::ZERO).then_some(1.0);
                    let mut legs: Vec<(Option<Path>, Option<Path>)> = Vec::new();
                    if accel {
                        // One tree from the source plus one from the
                        // destination replace the 2·k single-pair
                        // searches of the per-pair baseline.
                        let (up_tree, down_tree) = pcn_graph::shortest_path_two_trees_in(
                            graph, workspace, p.source, p.dest, cost,
                        );
                        for &lm in landmarks.iter().take(k) {
                            if lm == p.source || lm == p.dest {
                                continue;
                            }
                            legs.push((
                                up_tree.path_to(lm),
                                down_tree.path_to(lm).map(Path::reversed),
                            ));
                        }
                    } else {
                        for &lm in landmarks.iter().take(k) {
                            if lm == p.source || lm == p.dest {
                                continue;
                            }
                            let up = graph
                                .shortest_path_in(workspace, p.source, lm, cost)
                                .map(|(_, path)| path);
                            let down = graph
                                .shortest_path_in(workspace, p.dest, lm, cost)
                                .map(|(_, path)| path.reversed());
                            legs.push((up, down));
                        }
                    }
                    let mut out = Vec::new();
                    for (up, down) in legs {
                        if let (Some(u), Some(d)) = (up, down) {
                            // Loops through the landmark are allowed by the
                            // scheme but a hop may not revisit the same channel.
                            let joined = u.join(d);
                            let mut chans: Vec<_> = joined.channels().to_vec();
                            chans.sort();
                            chans.dedup();
                            if chans.len() == joined.channels().len() {
                                out.push(joined);
                            }
                        }
                    }
                    // Two landmarks can yield the same joined route; keep
                    // the first occurrence of each node sequence (a global
                    // dedup — adjacent-only dedup let duplicates through
                    // and the scheme double-sent over one route).
                    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
                    out.retain(|path| seen.insert(path.nodes().to_vec()));
                    out
                },
            ),
            RouteVia::SingleHub { hub } => {
                let hub = *hub;
                cached_or(
                    path_cache,
                    use_cache,
                    CacheKey::plan(p.source, p.dest),
                    epoch,
                    || {
                        let Some(first) = graph.edge_between(p.source, hub) else {
                            return Vec::new();
                        };
                        let Some(second) = graph.edge_between(hub, p.dest) else {
                            return Vec::new();
                        };
                        vec![Path::new(vec![p.source, hub, p.dest], vec![first, second])]
                    },
                )
            }
            RouteVia::FlashMaxFlow { elephant_threshold } => {
                if p.value > *elephant_threshold {
                    cached_or(
                        path_cache,
                        use_cache,
                        CacheKey {
                            source: p.source,
                            dest: p.dest,
                            class: PlanClass::Elephant,
                        },
                        epoch,
                        || {
                            let res = max_flow_in(graph, workspace, p.source, p.dest, |e| {
                                Some(funds.total(e.id).millitokens())
                            });
                            let mut paths: Vec<(u64, Path)> = res
                                .paths
                                .into_iter()
                                .map(|fp| (fp.amount, fp.path))
                                .collect();
                            paths.sort_by_key(|p| std::cmp::Reverse(p.0));
                            paths.into_iter().take(k).map(|(_, p)| p).collect()
                        },
                    )
                } else {
                    // The pool is cached and shared via `Arc`; each
                    // payment draws its one path from it. The view stays
                    // capacity-only whatever the scheme says: `cached_or`
                    // stores the pool, which is sound only for plans that
                    // never read live balances.
                    let pool = cached_or(
                        path_cache,
                        use_cache,
                        CacheKey {
                            source: p.source,
                            dest: p.dest,
                            class: PlanClass::MicePool,
                        },
                        epoch,
                        || {
                            select_paths_in(
                                graph,
                                workspace,
                                funds,
                                p.source,
                                p.dest,
                                k,
                                strategy,
                                BalanceView::CapacityOnly,
                                min_w,
                                accel,
                            )
                        },
                    );
                    if pool.is_empty() {
                        pool
                    } else {
                        vec![pool[rng.index(pool.len())].clone()].into()
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{payments_from_tuples, Engine, EngineConfig};
    use crate::channel::NetworkFunds;
    use crate::scheme::SchemeConfig;
    use pcn_sim::SimRng;
    use pcn_types::{Amount, NodeId, SimDuration, SimTime};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The hub's route-computation CPU is a FIFO: simultaneous arrivals
    /// are serviced back to back, so `node_busy` accumulates one service
    /// interval per payment (untestable inside the monolith — `node_busy`
    /// was buried 300 lines from the arrival handler).
    #[test]
    fn hub_compute_queue_serializes_simultaneous_arrivals() {
        let g = pcn_graph::star(5); // hub 0
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let crypto = SimDuration::from_millis(100);
        let scheme = SchemeConfig::a2l(n(0), crypto);
        let mut engine = Engine::new(g, funds, scheme, EngineConfig::default(), SimRng::seed(1));
        // Three payments arriving at t=0 through the same hub.
        let payments = payments_from_tuples(
            &[(0, 1, 2, 1), (0, 2, 3, 1), (0, 3, 4, 1)],
            SimDuration::from_secs(3),
        );
        engine.payments = payments.into();
        engine.on_arrival(SimTime::ZERO);
        engine.on_arrival(SimTime::ZERO);
        engine.on_arrival(SimTime::ZERO);
        // Per-edge compute cost is scheme-dependent; the crypto overhead
        // alone lower-bounds three back-to-back service slots.
        let busy_until = engine.node_busy[0];
        assert!(
            busy_until >= SimTime::ZERO + crypto + crypto + crypto,
            "hub CPU must serialize: busy until {busy_until:?}"
        );
        // All three tx admitted and tracked.
        assert_eq!(engine.stats.generated, 3);
        assert_eq!(engine.txs.len(), 3);
        assert_eq!(engine.active.len(), 3);
    }

    /// Source-routing schemes compute at the source: two sources never
    /// contend for the same CPU.
    #[test]
    fn source_compute_queues_are_independent() {
        let mut g = pcn_graph::Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::spider(),
            EngineConfig::default(),
            SimRng::seed(2),
        );
        let payments =
            payments_from_tuples(&[(0, 0, 3, 1), (0, 1, 3, 1)], SimDuration::from_secs(3));
        engine.payments = payments.into();
        engine.on_arrival(SimTime::ZERO);
        engine.on_arrival(SimTime::ZERO);
        // Distinct sources: each CPU served exactly one payment, so both
        // become free at the same instant instead of stacking.
        assert_eq!(engine.node_busy[0], engine.node_busy[1]);
        assert!(engine.node_busy[0] > SimTime::ZERO);
        assert_eq!(engine.node_busy[2], SimTime::ZERO);
    }

    /// Repeated plan queries for the same (source, dest) hit the cache
    /// while no watched epoch moves, and cached plans equal recomputed
    /// ones (the semantics-preservation contract, engine-level).
    #[test]
    fn repeated_plans_hit_cache_and_match_recomputation() {
        let mut g = pcn_graph::Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        g.add_edge(n(0), n(3));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::spider(),
            EngineConfig::default(),
            SimRng::seed(7),
        );
        let payments =
            payments_from_tuples(&[(0, 0, 3, 1), (0, 0, 3, 2)], SimDuration::from_secs(3));
        let first = engine.plan_paths(&payments[0]);
        let second = engine.plan_paths(&payments[1]);
        assert!(!first.is_empty());
        assert_eq!(
            first.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>(),
            second
                .iter()
                .map(|p| p.nodes().to_vec())
                .collect::<Vec<_>>(),
        );
        let stats = engine.path_cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        // Disabling the cache recomputes the identical plan.
        engine.cfg.use_path_cache = false;
        let recomputed = engine.plan_paths(&payments[0]);
        assert_eq!(
            first.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>(),
            recomputed
                .iter()
                .map(|p| p.nodes().to_vec())
                .collect::<Vec<_>>(),
        );
        assert_eq!(engine.path_cache.stats().lookups(), 2, "bypass, no lookup");
    }

    /// Same-hub Splicer plans are pure topology lookups: the cached
    /// access legs must survive any funds movement (they used to be
    /// cached `Live` and invalidated on every balance change).
    #[test]
    fn same_hub_plans_survive_funds_movement() {
        let g = pcn_graph::star(4); // hub 0
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let assignment: std::collections::BTreeMap<NodeId, NodeId> =
            [(n(1), n(0)), (n(2), n(0)), (n(3), n(0))]
                .into_iter()
                .collect();
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::splicer(assignment),
            EngineConfig::default(),
            SimRng::seed(8),
        );
        let payments =
            payments_from_tuples(&[(0, 1, 2, 1), (0, 1, 2, 1)], SimDuration::from_secs(3));
        let first = engine.plan_paths(&payments[0]);
        assert_eq!(first.len(), 1, "1 → hub 0 → 2");
        // Funds move on the plan's own channel: the plan reads topology
        // only, so both cached legs stay fresh.
        engine
            .funds
            .lock(pcn_types::ChannelId::new(0), n(0), Amount::from_tokens(1))
            .unwrap();
        let second = engine.plan_paths(&payments[1]);
        assert_eq!(first[0].nodes(), second[0].nodes());
        let stats = engine.path_cache.stats();
        assert_eq!(stats.misses, 2, "head and tail leg, first sight");
        assert_eq!(stats.hits, 2, "both legs served from cache");
        assert_eq!(stats.invalidations(), 0, "funds movement must not stale");
    }

    /// A live hub middle is planned on the current balances every time
    /// and never looked up: on a two-hub multi-star whose hubs share two
    /// parallel channels, funds moving on the backbone between three
    /// cross-hub payments swap the widest middle, each plan follows
    /// `select_paths_in` on the balances of its moment, and the only
    /// cache lookups are the head and tail access legs.
    #[test]
    fn hub_middle_leg_follows_live_balances_without_cache_lookups() {
        use crate::paths::{select_paths_in, BalanceView, PathSelect};
        let mut g = pcn_graph::Graph::new(6);
        let wide = g.add_edge(n(0), n(1));
        let narrow = g.add_edge(n(0), n(1));
        // Clients 2 and 3 on hub 0; 4 and 5 on hub 1.
        for (hub, client) in [(0, 2), (0, 3), (1, 4), (1, 5)] {
            g.add_edge(n(hub), n(client));
        }
        let funds = NetworkFunds::from_graph(&g, |ch, _| {
            Amount::from_tokens(if ch == narrow { 60 } else { 100 })
        });
        let assignment: std::collections::BTreeMap<NodeId, NodeId> =
            [(2, 0), (3, 0), (4, 1), (5, 1)]
                .into_iter()
                .map(|(client, hub)| (n(client), n(hub)))
                .collect();
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::splicer(assignment),
            EngineConfig::default(),
            SimRng::seed(8),
        );
        let payments = payments_from_tuples(
            &[(0, 2, 4, 1), (0, 2, 4, 1), (0, 2, 4, 1)],
            SimDuration::from_secs(3),
        );
        // Before each plan, drain the backbone channel that was widest
        // until the other one is wider.
        let moves = [None, Some(wide), Some(narrow)];
        let mut widest = Vec::new();
        for (p, moved) in payments.iter().zip(moves) {
            if let Some(ch) = moved {
                let tokens = Amount::from_tokens(50);
                engine.funds.lock(ch, n(0), tokens).unwrap();
                engine.funds.settle(ch, n(0), tokens).unwrap();
            }
            let plan = engine.plan_paths(p);
            let want = select_paths_in(
                &engine.graph,
                &mut pcn_graph::SearchWorkspace::new(),
                &engine.funds,
                n(0),
                n(1),
                engine.scheme.num_paths,
                PathSelect::Edw,
                BalanceView::Live,
                engine.cfg.min_tu,
                false,
            );
            let middles: Vec<_> = plan
                .iter()
                .map(|path| {
                    let chans = path.channels();
                    chans[1..chans.len() - 1].to_vec()
                })
                .collect();
            let want: Vec<_> = want.iter().map(|m| m.channels().to_vec()).collect();
            assert_eq!(middles, want, "the middle of {:?}", p.id);
            widest.push(middles[0].clone());
        }
        assert_eq!(widest, [vec![wide], vec![narrow], vec![wide]]);
        let stats = engine.path_cache.stats();
        assert_eq!(stats.lookups(), 6, "head and tail legs only");
        assert_eq!((stats.misses, stats.invalidations()), (2, 0));
    }

    /// Flash's mice pool is cached per (source, dest) and the per-payment
    /// random pick still draws from the engine RNG (cache on or off).
    #[test]
    fn flash_mice_pool_cached_across_payments() {
        let mut g = pcn_graph::Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(3));
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(3));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::flash(Amount::from_tokens(50)),
            EngineConfig::default(),
            SimRng::seed(9),
        );
        let payments = payments_from_tuples(
            &[(0, 0, 3, 1), (0, 0, 3, 1), (0, 0, 3, 1)],
            SimDuration::from_secs(3),
        );
        for p in &payments {
            let plan = engine.plan_paths(p);
            assert_eq!(plan.len(), 1, "mice take a single pooled path");
        }
        let stats = engine.path_cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    /// Two landmarks can relay the identical joined route with a
    /// different route between them: the plan must dedup globally, not
    /// just adjacently, or the scheme double-sends over one route.
    #[test]
    fn landmark_plans_contain_no_duplicate_paths() {
        // Line 0-1-2-3 plus detour 0-4-3. Landmarks [1, 4, 2]: landmarks
        // 1 and 2 both yield 0-1-2-3, separated by 4's 0-4-3 — adjacent
        // dedup used to let the duplicate through.
        let mut g = pcn_graph::Graph::new(5);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        g.add_edge(n(0), n(4));
        g.add_edge(n(4), n(3));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::landmark(vec![n(1), n(4), n(2)]),
            EngineConfig::default(),
            SimRng::seed(4),
        );
        let payments = payments_from_tuples(&[(0, 0, 3, 1)], SimDuration::from_secs(3));
        let plan = engine.plan_paths(&payments[0]);
        assert_eq!(plan.len(), 2, "0-1-2-3 (once) and 0-4-3");
        let mut node_seqs: Vec<_> = plan.iter().map(|p| p.nodes().to_vec()).collect();
        node_seqs.sort();
        node_seqs.dedup();
        assert_eq!(node_seqs.len(), plan.len(), "no duplicate routes");
    }

    /// Unroutable payments are counted and failed at plan time.
    #[test]
    fn plan_paths_empty_for_disconnected_destination() {
        let mut g = pcn_graph::Graph::new(3);
        g.add_edge(n(0), n(1)); // node 2 isolated
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::spider(),
            EngineConfig::default(),
            SimRng::seed(3),
        );
        let payments = payments_from_tuples(&[(0, 0, 2, 1)], SimDuration::from_secs(3));
        let p = payments[0].clone();
        engine.payments = payments.into();
        assert!(engine.plan_paths(&p).is_empty());
    }
}
