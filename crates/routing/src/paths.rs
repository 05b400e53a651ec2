//! Path selection strategies (Table II: KSP, Heuristic, EDW, EDS).

use core::cell::RefCell;

use pcn_graph::{
    edge_disjoint_shortest_paths_accel_in, edge_disjoint_shortest_paths_in,
    edge_disjoint_widest_paths_in, edge_disjoint_widest_paths_static_in, k_shortest_paths_accel_in,
    k_shortest_paths_in, k_shortest_paths_until_in, widest_path_in, EdgeRef, Footprint, Graph,
    Path, SearchWorkspace,
};
use pcn_types::{Amount, NodeId};

use crate::channel::NetworkFunds;

/// Which path type a scheme routes over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PathSelect {
    /// k-shortest paths (Yen).
    Ksp,
    /// Heuristic: k loopless paths ranked by channel funds (the paper's
    /// "picks 5 feasible paths with the highest channel funds").
    Heuristic,
    /// Edge-disjoint widest paths (Splicer's default and Table II winner).
    #[default]
    Edw,
    /// Edge-disjoint shortest paths.
    Eds,
}

impl PathSelect {
    /// All variants, for Table II sweeps.
    pub const ALL: [PathSelect; 4] = [
        PathSelect::Ksp,
        PathSelect::Heuristic,
        PathSelect::Edw,
        PathSelect::Eds,
    ];

    /// Name as printed in Table II.
    pub fn name(self) -> &'static str {
        match self {
            PathSelect::Ksp => "KSP",
            PathSelect::Heuristic => "Heuristic",
            PathSelect::Edw => "EDW",
            PathSelect::Eds => "EDS",
        }
    }
}

/// How much knowledge of channel state the path computation has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceView {
    /// Live per-direction balances (hub routers with epoch-fresh state).
    Live,
    /// Only static channel totals (source routers: remote balances are
    /// unobservable in a real PCN).
    CapacityOnly,
}

/// Computes up to `k` paths from `src` to `dst` under the given strategy.
///
/// Widths come from channel funds: live directional balance or static
/// total depending on `view`. `min_width` applies to EDW only: its
/// searches skip channels narrower than `min_width`, so no EDW path is
/// narrower. The Heuristic ranks its candidates by bottleneck width and
/// filters none; KSP and EDS ignore widths beyond usability (a channel
/// is usable iff its width is positive).
///
/// `accel` routes the unit-cost searches (KSP/EDS/Heuristic) through the
/// goal-directed bidirectional BFS ([`pcn_graph::shortest_path_accel_in`]);
/// results are bit-identical either way.
#[allow(clippy::too_many_arguments)] // the routing tuple is the paper's Table II axes
pub fn select_paths(
    g: &Graph,
    funds: &NetworkFunds,
    src: NodeId,
    dst: NodeId,
    k: usize,
    strategy: PathSelect,
    view: BalanceView,
    min_width: Amount,
    accel: bool,
) -> Vec<Path> {
    select_paths_in(
        g,
        &mut SearchWorkspace::new(),
        funds,
        src,
        dst,
        k,
        strategy,
        view,
        min_width,
        accel,
    )
}

/// [`select_paths`] running its graph searches on a reusable
/// [`SearchWorkspace`]: the engine's hot path calls this with its
/// long-lived workspace so repeated path selection is allocation-free.
/// Results are bit-identical to [`select_paths`]; as there, `min_width`
/// filters EDW only.
///
/// Capacity-view EDW walks [`NetworkFunds::capacity_order`] with
/// [`pcn_graph::edge_disjoint_widest_paths_static_in`] instead of
/// running the heap search: channel totals never change, so their
/// order is known before the search starts. The paths are the heap
/// search's, which [`select_paths_footprint`] still runs.
#[allow(clippy::too_many_arguments)] // the routing tuple is the paper's Table II axes
pub fn select_paths_in(
    g: &Graph,
    ws: &mut SearchWorkspace,
    funds: &NetworkFunds,
    src: NodeId,
    dst: NodeId,
    k: usize,
    strategy: PathSelect,
    view: BalanceView,
    min_width: Amount,
    accel: bool,
) -> Vec<Path> {
    if (strategy, view) == (PathSelect::Edw, BalanceView::CapacityOnly) {
        return edge_disjoint_widest_paths_static_in(
            g,
            ws,
            funds.capacity_order(),
            src,
            dst,
            k,
            min_width.to_tokens_f64(),
        );
    }
    let width = |e: EdgeRef| funds_width(funds, view, e);
    select_paths_core(
        g,
        ws,
        width,
        src,
        dst,
        k,
        strategy,
        min_width,
        accel,
        Scope::Plain,
    )
}

/// [`select_paths_in`] that additionally records the **channel dependency
/// footprint** of the computation into `fp` (cleared first): every
/// channel the width closure was consulted on. The searches only read
/// channel state through that closure and consult every edge whose state
/// can influence the outcome, so the result is bit-identical under any
/// funds movement confined to channels outside the footprint — the
/// scoped-invalidation contract the path cache relies on. Path results
/// are bit-identical to [`select_paths_in`].
///
/// EDW's widest-path search never prices an arc into a node of degree 1
/// that is not its target (see [`pcn_graph::widest_path`]), so a hub
/// middle on a multi-star records the hub backbone it walked, not the
/// spokes of every hub it expanded. The smaller footprint is still
/// sufficient: no funds state of such a spoke can put the client on a
/// path, and a degree changes only with the topology epoch, which stales
/// the entry anyway.
///
/// Goal-directed searches keep the footprint sufficient as they are:
/// each prices every out-edge of every node it expands, and its two
/// expanded balls cover every path no longer than its answer (see the
/// `pcn-graph` accel module docs). The footprint scope only changes the
/// Heuristic: its candidate pool never stops early, because the early
/// exit skips candidates whose channels a funds increase could promote
/// into the top k.
#[allow(clippy::too_many_arguments)] // the routing tuple is the paper's Table II axes
pub fn select_paths_footprint(
    g: &Graph,
    ws: &mut SearchWorkspace,
    funds: &NetworkFunds,
    src: NodeId,
    dst: NodeId,
    k: usize,
    strategy: PathSelect,
    view: BalanceView,
    min_width: Amount,
    accel: bool,
    fp: &mut Footprint,
) -> Vec<Path> {
    fp.clear();
    let width = |e: EdgeRef| {
        fp.record(e.id);
        funds_width(funds, view, e)
    };
    select_paths_core(
        g,
        ws,
        width,
        src,
        dst,
        k,
        strategy,
        min_width,
        accel,
        Scope::Footprint,
    )
}

/// Usable width of a directed edge under a balance view: live
/// directional balance or static channel total.
fn funds_width(funds: &NetworkFunds, view: BalanceView, e: EdgeRef) -> Option<f64> {
    let tokens = match view {
        BalanceView::Live => funds.balance(e.id, e.from).to_tokens_f64(),
        BalanceView::CapacityOnly => funds.total(e.id).to_tokens_f64(),
    };
    (tokens > 0.0).then_some(tokens)
}

/// Whether the computation records a channel dependency footprint.
///
/// A scoped computation must consult (and so record) every channel
/// whose funds state can influence the result, so the Heuristic pool
/// never stops early under it. Results are bit-identical in both
/// scopes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    Plain,
    Footprint,
}

/// Strategy dispatch over an arbitrary width closure — the single body
/// behind [`select_paths_in`] and [`select_paths_footprint`].
#[allow(clippy::too_many_arguments)]
fn select_paths_core<W>(
    g: &Graph,
    ws: &mut SearchWorkspace,
    mut width: W,
    src: NodeId,
    dst: NodeId,
    k: usize,
    strategy: PathSelect,
    min_width: Amount,
    accel: bool,
    scope: Scope,
) -> Vec<Path>
where
    W: FnMut(EdgeRef) -> Option<f64>,
{
    let min_w = min_width.to_tokens_f64();
    match strategy {
        PathSelect::Ksp => {
            if accel {
                k_shortest_paths_accel_in(g, ws, src, dst, k, |e| width(e).map(|_| 1.0), |_| false)
            } else {
                k_shortest_paths_in(g, ws, src, dst, k, |e| width(e).map(|_| 1.0))
            }
        }
        PathSelect::Eds => {
            if accel {
                edge_disjoint_shortest_paths_accel_in(g, ws, src, dst, k, |e| width(e).map(|_| 1.0))
            } else {
                edge_disjoint_shortest_paths_in(g, ws, src, dst, k, |e| width(e).map(|_| 1.0))
            }
        }
        PathSelect::Edw => {
            edge_disjoint_widest_paths_in(g, ws, src, dst, k, |e| width(e).filter(|w| *w >= min_w))
        }
        PathSelect::Heuristic => {
            // Rank a KSP candidate pool by bottleneck funds, keep the top
            // k — but stop pool generation early. One widest-path query
            // yields the best bottleneck any pool path can achieve; once
            // k accepted paths hit that bound, the stable descending sort
            // below can never rank a later (by construction no wider)
            // candidate into the top k, so the remaining — and most
            // expensive — Yen rounds cannot change the selection.
            //
            // Footprint scope generates the full pool instead: skipped
            // candidates' channels are never priced, so a funds increase
            // lifting one of them above the old widest bound would not
            // invalidate a scoped cache entry whose selection it changes.
            let width = RefCell::new(&mut width);
            let wmax = match scope {
                Scope::Plain => {
                    widest_path_in(g, ws, src, dst, |e| (width.borrow_mut())(e)).map(|(w, _)| w)
                }
                Scope::Footprint => None,
            };
            let mut at_max = 0usize;
            let until = |p: &Path| {
                let Some(wm) = wmax else { return false };
                let bottleneck = p
                    .hops_iter()
                    .map(|(from, ch, to)| {
                        (width.borrow_mut())(EdgeRef { id: ch, from, to }).unwrap_or(0.0)
                    })
                    .fold(f64::INFINITY, f64::min);
                if bottleneck >= wm {
                    at_max += 1;
                }
                at_max >= k
            };
            let cost = |e: EdgeRef| (width.borrow_mut())(e).map(|_| 1.0);
            let pool = if accel {
                k_shortest_paths_accel_in(g, ws, src, dst, 3 * k, cost, until)
            } else {
                k_shortest_paths_until_in(g, ws, src, dst, 3 * k, cost, until)
            };
            let mut scored: Vec<(f64, Path)> = pool
                .into_iter()
                .map(|p| {
                    let bottleneck = p
                        .hops_iter()
                        .map(|(from, ch, to)| {
                            (width.borrow_mut())(EdgeRef { id: ch, from, to }).unwrap_or(0.0)
                        })
                        .fold(f64::INFINITY, f64::min);
                    (bottleneck, p)
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            scored.into_iter().take(k).map(|(_, p)| p).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::Amount;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Diamond with one fat route (0-2-3) and one thin route (0-1-3).
    fn setup() -> (Graph, NetworkFunds) {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1)); // ch0 thin
        g.add_edge(n(1), n(3)); // ch1 thin
        g.add_edge(n(0), n(2)); // ch2 fat
        g.add_edge(n(2), n(3)); // ch3 fat
        let funds = NetworkFunds::from_graph(&g, |id, _| {
            if id.index() < 2 {
                Amount::from_tokens(2)
            } else {
                Amount::from_tokens(50)
            }
        });
        (g, funds)
    }

    #[test]
    fn edw_prefers_fat_route_first() {
        let (g, funds) = setup();
        let paths = select_paths(
            &g,
            &funds,
            n(0),
            n(3),
            5,
            PathSelect::Edw,
            BalanceView::Live,
            Amount::from_tokens(1),
            false,
        );
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].nodes()[1], n(2), "fat route first");
    }

    #[test]
    fn edw_min_width_filters_thin_paths() {
        let (g, funds) = setup();
        let paths = select_paths(
            &g,
            &funds,
            n(0),
            n(3),
            5,
            PathSelect::Edw,
            BalanceView::Live,
            Amount::from_tokens(10),
            false,
        );
        assert_eq!(paths.len(), 1, "thin route excluded");
    }

    #[test]
    fn all_strategies_return_valid_paths() {
        let (g, funds) = setup();
        for strategy in PathSelect::ALL {
            for view in [BalanceView::Live, BalanceView::CapacityOnly] {
                for accel in [false, true] {
                    let paths = select_paths(
                        &g,
                        &funds,
                        n(0),
                        n(3),
                        4,
                        strategy,
                        view,
                        Amount::from_millitokens(1),
                        accel,
                    );
                    assert!(!paths.is_empty(), "{strategy:?}/{view:?}/accel={accel}");
                    for p in &paths {
                        p.validate(&g).unwrap();
                        assert_eq!(p.source(), n(0));
                        assert_eq!(p.target(), n(3));
                    }
                }
            }
        }
    }

    #[test]
    fn heuristic_ranks_by_bottleneck() {
        let (g, funds) = setup();
        let paths = select_paths(
            &g,
            &funds,
            n(0),
            n(3),
            1,
            PathSelect::Heuristic,
            BalanceView::Live,
            Amount::from_millitokens(1),
            false,
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes()[1], n(2));
    }

    /// The heuristic's bottleneck scorer builds each hop's real forward
    /// [`EdgeRef`] from `hops_iter`. The old degenerate `to: from` ref
    /// was *latent* — today's width closure reads only `e.id`/`e.from`,
    /// so scoring was already forward-correct — but this pins the
    /// forward ranking on asymmetric balances (route via node 1 thin
    /// forward / fat backward, via node 2 the opposite) so a future
    /// direction-sensitive width closure cannot silently regress it.
    #[test]
    fn heuristic_scores_hops_in_forward_direction() {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1)); // ch0
        g.add_edge(n(1), n(3)); // ch1
        g.add_edge(n(0), n(2)); // ch2
        g.add_edge(n(2), n(3)); // ch3
        let funds = NetworkFunds::from_graph(&g, |id, side| {
            let via1 = id.index() < 2;
            let forward = side == n(0) || (via1 && side == n(1)) || (!via1 && side == n(2));
            let tokens = match (via1, forward) {
                (true, true) => 3,   // thin forward via 1
                (true, false) => 9,  // fat backward via 1
                (false, true) => 6,  // fat forward via 2
                (false, false) => 1, // thin backward via 2
            };
            Amount::from_tokens(tokens)
        });
        let paths = select_paths(
            &g,
            &funds,
            n(0),
            n(3),
            1,
            PathSelect::Heuristic,
            BalanceView::Live,
            Amount::from_millitokens(1),
            false,
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(
            paths[0].nodes()[1],
            n(2),
            "forward bottleneck via 2 (6) beats via 1 (3); a \
             backward-reading scorer would rank via 1 (backward 9) first"
        );
    }

    /// The footprint variant returns bit-identical paths and records
    /// exactly the channels the search consulted.
    #[test]
    fn footprint_variant_matches_and_scopes() {
        let (mut g, _) = setup();
        // Unreachable island: can never enter the footprint.
        let i0 = g.add_node();
        let i1 = g.add_node();
        let island = g.add_edge(i0, i1);
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        let mut fp = pcn_graph::Footprint::new();
        for (strategy, accel) in PathSelect::ALL
            .into_iter()
            .flat_map(|s| [(s, false), (s, true)])
        {
            let mut ws = pcn_graph::SearchWorkspace::new();
            let plain = select_paths_in(
                &g,
                &mut ws,
                &funds,
                n(0),
                n(3),
                4,
                strategy,
                BalanceView::Live,
                Amount::from_millitokens(1),
                accel,
            );
            let mut ws2 = pcn_graph::SearchWorkspace::new();
            let tracked = select_paths_footprint(
                &g,
                &mut ws2,
                &funds,
                n(0),
                n(3),
                4,
                strategy,
                BalanceView::Live,
                Amount::from_millitokens(1),
                accel,
                &mut fp,
            );
            assert_eq!(plain, tracked, "{strategy:?}/accel={accel}");
            assert!(!fp.is_empty(), "{strategy:?} consulted channels");
            // Every channel on a returned path was consulted.
            for p in &tracked {
                for ch in p.channels() {
                    assert!(fp.contains(*ch), "{strategy:?} path channel {ch}");
                }
            }
            assert!(!fp.contains(island), "{strategy:?} island unreachable");
        }
    }

    #[test]
    fn capacity_view_ignores_drained_balances() {
        let (g, mut funds) = setup();
        // Drain the fat route's live balances in the forward direction.
        let fat0 = pcn_types::ChannelId::new(2);
        funds.lock(fat0, n(0), Amount::from_tokens(50)).unwrap();
        funds.settle(fat0, n(0), Amount::from_tokens(50)).unwrap();
        let live = select_paths(
            &g,
            &funds,
            n(0),
            n(3),
            5,
            PathSelect::Edw,
            BalanceView::Live,
            Amount::from_tokens(1),
            false,
        );
        // Live view: fat route unusable forward, only thin remains.
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].nodes()[1], n(1));
        // Capacity view still "sees" the fat route (stale knowledge).
        let stale = select_paths(
            &g,
            &funds,
            n(0),
            n(3),
            5,
            PathSelect::Edw,
            BalanceView::CapacityOnly,
            Amount::from_tokens(1),
            false,
        );
        assert_eq!(stale.len(), 2);
        assert_eq!(stale[0].nodes()[1], n(2));
    }

    /// Capacity-view EDW walks the funds' capacity order; the footprint
    /// scope still runs the heap search. On a world whose channels were
    /// opened mid-run (`add_channel` beside `add_edge`, tied totals,
    /// parallel channels) and closed, both return the same paths for
    /// every ordered pair, with a `min_width` that cuts some channels.
    #[test]
    fn capacity_edw_matches_the_heap_search_after_opens_and_closes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..20 {
            let nn = rng.random_range(4..12usize);
            let mut g = Graph::new(nn);
            let pick = |rng: &mut StdRng| {
                let a = rng.random_range(0..nn);
                (
                    NodeId::from_index(a),
                    NodeId::from_index((a + rng.random_range(1..nn)) % nn),
                )
            };
            for _ in 0..nn {
                let (a, b) = pick(&mut rng);
                g.add_edge(a, b);
            }
            let mut funds =
                NetworkFunds::from_graph(&g, |_, _| Amount::from_tokens(rng.random_range(1..4)));
            for _ in 0..2 * nn {
                let (a, b) = pick(&mut rng);
                g.add_edge(a, b);
                let per_side = Amount::from_tokens(rng.random_range(1..4));
                funds.add_channel(a, b, per_side, per_side);
                if rng.random_bool(0.3) {
                    let victim = rng.random_range(0..g.edge_count());
                    let _ = g.close_channel(pcn_types::ChannelId::from_index(victim));
                }
            }
            let min_width = Amount::from_tokens(rng.random_range(0..4));
            let mut ws = SearchWorkspace::new();
            let mut fp = Footprint::new();
            for (a, b) in (0..nn).flat_map(|a| (0..nn).map(move |b| (a, b))) {
                let (src, dst) = (NodeId::from_index(a), NodeId::from_index(b));
                let (edw, view) = (PathSelect::Edw, BalanceView::CapacityOnly);
                let walked = select_paths_in(
                    &g, &mut ws, &funds, src, dst, 4, edw, view, min_width, false,
                );
                let heap = select_paths_footprint(
                    &g, &mut ws, &funds, src, dst, 4, edw, view, min_width, false, &mut fp,
                );
                assert_eq!(walked, heap, "round {round} {src}->{dst}");
            }
        }
    }

    /// The Heuristic early exit must not change the selection: once k
    /// accepted pool paths reach the widest-path bound, generation stops
    /// — and the picked top-k is bit-identical to ranking the full 3·k
    /// pool the old code built. The wide routes are also the shortest
    /// here, so the exit fires before the narrow 3-hop candidates are
    /// generated, which the settled-node counter makes observable.
    #[test]
    fn heuristic_early_exit_preserves_selection() {
        let mut g = Graph::new(10);
        // Two wide 2-hop routes …
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(9));
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(9));
        // … and three narrow 3-hop routes.
        for (a, b) in [(3, 4), (5, 6), (7, 8)] {
            g.add_edge(n(0), n(a));
            g.add_edge(n(a), n(b));
            g.add_edge(n(b), n(9));
        }
        let funds = NetworkFunds::from_graph(&g, |id, _| {
            Amount::from_tokens(if id.index() < 4 { 100 } else { 10 })
        });
        let k = 2;
        // The old behaviour, spelled out: full 3·k pool, stable
        // descending bottleneck sort, take k.
        let mut ws = SearchWorkspace::new();
        let full_pool = pcn_graph::k_shortest_paths_in(&g, &mut ws, n(0), n(9), 3 * k, |e| {
            (funds.balance(e.id, e.from) > Amount::ZERO).then_some(1.0)
        });
        assert_eq!(full_pool.len(), 5, "all routes are in the full pool");
        let mut scored: Vec<(f64, Path)> = full_pool
            .into_iter()
            .map(|p| {
                let b = p
                    .hops_iter()
                    .map(|(from, ch, _)| funds.balance(ch, from).to_tokens_f64())
                    .fold(f64::INFINITY, f64::min);
                (b, p)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let baseline: Vec<Path> = scored.into_iter().take(k).map(|(_, p)| p).collect();
        for accel in [false, true] {
            let mut ws = SearchWorkspace::new();
            let before = ws.nodes_settled();
            let picked = select_paths_in(
                &g,
                &mut ws,
                &funds,
                n(0),
                n(9),
                k,
                PathSelect::Heuristic,
                BalanceView::Live,
                Amount::from_millitokens(1),
                accel,
            );
            let settled = ws.nodes_settled() - before;
            assert_eq!(picked, baseline, "accel={accel}");
            // Full Yen over this graph costs well over 60 settles; the
            // early exit stops after the two wide routes are accepted.
            assert!(settled < 60, "accel={accel}: settled {settled}");
        }
    }

    /// The scoped-invalidation contract itself: funds movement confined
    /// to channels **outside** the recorded footprint must leave the
    /// selection bit-identical — including funding previously-unusable
    /// channels, the direction a search that stops early could hide. If
    /// a goal-directed search left an arc of an expanded node unpriced
    /// (or the Heuristic exited early under a footprint), that unfunded
    /// channel would be missing from the footprint, and funding it could
    /// change a fresh recomputation while the stale scoped entry
    /// survives.
    #[test]
    fn footprint_survives_funds_movement_outside_it() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..40u64 {
            let nn = rng.random_range(6..18usize);
            let mut g = Graph::new(nn);
            let mut m = 0usize;
            for a in 0..nn {
                for b in (a + 1)..nn {
                    if rng.random_bool(0.3) {
                        g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
                        m += 1;
                    }
                }
            }
            if m == 0 {
                continue;
            }
            // A quarter of the channels start unfunded: funding one of
            // them later is exactly the move that can reveal a path the
            // original computation never priced.
            let base: Vec<u64> = (0..m)
                .map(|_| {
                    if rng.random_bool(0.25) {
                        0
                    } else {
                        rng.random_range(1..50)
                    }
                })
                .collect();
            let funds = NetworkFunds::from_graph(&g, |id, _| Amount::from_tokens(base[id.index()]));
            let (src, dst) = (n(0), NodeId::from_index(nn - 1));
            for strategy in PathSelect::ALL {
                for accel in [false, true] {
                    let mut ws = SearchWorkspace::new();
                    let mut fp = pcn_graph::Footprint::new();
                    let tracked = select_paths_footprint(
                        &g,
                        &mut ws,
                        &funds,
                        src,
                        dst,
                        3,
                        strategy,
                        BalanceView::Live,
                        Amount::from_millitokens(1),
                        accel,
                        &mut fp,
                    );
                    // Move funds on every channel outside the footprint
                    // (fund the unfunded, widen the rest); footprint
                    // channels keep their exact state.
                    let moved = NetworkFunds::from_graph(&g, |id, _| {
                        let boost = if fp.contains(id) { 0 } else { 75 };
                        Amount::from_tokens(base[id.index()] + boost)
                    });
                    let mut ws2 = SearchWorkspace::new();
                    let fresh = select_paths_in(
                        &g,
                        &mut ws2,
                        &moved,
                        src,
                        dst,
                        3,
                        strategy,
                        BalanceView::Live,
                        Amount::from_millitokens(1),
                        false,
                    );
                    assert_eq!(
                        tracked, fresh,
                        "round {round} {strategy:?} accel={accel}: a funds move \
                         outside the footprint changed the selection"
                    );
                }
            }
        }
    }

    /// The hand-built world of `pcn-graph`'s
    /// `funds_flip_on_an_unpriced_channel_keeps_the_path`: the
    /// goal-directed search meets the target's side while expanding node
    /// 2, and must still expand node 1, whose unfunded channel 1-3 would
    /// open a tie that wins on ids. Funding or draining any channel
    /// outside the footprint must leave the selection where a fresh
    /// plain computation finds it.
    #[test]
    fn goal_directed_footprint_survives_a_flip_outside_it() {
        let mut g = Graph::new(8);
        for (a, b) in [
            (0, 2),
            (0, 1),
            (2, 4),
            (4, 5),
            (1, 3),
            (3, 5),
            (3, 6),
            (6, 7),
        ] {
            g.add_edge(n(a), n(b));
        }
        let base = |c: usize| if c == 4 || c == 7 { 0 } else { 10 };
        let funds_with = |flip: Option<usize>| {
            NetworkFunds::from_graph(&g, |id, _| {
                let t = base(id.index());
                Amount::from_tokens(if flip == Some(id.index()) { 10 - t } else { t })
            })
        };
        let select = |funds: &NetworkFunds, strategy, accel, fp: Option<&mut Footprint>| {
            let mut ws = SearchWorkspace::new();
            let args = (
                n(0),
                n(5),
                1,
                strategy,
                BalanceView::Live,
                Amount::from_tokens(1),
            );
            match fp {
                Some(fp) => select_paths_footprint(
                    &g, &mut ws, funds, args.0, args.1, args.2, args.3, args.4, args.5, accel, fp,
                ),
                None => select_paths_in(
                    &g, &mut ws, funds, args.0, args.1, args.2, args.3, args.4, args.5, accel,
                ),
            }
        };
        for strategy in [PathSelect::Ksp, PathSelect::Eds, PathSelect::Heuristic] {
            let mut fp = Footprint::new();
            let tracked = select(&funds_with(None), strategy, true, Some(&mut fp));
            assert_eq!(
                tracked[0].nodes(),
                &[n(0), n(2), n(4), n(5)],
                "{strategy:?}"
            );
            assert!(fp.contains(pcn_types::ChannelId::new(4)), "{strategy:?}");
            let outside: Vec<usize> = (0..g.edge_count())
                .filter(|&c| !fp.contains(pcn_types::ChannelId::from_index(c)))
                .collect();
            assert!(!outside.is_empty(), "{strategy:?} priced every channel");
            for c in outside {
                let fresh = select(&funds_with(Some(c)), strategy, false, None);
                assert_eq!(tracked, fresh, "{strategy:?}: flipping channel {c}");
            }
        }
    }

    /// Under a footprint the Heuristic generates the full 3·k pool: the
    /// skipped candidates' channels must be recorded, because a funds
    /// increase on one of them can lift its bottleneck above the old
    /// widest bound and change the selection. The selection itself stays
    /// bit-identical to the early-exiting plain computation.
    #[test]
    fn heuristic_footprint_covers_skipped_candidates() {
        // Same topology as `heuristic_early_exit_preserves_selection`:
        // two wide 2-hop routes (channels 0..4) and three narrow 3-hop
        // routes (channels 4..13) the early exit never generates.
        let mut g = Graph::new(10);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(9));
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(9));
        for (a, b) in [(3, 4), (5, 6), (7, 8)] {
            g.add_edge(n(0), n(a));
            g.add_edge(n(a), n(b));
            g.add_edge(n(b), n(9));
        }
        let funds = NetworkFunds::from_graph(&g, |id, _| {
            Amount::from_tokens(if id.index() < 4 { 100 } else { 10 })
        });
        let k = 2;
        for accel in [false, true] {
            let mut ws = SearchWorkspace::new();
            let plain = select_paths_in(
                &g,
                &mut ws,
                &funds,
                n(0),
                n(9),
                k,
                PathSelect::Heuristic,
                BalanceView::Live,
                Amount::from_millitokens(1),
                accel,
            );
            let mut ws2 = SearchWorkspace::new();
            let mut fp = pcn_graph::Footprint::new();
            let tracked = select_paths_footprint(
                &g,
                &mut ws2,
                &funds,
                n(0),
                n(9),
                k,
                PathSelect::Heuristic,
                BalanceView::Live,
                Amount::from_millitokens(1),
                accel,
                &mut fp,
            );
            assert_eq!(plain, tracked, "accel={accel}");
            for ch in 4..13u32 {
                assert!(
                    fp.contains(pcn_types::ChannelId::new(ch)),
                    "accel={accel}: narrow-route channel {ch} missing from footprint"
                );
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PathSelect::Ksp.name(), "KSP");
        assert_eq!(PathSelect::Heuristic.name(), "Heuristic");
        assert_eq!(PathSelect::Edw.name(), "EDW");
        assert_eq!(PathSelect::Eds.name(), "EDS");
    }
}
