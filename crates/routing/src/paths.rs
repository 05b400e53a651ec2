//! Path selection strategies (Table II: KSP, Heuristic, EDW, EDS).

use pcn_graph::{
    edge_disjoint_shortest_paths_accel_in, edge_disjoint_shortest_paths_in,
    edge_disjoint_widest_paths_in, edge_disjoint_widest_paths_static_in, k_shortest_paths_accel_in,
    k_shortest_paths_in, k_shortest_paths_until_in, widest_path_in, EdgeRef, Graph, Path,
    SearchWorkspace,
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
/// running the heap search ([`pcn_graph::edge_disjoint_widest_paths_in`]):
/// channel totals never change, so their order is known before the
/// search starts. The paths are the heap search's.
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
    let min_w = min_width.to_tokens_f64();
    let width = |e: EdgeRef| funds_width(funds, view, e);
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
        PathSelect::Edw => match view {
            BalanceView::CapacityOnly => edge_disjoint_widest_paths_static_in(
                g,
                ws,
                funds.capacity_order(),
                src,
                dst,
                k,
                min_w,
            ),
            BalanceView::Live => edge_disjoint_widest_paths_in(g, ws, src, dst, k, |e| {
                width(e).filter(|w| *w >= min_w)
            }),
        },
        PathSelect::Heuristic => {
            // Rank a KSP candidate pool by bottleneck funds, keep the top
            // k — but stop pool generation early. One widest-path query
            // yields the best bottleneck any pool path can achieve; once
            // k accepted paths hit that bound, the stable descending sort
            // below can never rank a later (by construction no wider)
            // candidate into the top k, so the remaining — and most
            // expensive — Yen rounds cannot change the selection.
            let bottleneck = |p: &Path| {
                p.hops_iter()
                    .map(|(from, ch, to)| width(EdgeRef { id: ch, from, to }).unwrap_or(0.0))
                    .fold(f64::INFINITY, f64::min)
            };
            let wmax = widest_path_in(g, ws, src, dst, width).map(|(w, _)| w);
            let mut at_max = 0usize;
            let until = |p: &Path| {
                let Some(wm) = wmax else { return false };
                if bottleneck(p) >= wm {
                    at_max += 1;
                }
                at_max >= k
            };
            let cost = |e: EdgeRef| width(e).map(|_| 1.0);
            let pool = if accel {
                k_shortest_paths_accel_in(g, ws, src, dst, 3 * k, cost, until)
            } else {
                k_shortest_paths_until_in(g, ws, src, dst, 3 * k, cost, until)
            };
            let mut scored: Vec<(f64, Path)> =
                pool.into_iter().map(|p| (bottleneck(&p), p)).collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            scored.into_iter().take(k).map(|(_, p)| p).collect()
        }
    }
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

    /// Capacity-view EDW walks the funds' capacity order instead of
    /// running the heap search. On a world whose channels were opened
    /// mid-run (`add_channel` beside `add_edge`, tied totals, parallel
    /// channels) and closed, the walk returns the heap search's paths
    /// under the capacity width for every ordered pair, with a
    /// `min_width` that cuts some channels.
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
            let min_w = min_width.to_tokens_f64();
            let mut ws = SearchWorkspace::new();
            for (a, b) in (0..nn).flat_map(|a| (0..nn).map(move |b| (a, b))) {
                let (src, dst) = (NodeId::from_index(a), NodeId::from_index(b));
                let (edw, view) = (PathSelect::Edw, BalanceView::CapacityOnly);
                let walked = select_paths_in(
                    &g, &mut ws, &funds, src, dst, 4, edw, view, min_width, false,
                );
                let heap = edge_disjoint_widest_paths_in(&g, &mut ws, src, dst, 4, |e| {
                    funds_width(&funds, view, e).filter(|w| *w >= min_w)
                });
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

    #[test]
    fn names_match_paper() {
        assert_eq!(PathSelect::Ksp.name(), "KSP");
        assert_eq!(PathSelect::Heuristic.name(), "Heuristic");
        assert_eq!(PathSelect::Edw.name(), "EDW");
        assert_eq!(PathSelect::Eds.name(), "EDS");
    }
}
