//! Yen's algorithm for loopless k-shortest paths (KSP in Table II).
//!
//! Each spur search's banned root edges and root nodes are marks in the
//! workspace's dense ban mask (see [`SearchWorkspace`]), checked on every
//! edge the search scans and cleared in O(1) between spurs.

use std::collections::HashSet;

use pcn_types::NodeId;

use crate::{EdgeRef, Path, SearchWorkspace, Topology};

/// Up to `k` loopless shortest paths from `from` to `to`, cheapest first.
///
/// Classic Yen construction: each candidate is a deviation from an already
/// accepted path, computed with the deviation's root edges removed and the
/// root's prefix nodes banned. Returns fewer than `k` paths when the graph
/// runs out of distinct loopless routes.
///
/// # Examples
///
/// ```
/// use pcn_graph::{k_shortest_paths, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(4);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(3));
/// g.add_edge(NodeId::new(0), NodeId::new(2));
/// g.add_edge(NodeId::new(2), NodeId::new(3));
/// let paths = k_shortest_paths(&g, NodeId::new(0), NodeId::new(3), 3, |_| Some(1.0));
/// assert_eq!(paths.len(), 2); // only two loopless routes exist
/// ```
pub fn k_shortest_paths<G, F>(g: &G, from: NodeId, to: NodeId, k: usize, cost: F) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    k_shortest_paths_in(g, &mut SearchWorkspace::new(), from, to, k, cost)
}

/// [`k_shortest_paths`] with the inner Dijkstra runs executed on a
/// reusable [`SearchWorkspace`]. Yen's algorithm is a loop of shortest-
/// path queries, so the workspace removes the dominant allocations of
/// repeated KSP calls; results are bit-identical to the allocating form.
pub fn k_shortest_paths_in<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    k: usize,
    cost: F,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    k_shortest_paths_until_in(g, ws, from, to, k, cost, |_| false)
}

/// [`k_shortest_paths_in`] with an early-stop hook: `until` sees each
/// accepted path in Yen order and returns `true` to stop generating.
///
/// The result is always a **prefix** of the full Yen sequence, so a
/// caller that can prove its selection is already decided (e.g. the
/// bottleneck-ranked top-k of `PathSelect::Heuristic` once `k` paths at
/// the maximum attainable width have been seen) skips the remaining —
/// and most expensive — candidate rounds without changing what it picks.
pub fn k_shortest_paths_until_in<G, F, U>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    k: usize,
    cost: F,
    until: U,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
    U: FnMut(&Path) -> bool,
{
    yen_core(
        g,
        ws,
        from,
        to,
        k,
        cost,
        |g, ws, s, t, c| crate::dijkstra::shortest_path_in(g, ws, s, t, c),
        until,
    )
}

/// The Yen loop, parameterized over the single-pair search so the
/// goal-directed variant (`crate::k_shortest_paths_accel_in`) reuses the
/// exact candidate-generation order. The `&mut dyn FnMut` cost keeps the
/// search generic without monomorphizing over every spur-ban closure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn yen_core<G, F, S, U>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    k: usize,
    mut cost: F,
    mut search: S,
    mut until: U,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
    S: FnMut(
        &G,
        &mut SearchWorkspace,
        NodeId,
        NodeId,
        &mut dyn FnMut(EdgeRef) -> Option<f64>,
    ) -> Option<(f64, Path)>,
    U: FnMut(&Path) -> bool,
{
    if k == 0 {
        return Vec::new();
    }
    let Some((first_cost, first)) = search(g, ws, from, to, &mut cost) else {
        return Vec::new();
    };
    let mut accepted: Vec<(f64, Path)> = vec![(first_cost, first)];
    // Candidate set; keyed by node sequence to avoid duplicates.
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    seen.insert(accepted[0].1.nodes().to_vec());
    if until(&accepted[0].1) {
        return accepted.into_iter().map(|(_, p)| p).collect();
    }

    let mut bans = std::mem::take(&mut ws.bans);
    while accepted.len() < k {
        let (_, last) = accepted.last().expect("accepted is non-empty").clone();
        // Deviate at every node of the last accepted path except the target.
        for i in 0..last.hops() {
            let spur_node = last.nodes()[i];
            let root = last.prefix(i);
            bans.clear();
            // Channels to ban: the edge each accepted/candidate path with the
            // same root takes out of the spur node.
            for (_, p) in accepted.iter().chain(candidates.iter()) {
                if p.hops() > i && p.nodes()[..=i] == root.nodes()[..] {
                    bans.ban_channel(p.channels()[i]);
                }
            }
            // Nodes on the root (except the spur node) are banned to keep
            // paths loopless.
            for &v in &root.nodes()[..i] {
                bans.ban_node(v);
            }
            let spur = search(g, ws, spur_node, to, &mut |e| {
                if bans.channel_banned(e.id) || bans.node_banned(e.to) || bans.node_banned(e.from) {
                    None
                } else {
                    cost(e)
                }
            });
            if let Some((_, spur_path)) = spur {
                let total = root.clone().join(spur_path);
                if seen.insert(total.nodes().to_vec()) {
                    let total_cost: f64 = total
                        .hops_iter()
                        .map(|(f, c, t)| {
                            cost(EdgeRef {
                                id: c,
                                from: f,
                                to: t,
                            })
                            .unwrap_or(f64::INFINITY)
                        })
                        .sum();
                    if total_cost.is_finite() {
                        candidates.push((total_cost, total));
                    }
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Pop the cheapest candidate.
        let best_idx = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
            .map(|(i, _)| i)
            .expect("non-empty");
        accepted.push(candidates.swap_remove(best_idx));
        if until(&accepted.last().expect("just pushed").1) {
            break;
        }
    }
    ws.bans = bans;
    accepted.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Classic Yen example graph (weighted, 6 nodes).
    fn yen_graph() -> (Graph, Vec<f64>) {
        // c=0:C-D(3) 1:C-E(2) 2:D-F(4) 3:E-D(1) 4:E-F(2) 5:E-G(3) 6:F-G(2) 7:F-H(1) 8:G-H(2)
        // Node map: C=0 D=1 E=2 F=3 G=4 H=5
        let mut g = Graph::new(6);
        let mut w = Vec::new();
        let add = |g: &mut Graph, a: u32, b: u32, weight: f64, w: &mut Vec<f64>| {
            g.add_edge(n(a), n(b));
            w.push(weight);
        };
        add(&mut g, 0, 1, 3.0, &mut w);
        add(&mut g, 0, 2, 2.0, &mut w);
        add(&mut g, 1, 3, 4.0, &mut w);
        add(&mut g, 2, 1, 1.0, &mut w);
        add(&mut g, 2, 3, 2.0, &mut w);
        add(&mut g, 2, 4, 3.0, &mut w);
        add(&mut g, 3, 4, 2.0, &mut w);
        add(&mut g, 3, 5, 1.0, &mut w);
        add(&mut g, 4, 5, 2.0, &mut w);
        (g, w)
    }

    fn path_cost(p: &Path, w: &[f64]) -> f64 {
        p.channels().iter().map(|c| w[c.index()]).sum()
    }

    #[test]
    fn yen_classic_example() {
        let (g, w) = yen_graph();
        let paths = k_shortest_paths(&g, n(0), n(5), 3, |e| Some(w[e.id.index()]));
        assert_eq!(paths.len(), 3);
        // In the undirected variant of the classic instance the best path is
        // C-E-F-H = 5, followed by two cost-7 paths (C-E-G-H and C-D-E-F-H).
        assert_eq!(paths[0].nodes(), &[n(0), n(2), n(3), n(5)]);
        assert_eq!(path_cost(&paths[0], &w), 5.0);
        assert_eq!(path_cost(&paths[1], &w), 7.0);
        assert_eq!(path_cost(&paths[2], &w), 7.0);
    }

    #[test]
    fn costs_nondecreasing_and_paths_distinct() {
        let (g, w) = yen_graph();
        let paths = k_shortest_paths(&g, n(0), n(5), 10, |e| Some(w[e.id.index()]));
        let costs: Vec<f64> = paths.iter().map(|p| path_cost(p, &w)).collect();
        for pair in costs.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-9);
        }
        let mut seqs: Vec<_> = paths.iter().map(|p| p.nodes().to_vec()).collect();
        seqs.sort();
        seqs.dedup();
        assert_eq!(seqs.len(), paths.len());
        for p in &paths {
            assert!(!p.has_node_cycle());
            p.validate(&g).unwrap();
            assert_eq!(p.source(), n(0));
            assert_eq!(p.target(), n(5));
        }
    }

    #[test]
    fn fewer_routes_than_k() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let paths = k_shortest_paths(&g, n(0), n(2), 5, |_| Some(1.0));
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn disconnected_returns_empty() {
        let g = Graph::new(3);
        assert!(k_shortest_paths(&g, n(0), n(2), 3, |_| Some(1.0)).is_empty());
    }

    #[test]
    fn k_zero_returns_empty() {
        let (g, w) = yen_graph();
        assert!(k_shortest_paths(&g, n(0), n(5), 0, |e| Some(w[e.id.index()])).is_empty());
    }

    #[test]
    fn workspace_variant_matches_allocating_form() {
        let (g, w) = yen_graph();
        let mut ws = SearchWorkspace::new();
        for _ in 0..3 {
            let fresh = k_shortest_paths(&g, n(0), n(5), 4, |e| Some(w[e.id.index()]));
            let reused = k_shortest_paths_in(&g, &mut ws, n(0), n(5), 4, |e| Some(w[e.id.index()]));
            assert_eq!(fresh.len(), reused.len());
            for (a, b) in fresh.iter().zip(&reused) {
                assert_eq!(a.nodes(), b.nodes());
                assert_eq!(a.channels(), b.channels());
            }
        }
    }

    #[test]
    fn until_stops_with_a_prefix_of_the_full_sequence() {
        let (g, w) = yen_graph();
        let full = k_shortest_paths(&g, n(0), n(5), 5, |e| Some(w[e.id.index()]));
        assert!(full.len() >= 3);
        let mut ws = SearchWorkspace::new();
        for stop_after in 1..=full.len() {
            let mut seen = 0;
            let cut = k_shortest_paths_until_in(
                &g,
                &mut ws,
                n(0),
                n(5),
                5,
                |e| Some(w[e.id.index()]),
                |_| {
                    seen += 1;
                    seen >= stop_after
                },
            );
            assert_eq!(cut.len(), stop_after);
            assert_eq!(&full[..stop_after], &cut[..]);
        }
    }

    #[test]
    fn parallel_edges_count_as_distinct_paths() {
        let mut g = Graph::new(2);
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(1));
        let paths = k_shortest_paths(&g, n(0), n(1), 5, |e| Some(1.0 + e.id.index() as f64));
        // Both parallel channels give the same *node* sequence; Yen treats
        // paths as node sequences, so only one survives. This documents the
        // behaviour relied upon by the routing layer.
        assert_eq!(paths.len(), 1);
    }
}
