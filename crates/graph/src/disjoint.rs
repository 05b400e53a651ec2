//! Edge-disjoint path sets (EDS and EDW in Table II).
//!
//! Both are computed greedily: find the best path under the current cost /
//! width function, remove its channels, repeat up to `k` times. Greedy
//! edge-disjoint shortest paths is the standard construction used by PCN
//! routers (channels are removed in *both* directions, since a channel's
//! funds are shared infrastructure).
//!
//! The removed channels are marks in the workspace's dense ban mask (see
//! [`SearchWorkspace`]), which every round's search checks on each edge
//! it scans.

use pcn_types::NodeId;

use crate::{widest_path_in, EdgeRef, Path, SearchWorkspace, Topology};

/// Up to `k` edge-disjoint shortest paths, found greedily (EDS).
///
/// Paths are returned in discovery order (shortest first). Fewer than `k`
/// paths are returned when the graph is exhausted.
///
/// # Examples
///
/// ```
/// use pcn_graph::{edge_disjoint_shortest_paths, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(4);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(3));
/// g.add_edge(NodeId::new(0), NodeId::new(2));
/// g.add_edge(NodeId::new(2), NodeId::new(3));
/// let paths = edge_disjoint_shortest_paths(&g, NodeId::new(0), NodeId::new(3), 5, |_| Some(1.0));
/// assert_eq!(paths.len(), 2);
/// ```
pub fn edge_disjoint_shortest_paths<G, F>(
    g: &G,
    from: NodeId,
    to: NodeId,
    k: usize,
    cost: F,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    edge_disjoint_shortest_paths_in(g, &mut SearchWorkspace::new(), from, to, k, cost)
}

/// [`edge_disjoint_shortest_paths`] on a reusable [`SearchWorkspace`]
/// (allocation-free inner Dijkstras, bit-identical results).
pub fn edge_disjoint_shortest_paths_in<G, F>(
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
    eds_core(g, ws, from, to, k, cost, |g, ws, s, t, c| {
        crate::dijkstra::shortest_path_in(g, ws, s, t, c)
    })
}

/// The greedy EDS loop, parameterized over the single-pair search so the
/// goal-directed variant (`crate::edge_disjoint_shortest_paths_accel_in`)
/// reuses the exact removal order.
pub(crate) fn eds_core<G, F, S>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    k: usize,
    mut cost: F,
    mut search: S,
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
{
    let mut used = std::mem::take(&mut ws.bans);
    used.clear();
    let mut paths = Vec::new();
    for _ in 0..k {
        let found = search(g, ws, from, to, &mut |e| {
            if used.channel_banned(e.id) {
                None
            } else {
                cost(e)
            }
        });
        let Some((_, path)) = found else { break };
        for &c in path.channels() {
            used.ban_channel(c);
        }
        paths.push(path);
    }
    ws.bans = used;
    paths
}

/// Up to `k` edge-disjoint widest paths, found greedily (EDW).
///
/// The first path maximizes the bottleneck width; its channels are removed
/// and the process repeats. This is the path type the paper selects for
/// Splicer (widest paths best exploit heavy-tailed channel sizes).
pub fn edge_disjoint_widest_paths<G, F>(
    g: &G,
    from: NodeId,
    to: NodeId,
    k: usize,
    width: F,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    edge_disjoint_widest_paths_in(g, &mut SearchWorkspace::new(), from, to, k, width)
}

/// [`edge_disjoint_widest_paths`] on a reusable [`SearchWorkspace`]
/// (allocation-free inner widest-path runs, bit-identical results).
pub fn edge_disjoint_widest_paths_in<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    k: usize,
    mut width: F,
) -> Vec<Path>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    let mut used = std::mem::take(&mut ws.bans);
    used.clear();
    let mut paths = Vec::new();
    for _ in 0..k {
        let found = widest_path_in(g, ws, from, to, |e| {
            if used.channel_banned(e.id) {
                None
            } else {
                width(e)
            }
        });
        let Some((_, path)) = found else { break };
        for &c in path.channels() {
            used.ban_channel(c);
        }
        paths.push(path);
    }
    ws.bans = used;
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0→3 via three internally disjoint routes plus one shared bridge.
    fn braided() -> Graph {
        let mut g = Graph::new(8);
        // route A: 0-1-3
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(3));
        // route B: 0-2-3
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(3));
        // route C: 0-4-5-3
        g.add_edge(n(0), n(4));
        g.add_edge(n(4), n(5));
        g.add_edge(n(5), n(3));
        g
    }

    #[test]
    fn finds_all_disjoint_routes() {
        let g = braided();
        let paths = edge_disjoint_shortest_paths(&g, n(0), n(3), 5, |_| Some(1.0));
        assert_eq!(paths.len(), 3);
        // Shortest (2-hop) routes come first.
        assert_eq!(paths[0].hops(), 2);
        assert_eq!(paths[1].hops(), 2);
        assert_eq!(paths[2].hops(), 3);
        assert_disjoint(&paths);
    }

    #[test]
    fn k_limits_count() {
        let g = braided();
        let paths = edge_disjoint_shortest_paths(&g, n(0), n(3), 2, |_| Some(1.0));
        assert_eq!(paths.len(), 2);
        assert!(edge_disjoint_shortest_paths(&g, n(0), n(3), 0, |_| Some(1.0)).is_empty());
    }

    #[test]
    fn widest_first_ordering() {
        let mut g = Graph::new(4);
        let thin_a = g.add_edge(n(0), n(1));
        let thin_b = g.add_edge(n(1), n(3));
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(3));
        let width = move |e: EdgeRef| {
            Some(if e.id == thin_a || e.id == thin_b {
                2.0
            } else {
                9.0
            })
        };
        let paths = edge_disjoint_widest_paths(&g, n(0), n(3), 5, width);
        assert_eq!(paths.len(), 2);
        // Wide route (via node 2) first.
        assert_eq!(paths[0].nodes()[1], n(2));
        assert_eq!(paths[1].nodes()[1], n(1));
        assert_disjoint(&paths);
    }

    #[test]
    fn disjointness_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let nn = rng.random_range(4..12usize);
            let mut g = Graph::new(nn);
            let mut widths = Vec::new();
            for a in 0..nn {
                for b in (a + 1)..nn {
                    if rng.random_bool(0.4) {
                        g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
                        widths.push(rng.random_range(1..50) as f64);
                    }
                }
            }
            let from = n(0);
            let to = NodeId::from_index(nn - 1);
            let eds = edge_disjoint_shortest_paths(&g, from, to, 4, |_| Some(1.0));
            let edw = edge_disjoint_widest_paths(&g, from, to, 4, |e| Some(widths[e.id.index()]));
            assert_disjoint(&eds);
            assert_disjoint(&edw);
            for p in eds.iter().chain(edw.iter()) {
                p.validate(&g).unwrap();
                assert_eq!(p.source(), from);
                assert_eq!(p.target(), to);
            }
        }
    }

    #[test]
    fn no_path_returns_empty() {
        let g = Graph::new(3);
        assert!(edge_disjoint_shortest_paths(&g, n(0), n(2), 3, |_| Some(1.0)).is_empty());
        assert!(edge_disjoint_widest_paths(&g, n(0), n(2), 3, |_| Some(1.0)).is_empty());
    }

    fn assert_disjoint(paths: &[Path]) {
        let mut seen = std::collections::HashSet::new();
        for p in paths {
            for c in p.channels() {
                assert!(seen.insert(*c), "channel {c} reused across paths");
            }
        }
    }
}
