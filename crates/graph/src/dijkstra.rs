//! Dijkstra shortest paths with closure-supplied directed edge costs.
//!
//! The point-to-point search exists in two flavours: the classic
//! allocating form ([`crate::Graph::shortest_path`]) and a workspace form
//! (`*_in`) that reuses the buffers of a [`crate::SearchWorkspace`] so
//! repeated queries run allocation-free.
//! The free functions are generic over [`Topology`], so the same
//! monomorphized loop runs against the CSR [`Graph`] and the `Vec<Vec>`
//! [`crate::ReferenceGraph`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pcn_types::{ChannelId, NodeId};

use crate::cost::Cost;
use crate::{EdgeRef, Path, SearchWorkspace, Topology};

/// A single-source shortest-path tree: distances and a parent forest.
///
/// Produced by [`crate::shortest_path_two_trees_in`].
#[derive(Clone, Debug, Default)]
pub struct ShortestPathTree {
    pub(crate) source: NodeId,
    pub(crate) dist: Vec<f64>,
    pub(crate) parent: Vec<Option<(NodeId, ChannelId)>>,
}

impl ShortestPathTree {
    /// The source this tree was grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `node`; `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.dist
            .get(node.index())
            .copied()
            .filter(|d| d.is_finite())
    }

    /// Reconstructs the path from the source to `node`, if reachable.
    pub fn path_to(&self, node: NodeId) -> Option<Path> {
        self.distance(node)?;
        let mut rev_nodes = vec![node];
        let mut rev_chans = Vec::new();
        let mut cur = node;
        while let Some((prev, ch)) = self.parent.get(cur.index()).copied().flatten() {
            rev_nodes.push(prev);
            rev_chans.push(ch);
            cur = prev;
        }
        if cur != self.source {
            return None;
        }
        rev_nodes.reverse();
        rev_chans.reverse();
        Some(Path::new(rev_nodes, rev_chans))
    }
}

/// Reusable Dijkstra state: distance labels, parent forest, heap, plus a
/// recycled [`ShortestPathTree`] for the goal-directed tree queries.
#[derive(Debug, Default)]
pub(crate) struct DijkstraScratch {
    pub(crate) dist: Vec<f64>,
    pub(crate) parent: Vec<Option<(NodeId, ChannelId)>>,
    pub(crate) heap: BinaryHeap<Reverse<(Cost, NodeId)>>,
    pub(crate) tree: ShortestPathTree,
    /// Monotone count of nodes settled (non-stale heap pops) by every
    /// search run on this scratch — the planner-observability feed behind
    /// `SearchWorkspace::nodes_settled`.
    pub(crate) settled: u64,
}

pub(crate) fn usable(cost: Option<f64>) -> Option<f64> {
    match cost {
        Some(c) if c.is_finite() && c >= 0.0 => Some(c),
        _ => None,
    }
}

/// Re-initializes `dist`/`parent` for `n` nodes without reallocating once
/// grown, and empties the heap (keeping its capacity).
pub(crate) fn reset(
    dist: &mut Vec<f64>,
    parent: &mut Vec<Option<(NodeId, ChannelId)>>,
    heap: &mut BinaryHeap<Reverse<(Cost, NodeId)>>,
    n: usize,
) {
    dist.clear();
    dist.resize(n, f64::INFINITY);
    parent.clear();
    parent.resize(n, None);
    heap.clear();
}

/// The core relaxation loop. `stop_at` enables the early exit of the
/// point-to-point query; `None` settles every reachable node. `settled`
/// is bumped once per settled node (an entry with a strictly smaller
/// label is never re-pushed, so non-stale pops are exactly settles).
#[allow(clippy::too_many_arguments)]
pub(crate) fn relax<G, F>(
    g: &G,
    from: NodeId,
    stop_at: Option<NodeId>,
    mut cost: F,
    dist: &mut [f64],
    parent: &mut [Option<(NodeId, ChannelId)>],
    heap: &mut BinaryHeap<Reverse<(Cost, NodeId)>>,
    settled: &mut u64,
) where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    if from.index() >= dist.len() {
        return;
    }
    dist[from.index()] = 0.0;
    heap.push(Reverse((Cost(0.0), from)));
    while let Some(Reverse((Cost(d), u))) = heap.pop() {
        if d > dist[u.index()] {
            continue; // stale entry
        }
        *settled += 1;
        if stop_at == Some(u) {
            break;
        }
        for e in g.out_edges(u) {
            let Some(w) = usable(cost(e)) else { continue };
            let nd = d + w;
            if nd < dist[e.to.index()] {
                dist[e.to.index()] = nd;
                parent[e.to.index()] = Some((u, e.id));
                heap.push(Reverse((Cost(nd), e.to)));
            }
        }
    }
    heap.clear();
}

pub(crate) fn reconstruct(
    from: NodeId,
    to: NodeId,
    parent: &[Option<(NodeId, ChannelId)>],
) -> Option<Path> {
    let mut rev_nodes = vec![to];
    let mut rev_chans = Vec::new();
    let mut cur = to;
    while let Some((prev, ch)) = parent[cur.index()] {
        rev_nodes.push(prev);
        rev_chans.push(ch);
        cur = prev;
    }
    if cur != from {
        return None;
    }
    rev_nodes.reverse();
    rev_chans.reverse();
    Some(Path::new(rev_nodes, rev_chans))
}

/// Point-to-point Dijkstra on any [`Topology`]; the free-function form of
/// [`crate::Graph::shortest_path`].
pub fn shortest_path<G, F>(g: &G, from: NodeId, to: NodeId, cost: F) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    let mut scratch = DijkstraScratch::default();
    shortest_path_scratch(g, &mut scratch, from, to, cost)
}

/// [`shortest_path`] on reusable workspace buffers; the free-function
/// form of [`crate::Graph::shortest_path_in`].
pub fn shortest_path_in<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    cost: F,
) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    shortest_path_scratch(g, &mut ws.dijkstra, from, to, cost)
}

fn shortest_path_scratch<G, F>(
    g: &G,
    s: &mut DijkstraScratch,
    from: NodeId,
    to: NodeId,
    cost: F,
) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    // Early-exit Dijkstra: stop as soon as `to` is settled.
    let n = g.node_count();
    if from.index() >= n || to.index() >= n {
        return None;
    }
    if from == to {
        return Some((0.0, Path::trivial(from)));
    }
    reset(&mut s.dist, &mut s.parent, &mut s.heap, n);
    relax(
        g,
        from,
        Some(to),
        cost,
        &mut s.dist,
        &mut s.parent,
        &mut s.heap,
        &mut s.settled,
    );
    if !s.dist[to.index()].is_finite() {
        return None;
    }
    let path = reconstruct(from, to, &s.parent).expect("finite distance implies a parent chain");
    Some((s.dist[to.index()], path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Weighted diamond: 0-1 (1), 1-3 (1), 0-2 (1), 2-3 (5).
    fn weighted_diamond() -> (Graph, Vec<f64>) {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(3));
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(3));
        (g, vec![1.0, 1.0, 1.0, 5.0])
    }

    #[test]
    fn picks_cheaper_route() {
        let (g, w) = weighted_diamond();
        let (cost, path) = g
            .shortest_path(n(0), n(3), |e| Some(w[e.id.index()]))
            .unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(path.nodes(), &[n(0), n(1), n(3)]);
        path.validate(&g).unwrap();
    }

    #[test]
    fn respects_unusable_edges() {
        let (g, w) = weighted_diamond();
        // Block channel 0 (0-1); forced over the expensive branch.
        let (cost, path) = g
            .shortest_path(n(0), n(3), |e| {
                if e.id.index() == 0 {
                    None
                } else {
                    Some(w[e.id.index()])
                }
            })
            .unwrap();
        assert_eq!(cost, 6.0);
        assert_eq!(path.nodes(), &[n(0), n(2), n(3)]);
    }

    #[test]
    fn directional_costs() {
        // Cost depends on direction: 0→1 is cheap, 1→0 is unusable.
        let mut g = Graph::new(2);
        g.add_edge(n(0), n(1));
        let fwd = g.shortest_path(n(0), n(1), |e| (e.from == n(0)).then_some(1.0));
        let bwd = g.shortest_path(n(1), n(0), |e| (e.from == n(0)).then_some(1.0));
        assert!(fwd.is_some());
        assert!(bwd.is_none());
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        assert!(g.shortest_path(n(0), n(2), |_| Some(1.0)).is_none());
        assert!(g.shortest_path(n(0), n(9), |_| Some(1.0)).is_none());
    }

    #[test]
    fn self_path_is_trivial() {
        let g = Graph::new(1);
        let (c, p) = g.shortest_path(n(0), n(0), |_| Some(1.0)).unwrap();
        assert_eq!(c, 0.0);
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn negative_and_nan_costs_are_unusable() {
        let mut g = Graph::new(2);
        g.add_edge(n(0), n(1));
        assert!(g.shortest_path(n(0), n(1), |_| Some(-1.0)).is_none());
        assert!(g.shortest_path(n(0), n(1), |_| Some(f64::NAN)).is_none());
        assert!(g
            .shortest_path(n(0), n(1), |_| Some(f64::INFINITY))
            .is_none());
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let (g, w) = weighted_diamond();
        let mut ws = SearchWorkspace::new();
        for _ in 0..5 {
            let fresh = g.shortest_path(n(0), n(3), |e| Some(w[e.id.index()]));
            let reused = g.shortest_path_in(&mut ws, n(0), n(3), |e| Some(w[e.id.index()]));
            assert_eq!(fresh, reused);
            // The blocked query must not see stale state from the run above.
            let blocked = g.shortest_path_in(&mut ws, n(0), n(3), |e| {
                (e.id.index() != 0).then(|| w[e.id.index()])
            });
            assert_eq!(blocked.unwrap().0, 6.0);
        }
    }

    #[test]
    fn workspace_survives_graph_size_changes() {
        let mut ws = SearchWorkspace::new();
        let (big, w) = weighted_diamond();
        assert!(big
            .shortest_path_in(&mut ws, n(0), n(3), |e| Some(w[e.id.index()]))
            .is_some());
        // A smaller graph afterwards: buffers shrink logically, no stale
        // out-of-range reads.
        let mut small = Graph::new(2);
        small.add_edge(n(0), n(1));
        let got = small.shortest_path_in(&mut ws, n(0), n(1), |_| Some(2.0));
        assert_eq!(got.unwrap().0, 2.0);
        assert!(small
            .shortest_path_in(&mut ws, n(0), n(9), |_| Some(1.0))
            .is_none());
    }

    #[test]
    fn matches_bruteforce_on_random_graphs() {
        // Exhaustive DFS comparison on small random weighted graphs.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut ws = SearchWorkspace::new();
        for _ in 0..30 {
            let nn = rng.random_range(2..7usize);
            let mut g = Graph::new(nn);
            let mut weights = Vec::new();
            for a in 0..nn {
                for b in (a + 1)..nn {
                    if rng.random_bool(0.6) {
                        g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
                        weights.push(rng.random_range(1..10) as f64);
                    }
                }
            }
            let from = NodeId::new(0);
            let to = NodeId::from_index(nn - 1);
            let dij = g
                .shortest_path_in(&mut ws, from, to, |e| Some(weights[e.id.index()]))
                .map(|(c, _)| c);
            let brute = brute_force(&g, &weights, from, to);
            match (dij, brute) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "dijkstra {a} vs brute {b}"),
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
    }

    fn brute_force(g: &Graph, w: &[f64], from: NodeId, to: NodeId) -> Option<f64> {
        fn dfs(
            g: &Graph,
            w: &[f64],
            cur: NodeId,
            to: NodeId,
            visited: &mut Vec<bool>,
            acc: f64,
            best: &mut Option<f64>,
        ) {
            if cur == to {
                *best = Some(best.map_or(acc, |b: f64| b.min(acc)));
                return;
            }
            for e in g.out_edges(cur) {
                if !visited[e.to.index()] {
                    visited[e.to.index()] = true;
                    dfs(g, w, e.to, to, visited, acc + w[e.id.index()], best);
                    visited[e.to.index()] = false;
                }
            }
        }
        let mut visited = vec![false; g.node_count()];
        visited[from.index()] = true;
        let mut best = None;
        dfs(g, w, from, to, &mut visited, 0.0, &mut best);
        best
    }
}
