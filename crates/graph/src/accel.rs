//! Goal-directed unit-cost search: a level-synchronous bidirectional
//! BFS for point-to-point queries, and BFS shortest-path trees.
//!
//! # Unit-cost contract
//!
//! The searches here price arcs through a cost closure like the plain
//! ones, and an arc is unusable exactly when plain Dijkstra would skip
//! it (`None`, negative, NaN or infinite). A usable arc must cost
//! **exactly 1**: path length is then hop count, a BFS level is a
//! Dijkstra distance class, and no heap or lower bound is needed. The
//! routing layer's KSP, EDS and Heuristic pools and the Landmark
//! scheme's landmark trees all price usable edges at 1.0; a debug
//! assertion checks the contract at every priced arc.
//!
//! # Same paths as plain Dijkstra
//!
//! Every entry point returns the path plain [`crate::shortest_path_in`]
//! returns, bit for bit: same cost, nodes and channels. The routing
//! layer can therefore switch goal-directed search per run without
//! changing a single plan. The identity rests on one rule, which every
//! edit here must keep.
//!
//! Plain Dijkstra pops `(dist, node id)` min-first and overwrites a
//! parent only on a strict improvement. Under unit costs it pops every
//! node of level `d − 1`, in ascending id, before any node of level `d`,
//! and the first of them with a usable arc into `v` fixes `v`'s parent
//! for good. So Dijkstra's parent of `v` is **the smallest-id node one
//! level closer to the source that has a usable arc into `v`**, joined
//! by **that node's first usable channel to `v` in its adjacency
//! order**. The searches apply the rule directly:
//!
//! * [`bfs_tree_in`] expands each level in ascending node id and fixes
//!   a node's parent at its first discovery, which is that node and that
//!   channel.
//! * [`shortest_path_accel_in`] labels levels, then rebuilds the path
//!   from the target: at each node it takes the smallest-id node one
//!   level closer with a usable arc into it, and that node's first
//!   usable channel to it. A node one level closer with a usable arc
//!   into a shortest-path node lies on a shortest path itself, so the
//!   rebuild needs forward levels on shortest-path nodes only.
//!
//! # The point-to-point search
//!
//! 1. A forward frontier grows from the source, pricing each arc
//!    `u → v`. A backward frontier grows from the target, pricing the
//!    reversed arc `v → u` that a path through `v` then `u` would use.
//!    Each round expands the smaller frontier by one full level (ties go
//!    forward) and prices **every** out-edge of every expanded node,
//!    also when the head is already labelled.
//! 2. The search stops after the first level at which some node carries
//!    both labels. With `r_f` and `r_b` the two radii after that level,
//!    the meeting node gives `D ≤ r_f + r_b`. One level earlier no node
//!    carried both labels, so `D > r_f + r_b − 1`. Hence `D = r_f + r_b`.
//! 3. The forward levels end at `r_f`. A restricted forward sweep
//!    carries them along shortest-path nodes only: it starts at the
//!    forward frontier's nodes of backward level `r_b` and steps to heads
//!    one backward level lower until it reaches the target. Those heads
//!    were expanded by the backward side, so the sweep prices no arc the
//!    backward side did not.
//! 4. The rebuild walks back from the target as above.
//!
//! Labels are per-node `(stamp, levels)` entries cleared in O(1) by a
//! generation stamp, the scheme of the workspace's ban mask.
//!
//! # Landmark table
//!
//! [`LandmarkTable`] picks a deterministic farthest-point landmark set,
//! keyed by [`Graph::topology_epoch`] and rebuilt lazily on mismatch. No
//! search reads it and the engine does not refresh it. It is kept only
//! because the end-to-end benchmark's planner replay calls
//! [`SearchWorkspace::prepare_landmarks`], and goes with the next change
//! to that benchmark.

use pcn_types::NodeId;

use crate::bfs::drain_marked;
use crate::dijkstra::{usable, ShortestPathTree};
use crate::{bfs_hops, EdgeRef, Graph, Path, SearchWorkspace, Topology};

/// Landmarks per table.
const NUM_LANDMARKS: usize = 8;

/// Epoch-keyed landmark set: deterministic farthest-point landmarks in
/// the hop metric.
///
/// Owned by a [`SearchWorkspace`]; [`LandmarkTable::ensure_fresh`] is
/// cheap when the table already matches the graph's
/// [`Graph::topology_epoch`] (two integer compares) and reselects the
/// landmarks with level-synchronous BFS sweeps otherwise.
#[derive(Debug, Default)]
pub struct LandmarkTable {
    landmarks: Vec<NodeId>,
    /// `(node_count, topology_epoch)` the set was chosen for; `None`
    /// until the first build. Any mismatch means stale.
    built_epoch: Option<(usize, u64)>,
    rebuilds: u64,
}

impl LandmarkTable {
    /// Creates an empty (stale) table.
    pub fn new() -> LandmarkTable {
        LandmarkTable::default()
    }

    /// Whether the landmarks match `g`'s current size and topology epoch.
    pub fn is_fresh(&self, g: &Graph) -> bool {
        self.built_epoch == Some((g.node_count(), g.topology_epoch()))
    }

    /// The chosen landmark set (empty until the first build).
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Rebuilds the table iff its epoch no longer matches `g`.
    ///
    /// Like the routing layer's path cache, the table tracks **one**
    /// graph's epoch stream: pair each workspace with a single graph.
    /// Two different graph instances can coincide on
    /// `(node_count, topology_epoch)`, and the table cannot tell them
    /// apart.
    ///
    /// Landmark selection is deterministic farthest-point: the first
    /// landmark is the node farthest from node 0 (ties to the smallest
    /// id), each further landmark maximizes the hop distance to the
    /// landmarks already chosen. A fresh table returns after comparing
    /// the stored `(node_count, topology_epoch)` key — no allocation,
    /// no graph traversal.
    pub fn ensure_fresh(&mut self, g: &Graph) {
        if self.is_fresh(g) {
            return;
        }
        let n = g.node_count();
        self.landmarks.clear();
        if n > 0 {
            let want = NUM_LANDMARKS.min(n);
            let seed_hops = bfs_hops(g, NodeId::from_index(0));
            let first = farthest_finite(&seed_hops).unwrap_or(NodeId::from_index(0));
            let mut min_hops = bfs_hops(g, first);
            self.landmarks.push(first);
            while self.landmarks.len() < want {
                // The next landmark maximizes distance-to-set; a best
                // value of 0 means every reachable node already is a
                // landmark, so stop early.
                let Some(next) = farthest_finite(&min_hops).filter(|c| min_hops[c.index()] > 0)
                else {
                    break;
                };
                for (m, h) in min_hops.iter_mut().zip(bfs_hops(g, next)) {
                    *m = (*m).min(h);
                }
                self.landmarks.push(next);
            }
        }
        self.built_epoch = Some((n, g.topology_epoch()));
        self.rebuilds += 1;
    }
}

/// The reachable node with the largest hop value, ties to the smallest
/// id; `None` when nothing is reachable.
fn farthest_finite(hops: &[u32]) -> Option<NodeId> {
    let mut best: Option<(u32, usize)> = None;
    for (i, &h) in hops.iter().enumerate() {
        if h != u32::MAX && best.is_none_or(|(bh, _)| h > bh) {
            best = Some((h, i));
        }
    }
    best.map(|(_, i)| NodeId::from_index(i))
}

/// Index of the forward side (levels from the source) in a label.
const FWD: usize = 0;
/// Index of the backward side (levels to the target) in a label.
const BWD: usize = 1;
/// A side's level while the node is unlabelled on that side.
const UNSEEN: u32 = u32::MAX;

/// One node's forward and backward levels, valid only while `stamp`
/// equals the current search's stamp.
#[derive(Clone, Copy, Debug, Default)]
struct Label {
    stamp: u32,
    level: [u32; 2],
}

/// Per-node levels of one point-to-point search. A reset bumps the
/// stamp, which makes every older label stale; only a reset that wraps
/// the stamp rewrites the array. The stamp of a search is never 0, the
/// stamp of a slot never written.
#[derive(Debug, Default)]
struct Levels {
    labels: Vec<Label>,
    stamp: u32,
}

impl Levels {
    fn reset(&mut self, n: usize) {
        if self.stamp == u32::MAX {
            self.labels.fill(Label::default());
            self.stamp = 0;
        }
        self.stamp += 1;
        if self.labels.len() < n {
            self.labels.resize(n, Label::default());
        }
    }

    #[inline]
    fn get(&self, v: NodeId, side: usize) -> u32 {
        let l = &self.labels[v.index()];
        if l.stamp == self.stamp {
            l.level[side]
        } else {
            UNSEEN
        }
    }

    /// `v`'s levels in the current search, both unseen if stale.
    #[inline]
    fn entry(&mut self, v: NodeId) -> &mut [u32; 2] {
        let l = &mut self.labels[v.index()];
        if l.stamp != self.stamp {
            *l = Label {
                stamp: self.stamp,
                level: [UNSEEN; 2],
            };
        }
        &mut l.level
    }
}

/// Reusable goal-directed search state: both sides' levels, the level
/// frontiers and the discovery marks of the trees.
#[derive(Debug, Default)]
pub(crate) struct AccelScratch {
    levels: Levels,
    fwd: Vec<NodeId>,
    bwd: Vec<NodeId>,
    next: Vec<NodeId>,
    marks: Vec<u64>,
    /// Monotone count of nodes whose adjacency a goal-directed search
    /// expanded: both sides and the restricted sweep, or every tree node.
    pub(crate) settled: u64,
}

/// Whether a priced arc is usable, under the unit-cost contract.
#[inline]
fn unit_usable(cost: Option<f64>) -> bool {
    let w = usable(cost);
    debug_assert!(
        w.is_none_or(|w| w == 1.0),
        "goal-directed searches require unit edge costs, got {w:?}"
    );
    w.is_some()
}

/// [`crate::shortest_path_in`] under the unit-cost contract, as a
/// bidirectional BFS with a canonical rebuild (see the module docs).
/// Returns the bit-identical `(cost, path)` of the plain search, on any
/// [`Topology`].
pub fn shortest_path_accel_in<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    mut cost: F,
) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    let n = g.node_count();
    if from.index() >= n || to.index() >= n {
        return None;
    }
    if from == to {
        return Some((0.0, Path::trivial(from)));
    }
    let AccelScratch {
        levels,
        fwd,
        bwd,
        next,
        settled,
        ..
    } = &mut ws.accel;
    levels.reset(n);
    levels.entry(from)[FWD] = 0;
    levels.entry(to)[BWD] = 0;
    fwd.clear();
    fwd.push(from);
    bwd.clear();
    bwd.push(to);

    // Bidirectional BFS, one full level of the smaller frontier a round,
    // until the sides meet.
    let mut radius = [0u32; 2];
    loop {
        let side = if fwd.len() <= bwd.len() { FWD } else { BWD };
        let frontier = if side == FWD { &mut *fwd } else { &mut *bwd };
        if frontier.is_empty() {
            return None;
        }
        *settled += frontier.len() as u64;
        radius[side] += 1;
        next.clear();
        let mut met = false;
        for &u in frontier.iter() {
            for e in g.out_edges(u) {
                let arc = if side == FWD { e } else { e.reversed() };
                if !unit_usable(cost(arc)) {
                    continue;
                }
                let level = levels.entry(e.to);
                if level[side] == UNSEEN {
                    level[side] = radius[side];
                    met |= level[1 - side] != UNSEEN;
                    next.push(e.to);
                }
            }
        }
        std::mem::swap(frontier, next);
        if met {
            break;
        }
    }

    // Restricted forward sweep past the forward frontier, along
    // shortest-path nodes only.
    let [rf, rb] = radius;
    fwd.retain(|&u| levels.get(u, BWD) == rb);
    for step in 1..=rb {
        *settled += fwd.len() as u64;
        next.clear();
        for &u in fwd.iter() {
            for e in g.out_edges(u) {
                if levels.get(e.to, BWD) == rb - step
                    && levels.get(e.to, FWD) == UNSEEN
                    && unit_usable(cost(e))
                {
                    levels.entry(e.to)[FWD] = rf + step;
                    next.push(e.to);
                }
            }
        }
        std::mem::swap(fwd, next);
    }

    // Canonical rebuild from the target.
    let d = rf + rb;
    let mut nodes = Vec::with_capacity(d as usize + 1);
    let mut channels = Vec::with_capacity(d as usize);
    let mut v = to;
    nodes.push(v);
    for level in (0..d).rev() {
        let mut pred: Option<NodeId> = None;
        for e in g.out_edges(v) {
            if levels.get(e.to, FWD) == level
                && pred.is_none_or(|p| e.to < p)
                && unit_usable(cost(e.reversed()))
            {
                pred = Some(e.to);
            }
        }
        let u = pred.expect("a shortest-path node has a usable arc from one level closer");
        let arc = g
            .out_edges(u)
            .find(|&e| e.to == v && unit_usable(cost(e)))
            .expect("the predecessor's arc was just priced usable");
        nodes.push(u);
        channels.push(arc.id);
        v = u;
    }
    nodes.reverse();
    channels.reverse();
    Some((f64::from(d), Path::new(nodes, channels)))
}

/// A full shortest-path tree from `root` into `tree`, under the
/// unit-cost contract: a BFS that expands its levels in ascending node
/// id and fixes a node's parent at its first discovery, so every
/// distance and parent equals plain Dijkstra's tree from `root` (see the
/// module docs). `tree.path_to(v)` then reads the path `root → v` off in
/// O(path length). The frontier and discovery marks come from the
/// workspace; `tree` is the caller's and keeps its buffers across calls.
pub fn bfs_tree_in<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    root: NodeId,
    mut cost: F,
    tree: &mut ShortestPathTree,
) where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    let AccelScratch {
        fwd: frontier,
        marks,
        settled,
        ..
    } = &mut ws.accel;
    let n = g.node_count();
    tree.source = root;
    tree.dist.clear();
    tree.dist.resize(n, f64::INFINITY);
    tree.parent.clear();
    tree.parent.resize(n, None);
    if root.index() >= n {
        return;
    }
    marks.clear();
    marks.resize(n.div_ceil(64), 0);
    tree.dist[root.index()] = 0.0;
    frontier.clear();
    frontier.push(root);
    let mut depth = 0.0;
    while !frontier.is_empty() {
        depth += 1.0;
        *settled += frontier.len() as u64;
        for &u in frontier.iter() {
            for e in g.out_edges(u) {
                let v = e.to.index();
                if tree.dist[v].is_infinite() && unit_usable(cost(e)) {
                    tree.dist[v] = depth;
                    tree.parent[v] = Some((u, e.id));
                    marks[v / 64] |= 1 << (v % 64);
                }
            }
        }
        frontier.clear();
        drain_marked(marks, frontier);
    }
}

/// [`crate::k_shortest_paths_in`] with every inner single-pair search
/// goal-directed ([`shortest_path_accel_in`], unit costs only), plus the
/// early-stop hook of [`crate::k_shortest_paths_until_in`]. Results are
/// bit-identical to the plain form for any `until`.
pub fn k_shortest_paths_accel_in<G, F, U>(
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
    crate::yen::yen_core(
        g,
        ws,
        from,
        to,
        k,
        cost,
        |g, ws, s, t, c| shortest_path_accel_in(g, ws, s, t, c),
        until,
    )
}

/// [`crate::edge_disjoint_shortest_paths_in`] with every greedy round's
/// search goal-directed (unit costs only); bit-identical results.
pub fn edge_disjoint_shortest_paths_accel_in<G, F>(
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
    crate::disjoint::eds_core(g, ws, from, to, k, cost, |g, ws, s, t, c| {
        shortest_path_accel_in(g, ws, s, t, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn random_graph(rng: &mut StdRng, nn: usize, p: f64) -> Graph {
        let mut g = Graph::new(nn);
        for a in 0..nn {
            for b in (a + 1)..nn {
                if rng.random_bool(p) {
                    g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
                }
            }
        }
        g
    }

    /// Per-channel usability: 0 both ways, 1 only from the smaller id,
    /// 2 only from the larger id, 3 neither.
    fn random_arcs(rng: &mut StdRng, channels: usize) -> Vec<u8> {
        (0..channels)
            .map(|_| match rng.random_range(0..8u8) {
                0 => 1,
                1 => 2,
                2 => 3,
                _ => 0,
            })
            .collect()
    }

    fn arc_cost(arcs: &[u8], e: EdgeRef) -> Option<f64> {
        let usable = match arcs[e.id.index()] {
            0 => true,
            1 => e.from < e.to,
            2 => e.from > e.to,
            _ => false,
        };
        usable.then_some(1.0)
    }

    fn assert_same(a: &Option<(f64, Path)>, b: &Option<(f64, Path)>, label: &str) {
        match (a, b) {
            (None, None) => {}
            (Some((ca, pa)), Some((cb, pb))) => {
                assert_eq!(ca, cb, "{label}: cost");
                assert_eq!(pa.nodes(), pb.nodes(), "{label}: nodes");
                assert_eq!(pa.channels(), pb.channels(), "{label}: channels");
            }
            other => panic!("{label}: reachability mismatch {other:?}"),
        }
    }

    /// Every ordered pair of random graphs with one-way arcs, banned
    /// channels and banned nodes: the shapes of Yen and EDS spur searches.
    #[test]
    fn bidir_matches_unidirectional_on_random_unit_cost_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ws = SearchWorkspace::new();
        for round in 0..80 {
            let (nn, p) = (rng.random_range(2..16), rng.random_range(0.15..0.5));
            let g = random_graph(&mut rng, nn, p);
            let arcs = random_arcs(&mut rng, g.edge_count());
            let banned: Vec<bool> = (0..nn).map(|_| rng.random_bool(0.1)).collect();
            let cost = |e: EdgeRef| {
                if banned[e.from.index()] || banned[e.to.index()] {
                    None
                } else {
                    arc_cost(&arcs, e)
                }
            };
            for from in g.nodes() {
                for to in g.nodes() {
                    let plain = g.shortest_path_in(&mut ws, from, to, cost);
                    let accel = shortest_path_accel_in(&g, &mut ws, from, to, cost);
                    assert_same(&plain, &accel, &format!("round {round} {from}->{to}"));
                }
            }
        }
    }

    /// Random weighted graphs priced the way the routing layer prices a
    /// funded world: each direction of a channel holds a random balance,
    /// and an arc costs 1 when it can carry the round's amount. The
    /// weights decide usability only, so the unit-cost contract holds.
    #[test]
    fn bidir_matches_unidirectional_on_random_weighted_graphs() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut ws = SearchWorkspace::new();
        for round in 0..60 {
            let nn = rng.random_range(2..14);
            let g = random_graph(&mut rng, nn, 0.4);
            let balance: Vec<[u32; 2]> = (0..g.edge_count())
                .map(|_| [rng.random_range(0..9), rng.random_range(0..9)])
                .collect();
            let amount = rng.random_range(1..9u32);
            let cost = |e: EdgeRef| {
                let side = usize::from(e.from > e.to);
                (balance[e.id.index()][side] >= amount).then_some(1.0)
            };
            for from in g.nodes() {
                for to in g.nodes() {
                    let plain = g.shortest_path_in(&mut ws, from, to, cost);
                    let accel = shortest_path_accel_in(&g, &mut ws, from, to, cost);
                    assert_same(&plain, &accel, &format!("round {round} {from}->{to}"));
                }
            }
        }
    }

    /// A shortcut usable only towards the source: the backward side must
    /// price the reversed arc, not the arc it scans. The leaves on the
    /// source make the forward frontier the larger one, so the backward
    /// side expands the target first.
    #[test]
    fn bidir_handles_directional_and_unusable_costs() {
        for leaves in [0, 6] {
            let mut g = Graph::new(4 + leaves);
            g.add_edge(n(0), n(1));
            g.add_edge(n(1), n(2));
            g.add_edge(n(2), n(3));
            let shortcut = g.add_edge(n(0), n(3));
            for l in 4..4 + leaves {
                g.add_edge(n(0), NodeId::from_index(l));
            }
            let cost = |e: EdgeRef| (e.id != shortcut || e.from == n(3)).then_some(1.0);
            let mut ws = SearchWorkspace::new();
            let fwd = shortest_path_accel_in(&g, &mut ws, n(0), n(3), cost);
            assert_same(&fwd, &g.shortest_path_in(&mut ws, n(0), n(3), cost), "0->3");
            assert_eq!(fwd.unwrap().1.nodes(), &[n(0), n(1), n(2), n(3)]);
            let back = shortest_path_accel_in(&g, &mut ws, n(3), n(0), cost);
            assert_same(
                &back,
                &g.shortest_path_in(&mut ws, n(3), n(0), cost),
                "3->0",
            );
            assert_eq!(back.unwrap().1.channels(), &[shortcut]);
        }
        // A line usable only forward is unreachable backward.
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let mut ws = SearchWorkspace::new();
        let fwd_only = |e: EdgeRef| (e.from < e.to).then_some(1.0);
        assert!(shortest_path_accel_in(&g, &mut ws, n(0), n(2), fwd_only).is_some());
        assert!(shortest_path_accel_in(&g, &mut ws, n(2), n(0), fwd_only).is_none());
    }

    #[test]
    fn bidir_edge_cases() {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        let mut ws = SearchWorkspace::new();
        // Self path.
        let (c, p) = shortest_path_accel_in(&g, &mut ws, n(0), n(0), |_| Some(1.0)).unwrap();
        assert_eq!((c, p.hops()), (0.0, 0));
        // Unreachable and out of range.
        assert!(shortest_path_accel_in(&g, &mut ws, n(0), n(3), |_| Some(1.0)).is_none());
        assert!(shortest_path_accel_in(&g, &mut ws, n(0), n(9), |_| Some(1.0)).is_none());
        assert!(shortest_path_accel_in(&g, &mut ws, n(9), n(0), |_| Some(1.0)).is_none());
    }

    /// Two equal-length routes 0-1-{5,4}-6-7, with 5 ahead of 4 in every
    /// adjacency row. With leaves on the source the search stops at
    /// forward radius 1, so 4 and 5 are labelled by the restricted sweep
    /// only; the rebuild must still take the smaller id, 4.
    #[test]
    fn rebuild_takes_smallest_id_predecessor_past_the_forward_frontier() {
        for leaves in [0, 8] {
            let mut g = Graph::new(8 + leaves);
            g.add_edge(n(0), n(1));
            for l in 8..8 + leaves {
                g.add_edge(n(0), NodeId::from_index(l));
            }
            g.add_edge(n(1), n(5));
            g.add_edge(n(1), n(4));
            g.add_edge(n(5), n(6));
            g.add_edge(n(4), n(6));
            g.add_edge(n(6), n(7));
            let mut ws = SearchWorkspace::new();
            let accel = shortest_path_accel_in(&g, &mut ws, n(0), n(7), |_| Some(1.0));
            let plain = g.shortest_path_in(&mut ws, n(0), n(7), |_| Some(1.0));
            assert_same(&plain, &accel, &format!("{leaves} leaves"));
            assert_eq!(
                accel.unwrap().1.nodes(),
                &[n(0), n(1), n(4), n(6), n(7)],
                "{leaves} leaves"
            );
        }
    }

    /// Three parallel channels 1-2 whose first is usable only 2→1: the
    /// path 0→3 must take the second, the first usable one in 1's
    /// adjacency order, whichever side priced it.
    #[test]
    fn rebuild_takes_first_usable_parallel_channel() {
        for leaves in [0, 6] {
            let mut g = Graph::new(4 + leaves);
            let first = g.add_edge(n(0), n(1));
            for l in 4..4 + leaves {
                g.add_edge(n(0), NodeId::from_index(l));
            }
            let one_way = g.add_edge(n(1), n(2));
            let second = g.add_edge(n(1), n(2));
            g.add_edge(n(1), n(2));
            let last = g.add_edge(n(2), n(3));
            let cost = |e: EdgeRef| (e.id != one_way || e.from == n(2)).then_some(1.0);
            let mut ws = SearchWorkspace::new();
            let accel = shortest_path_accel_in(&g, &mut ws, n(0), n(3), cost);
            let plain = g.shortest_path_in(&mut ws, n(0), n(3), cost);
            assert_same(&plain, &accel, &format!("{leaves} leaves"));
            assert_eq!(accel.unwrap().1.channels(), &[first, second, last]);
        }
    }

    /// Unit costs under a pseudo-random banned channel set, the shape of
    /// Yen spur searches, with a fresh landmark table in the workspace.
    /// The name is kept from the landmark-bounded search; no search
    /// reads the table now, and preparing it must not change an answer.
    #[test]
    fn alt_accelerated_search_matches_plain_under_bans() {
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..40 {
            // One workspace per graph: the landmark table tracks a
            // single graph's epoch stream.
            let mut ws = SearchWorkspace::new();
            let nn = rng.random_range(2..16);
            let g = random_graph(&mut rng, nn, 0.35);
            ws.prepare_landmarks(&g);
            assert!(ws.landmarks.is_fresh(&g));
            let from = n(0);
            let to = NodeId::from_index(g.node_count() - 1);
            let banned: Vec<bool> = (0..64).map(|i| (i * 7 + round) % 5 == 0).collect();
            let cost =
                |e: EdgeRef| (!banned.get(e.id.index()).copied().unwrap_or(false)).then_some(1.0);
            let plain = g.shortest_path_in(&mut ws, from, to, cost);
            let accel = shortest_path_accel_in(&g, &mut ws, from, to, cost);
            assert_same(&plain, &accel, &format!("round {round}"));
        }
    }

    #[test]
    fn accel_search_survives_churn_and_epoch_rebuilds() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut ws = SearchWorkspace::new();
        let mut g = random_graph(&mut rng, 12, 0.5);
        for round in 0..30 {
            // Mutate: close a random open channel or add an edge.
            let open: Vec<_> = g.open_edges().collect();
            if !open.is_empty() && rng.random_bool(0.6) {
                let victim = open[rng.random_range(0..open.len())];
                g.close_channel(victim).unwrap();
            } else {
                let a = rng.random_range(0..12u32);
                let b = (a + 1 + rng.random_range(0..11u32)) % 12;
                g.add_edge(n(a), n(b));
            }
            ws.prepare_landmarks(&g);
            let from = n(rng.random_range(0..12u32));
            let to = n(rng.random_range(0..12u32));
            let plain = g.shortest_path_in(&mut ws, from, to, |_| Some(1.0));
            let accel = shortest_path_accel_in(&g, &mut ws, from, to, |_| Some(1.0));
            assert_same(&plain, &accel, &format!("churn round {round}"));
        }
        // Rebuild count tracked epoch changes, not query count.
        assert_eq!(ws.landmark_rebuilds(), 30);
        ws.prepare_landmarks(&g);
        assert_eq!(ws.landmark_rebuilds(), 30, "fresh table must not rebuild");
    }

    #[test]
    fn landmark_selection_is_deterministic_and_epoch_keyed() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = random_graph(&mut rng, 20, 0.3);
        let mut t1 = LandmarkTable::new();
        let mut t2 = LandmarkTable::new();
        t1.ensure_fresh(&g);
        t2.ensure_fresh(&g);
        assert_eq!(t1.landmarks(), t2.landmarks());
        assert!(!t1.landmarks().is_empty());
        assert_eq!(t1.rebuilds(), 1);
        t1.ensure_fresh(&g);
        assert_eq!(t1.rebuilds(), 1, "fresh table must be a no-op");
        let epoch = g.topology_epoch();
        g.add_edge(n(0), n(1));
        assert_ne!(g.topology_epoch(), epoch);
        assert!(!t1.is_fresh(&g));
        t1.ensure_fresh(&g);
        assert_eq!(t1.rebuilds(), 2);
        assert!(t1.is_fresh(&g));
    }

    #[test]
    fn two_trees_match_individual_searches() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ws = SearchWorkspace::new();
        let mut tree = ShortestPathTree::default();
        for round in 0..20 {
            let g = random_graph(&mut rng, 14, 0.3);
            let arcs = random_arcs(&mut rng, g.edge_count());
            let cost = |e: EdgeRef| arc_cost(&arcs, e);
            for root in [n(0), n(13)] {
                bfs_tree_in(&g, &mut ws, root, cost, &mut tree);
                assert_eq!(tree.source(), root);
                for v in g.nodes() {
                    let plain = g.shortest_path_in(&mut ws, root, v, cost);
                    assert_eq!(
                        tree.distance(v),
                        plain.as_ref().map(|(c, _)| *c),
                        "round {round} {root}->{v}"
                    );
                    assert_eq!(
                        tree.path_to(v)
                            .map(|p| (p.nodes().to_vec(), p.channels().to_vec())),
                        plain.map(|(_, p)| (p.nodes().to_vec(), p.channels().to_vec())),
                        "round {round}: tree from {root} diverges at {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn accel_ksp_and_eds_match_plain_variants() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..25 {
            let mut ws = SearchWorkspace::new();
            let nn = rng.random_range(4..14);
            let g = random_graph(&mut rng, nn, 0.45);
            let arcs = random_arcs(&mut rng, g.edge_count());
            let cost = |e: EdgeRef| arc_cost(&arcs, e);
            let from = n(0);
            let to = NodeId::from_index(g.node_count() - 1);
            let plain_ksp = crate::k_shortest_paths_in(&g, &mut ws, from, to, 4, cost);
            let accel_ksp = k_shortest_paths_accel_in(&g, &mut ws, from, to, 4, cost, |_| false);
            assert_eq!(plain_ksp, accel_ksp);
            let plain_eds = crate::edge_disjoint_shortest_paths_in(&g, &mut ws, from, to, 4, cost);
            let accel_eds = edge_disjoint_shortest_paths_accel_in(&g, &mut ws, from, to, 4, cost);
            assert_eq!(plain_eds, accel_eds);
        }
    }

    /// The contract is unit costs, not costs of at least 1: a usable arc
    /// priced below or above 1 trips the debug assertion.
    #[test]
    #[cfg(debug_assertions)]
    fn non_unit_cost_trips_assert() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        for w in [0.5, 2.0] {
            let cost = |e: EdgeRef| {
                Some(if e.from == n(1) && e.to == n(2) {
                    w
                } else {
                    1.0
                })
            };
            let panic = std::panic::catch_unwind(|| {
                let mut ws = SearchWorkspace::new();
                shortest_path_accel_in(&g, &mut ws, n(0), n(2), cost)
            })
            .expect_err("a non-unit cost must trip the assertion");
            let msg = panic.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("require unit edge costs"), "{w}: {msg}");
        }
    }

    /// The contract is checked on every side that prices an arc. Here
    /// the leaves on the source make the forward frontier the larger
    /// one, so the backward side, which took the backward probe's place,
    /// is the first to price the sub-unit arc 1→2 into the target.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "require unit edge costs")]
    fn sub_unit_cost_trips_assert_in_backward_probe() {
        let mut g = Graph::new(5);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(0), n(3));
        g.add_edge(n(0), n(4));
        let cost = |e: EdgeRef| {
            Some(if e.from == n(1) && e.to == n(2) {
                0.5
            } else {
                1.0
            })
        };
        let mut ws = SearchWorkspace::new();
        let _ = shortest_path_accel_in(&g, &mut ws, n(0), n(2), cost);
    }

    /// On a bare line the frontiers tie every round, so the forward
    /// side, which took the A* phase's place, expands 1 and is the first
    /// to price the sub-unit arc 1→2.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "require unit edge costs")]
    fn sub_unit_cost_trips_assert_in_astar_phase() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let cost = |e: EdgeRef| {
            Some(if e.from == n(1) && e.to == n(2) {
                0.5
            } else {
                1.0
            })
        };
        let mut ws = SearchWorkspace::new();
        let _ = shortest_path_accel_in(&g, &mut ws, n(0), n(2), cost);
    }

    #[test]
    fn settled_counter_reports_goal_directed_savings() {
        // On an expander-like small world the unidirectional search
        // settles close to the whole ball of radius d(s,t); the two
        // half-radius BFS balls are far smaller. Aggregate over pairs to
        // keep the assertion robust.
        let mut rng = StdRng::seed_from_u64(99);
        let g = crate::watts_strogatz(800, 8, 0.3, &mut rng);
        let mut ws = SearchWorkspace::new();
        let mut plain_settled = 0;
        let mut accel_settled = 0;
        for round in 0..30u32 {
            let from = NodeId::new((round * 97) % 800);
            let to = NodeId::new((round * 211 + 400) % 800);
            let before = ws.nodes_settled();
            let plain = g.shortest_path_in(&mut ws, from, to, |_| Some(1.0));
            let mid = ws.nodes_settled();
            let accel = shortest_path_accel_in(&g, &mut ws, from, to, |_| Some(1.0));
            assert_same(&plain, &accel, &format!("pair {round}"));
            plain_settled += mid - before;
            accel_settled += ws.nodes_settled() - mid;
        }
        assert!(
            accel_settled * 2 < plain_settled,
            "goal-directed settled {accel_settled} vs plain {plain_settled}"
        );
    }
}
