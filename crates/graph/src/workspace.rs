//! Reusable search buffers for the hot routing path.
//!
//! Every path query (Dijkstra, widest path, Yen's KSP, Dinic's max flow)
//! needs per-node scratch state — distance labels, parent pointers, a
//! priority queue, residual-arc tables, the static-width EDW walk's
//! stamped labels. Allocating those on every call is what made repeated
//! path selection the engine's dominant allocation site. A
//! [`SearchWorkspace`] owns all of them; the `*_in` variants of the
//! search entry points ([`Graph::shortest_path_in`],
//! [`crate::bfs_tree_in`], [`crate::widest_path_in`],
//! [`crate::k_shortest_paths_in`], [`crate::max_flow_in`],
//! [`crate::edge_disjoint_widest_paths_static_in`]) borrow the
//! workspace and run allocation-free once its buffers have grown to the
//! graph's size (only the returned [`crate::Path`]s still allocate —
//! they are the query's output).
//!
//! The workspace also owns the **ban mask** the repeated-search loops
//! (Yen's KSP, greedy EDS and EDW) consult on every scanned edge: the
//! channels already used by earlier paths, the spur's banned root edges
//! and root nodes. It is a pair of dense per-node and per-channel stamp
//! arrays, so a lookup is one indexed compare instead of a hash, and
//! clearing it is O(1): a clear bumps a generation stamp and every older
//! mark stops counting. Only when the `u32` stamp wraps does a clear
//! zero the array, so no clear ever revives an old ban. The arrays grow
//! to the largest id banned and never shrink. The static-width EDW walk
//! resets its settled and offered node sets the same way.
//!
//! Reuse is **semantics-preserving**: each search fully re-initializes
//! the state it reads, so a warm workspace returns bit-identical results
//! to a cold one. The workspace is deliberately not `Clone`/`Send`-shared:
//! one worker, one workspace.
//!
//! ```
//! use pcn_graph::{Graph, SearchWorkspace};
//! use pcn_types::NodeId;
//!
//! let mut g = Graph::new(3);
//! g.add_edge(NodeId::new(0), NodeId::new(1));
//! g.add_edge(NodeId::new(1), NodeId::new(2));
//! let mut ws = SearchWorkspace::new();
//! for _ in 0..3 {
//!     let (cost, _) = g
//!         .shortest_path_in(&mut ws, NodeId::new(0), NodeId::new(2), |_| Some(1.0))
//!         .unwrap();
//!     assert_eq!(cost, 2.0);
//! }
//! ```

use pcn_types::{ChannelId, NodeId};

use crate::accel::{AccelScratch, LandmarkTable};
use crate::dijkstra::DijkstraScratch;
use crate::maxflow::MaxFlowScratch;
use crate::static_widest::StaticWidestScratch;
use crate::widest::WidestScratch;
use crate::Graph;

/// Owned scratch buffers shared by all search algorithms.
///
/// Create one per worker (or per [`crate::Graph`]-consuming engine) and
/// thread it through the `*_in` query variants.
#[derive(Debug, Default)]
pub struct SearchWorkspace {
    pub(crate) dijkstra: DijkstraScratch,
    pub(crate) widest: WidestScratch,
    pub(crate) static_widest: StaticWidestScratch,
    pub(crate) maxflow: MaxFlowScratch,
    pub(crate) accel: AccelScratch,
    pub(crate) landmarks: LandmarkTable,
    /// Edge bans of the repeated-search loops. A loop takes it out
    /// (`std::mem::take`) around its inner searches, which borrow the
    /// rest of the workspace, and puts it back when done.
    pub(crate) bans: BanMask,
}

/// Per-node and per-channel ban marks with an O(1) clear.
#[derive(Debug, Default)]
pub(crate) struct BanMask {
    nodes: StampSet,
    channels: StampSet,
}

impl BanMask {
    /// Lifts every ban.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.channels.clear();
    }

    pub(crate) fn ban_node(&mut self, v: NodeId) {
        self.nodes.insert(v.index());
    }

    pub(crate) fn ban_channel(&mut self, c: ChannelId) {
        self.channels.insert(c.index());
    }

    #[inline]
    pub(crate) fn node_banned(&self, v: NodeId) -> bool {
        self.nodes.contains(v.index())
    }

    #[inline]
    pub(crate) fn channel_banned(&self, c: ChannelId) -> bool {
        self.channels.contains(c.index())
    }
}

/// A set of dense indices with an O(1) clear.
///
/// An index is in the set iff its mark equals the current stamp. Marks
/// are written only by [`StampSet::insert`], so after a
/// [`StampSet::clear`] every older mark is stale. The stamp starts at 1
/// and never returns to 0, the value of an unmarked slot. The marks grow
/// to the largest index inserted and never shrink.
#[derive(Debug)]
pub(crate) struct StampSet {
    marks: Vec<u32>,
    stamp: u32,
}

impl Default for StampSet {
    fn default() -> StampSet {
        StampSet {
            marks: Vec::new(),
            stamp: 1,
        }
    }
}

impl StampSet {
    /// Empties the set. O(1), except when the stamp wraps: then the
    /// marks are zeroed, so a mark left from `2^32 − 1` clears ago
    /// cannot match the new stamp.
    pub(crate) fn clear(&mut self) {
        if self.stamp == u32::MAX {
            self.marks.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        if i >= self.marks.len() {
            self.marks.resize(i + 1, 0);
        }
        self.marks[i] = self.stamp;
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.marks.get(i) == Some(&self.stamp)
    }

    /// Moves the stamp, so a test can reach the wrap quickly.
    #[cfg(test)]
    pub(crate) fn set_stamp(&mut self, stamp: u32) {
        self.stamp = stamp;
    }
}

impl SearchWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> SearchWorkspace {
        SearchWorkspace::default()
    }

    /// Monotone count of nodes settled by every Dijkstra-family search
    /// run on this workspace. A plain search settles a node at its
    /// non-stale priority-queue pop; a goal-directed BFS counts each node
    /// whose adjacency it expanded (either side of a point-to-point
    /// search, its restricted forward sweep, or a tree level). The
    /// per-run difference is the planner-observability counter
    /// `RunStats::nodes_settled`.
    pub fn nodes_settled(&self) -> u64 {
        self.dijkstra.settled + self.accel.settled
    }

    /// Rebuilds the workspace's [`LandmarkTable`] iff its epoch no
    /// longer matches `g` (see [`LandmarkTable::ensure_fresh`]). Cheap
    /// when fresh: two integer compares, no allocation. No search reads
    /// the table; only the end-to-end benchmark's planner replay calls
    /// this, and it goes with the next change to that benchmark.
    pub fn prepare_landmarks(&mut self, g: &Graph) {
        self.landmarks.ensure_fresh(g);
    }

    /// How many times the workspace's landmark table has been rebuilt.
    pub fn landmark_rebuilds(&self) -> u64 {
        self.landmarks.rebuilds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{k_shortest_paths_in, max_flow_in, widest_path_in, Graph};

    /// A clear lifts every ban, also the clear that wraps the stamp: a
    /// clear at `u32::MAX` must not revive bans set under the stamps it
    /// wraps to, nor ban the never-marked (zero) slots.
    #[test]
    fn ban_mask_clear_lifts_every_ban_across_stamp_wraparound() {
        let (n, c) = (NodeId::new, ChannelId::new);
        let mut m = BanMask::default();
        assert!(!m.node_banned(n(0)) && !m.channel_banned(c(0)));
        // Marks under stamps 1 and 2, the values a wrapped stamp meets
        // again first.
        m.ban_node(n(1));
        m.ban_channel(c(1));
        assert!(m.node_banned(n(1)) && m.channel_banned(c(1)));
        assert!(!m.node_banned(n(0)) && !m.channel_banned(c(2)));
        m.clear();
        assert!(!m.node_banned(n(1)) && !m.channel_banned(c(1)));
        m.ban_node(n(2));
        m.ban_channel(c(2));
        m.nodes.stamp = u32::MAX;
        m.channels.stamp = u32::MAX;
        m.ban_node(n(4));
        m.ban_channel(c(4));
        assert!(m.node_banned(n(4)) && m.channel_banned(c(4)));
        for _ in 0..3 {
            m.clear();
            for i in 0..6 {
                assert!(
                    !m.node_banned(n(i)) && !m.channel_banned(c(i)),
                    "id {i} banned after a clear at stamp {}",
                    m.nodes.stamp
                );
            }
        }
        m.ban_channel(c(2));
        assert!(m.channel_banned(c(2)) && !m.channel_banned(c(1)));
    }

    /// A warm workspace whose ban mask, goal-directed level labels and
    /// static widest-path labels were sized (and stamped) by searches on
    /// a larger graph must return, on a smaller graph, the same EDW, EDS
    /// and KSP paths — plain, goal-directed and static-width — as a cold
    /// workspace, and the same again back on the larger graph.
    #[test]
    fn warm_ban_mask_matches_cold_across_graph_sizes() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let big = crate::watts_strogatz(80, 6, 0.3, &mut StdRng::seed_from_u64(3));
        let small = crate::watts_strogatz(12, 4, 0.3, &mut StdRng::seed_from_u64(4));
        let mut warm = SearchWorkspace::new();
        for (g, label) in [
            (&big, "larger"),
            (&small, "smaller"),
            (&big, "larger again"),
        ] {
            let nn = g.node_count();
            let width = |e: crate::EdgeRef| Some(1.0 + (e.id.index() % 7) as f64);
            let cost = |e: crate::EdgeRef| width(e).map(|_| 1.0);
            let order = crate::WidthOrder::from_channels(g.edges().map(|id| {
                let (a, b) = g.endpoints(id).expect("dense ids");
                (a, b, 1.0 + (id.index() % 7) as f64)
            }));
            for i in 0..nn {
                let (from, to) = (NodeId::from_index(i), NodeId::from_index((i * 5 + 3) % nn));
                let mut cold = SearchWorkspace::new();
                let run = |ws: &mut SearchWorkspace| {
                    (
                        crate::edge_disjoint_widest_paths_in(g, ws, from, to, 4, width),
                        crate::edge_disjoint_shortest_paths_in(g, ws, from, to, 4, cost),
                        k_shortest_paths_in(g, ws, from, to, 4, cost),
                        crate::edge_disjoint_shortest_paths_accel_in(g, ws, from, to, 4, cost),
                        crate::k_shortest_paths_accel_in(g, ws, from, to, 4, cost, |_| false),
                        crate::edge_disjoint_widest_paths_static_in(
                            g, ws, &order, from, to, 4, 2.0,
                        ),
                    )
                };
                assert_eq!(
                    run(&mut warm),
                    run(&mut cold),
                    "{label} graph, {from}->{to}"
                );
            }
        }
    }

    /// A warm workspace must stay bit-identical to a cold one when the
    /// graph it searches **changes size between queries** — nodes and
    /// edges added (buffers grow) or channels closed (the visible edge
    /// set shrinks while buffers stay large). Every `*_in` search
    /// re-initializes its scratch to the current node/edge counts, so a
    /// dynamic world can mutate the topology mid-run without re-creating
    /// per-engine workspaces.
    #[test]
    fn warm_workspace_survives_topology_shrink_and_grow() {
        let n = NodeId::new;
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        let mut warm = SearchWorkspace::new();

        let compare_all = |g: &Graph, warm: &mut SearchWorkspace, label: &str| {
            let mut cold = SearchWorkspace::new();
            let from = n(0);
            let to = NodeId::from_index(g.node_count() - 1);
            let cost = |_| Some(1.0);
            assert_eq!(
                g.shortest_path_in(warm, from, to, cost),
                g.shortest_path_in(&mut cold, from, to, cost),
                "shortest_path_in diverged: {label}"
            );
            assert_eq!(
                crate::shortest_path_accel_in(g, warm, from, to, cost),
                g.shortest_path_in(&mut cold, from, to, cost),
                "shortest_path_accel_in diverged: {label}"
            );
            let width = |e: crate::EdgeRef| Some(1.0 + e.id.index() as f64);
            let warm_w = widest_path_in(g, warm, from, to, width);
            let cold_w = widest_path_in(g, &mut cold, from, to, width);
            assert_eq!(warm_w, cold_w, "widest_path_in diverged: {label}");
            assert_eq!(
                k_shortest_paths_in(g, warm, from, to, 3, cost),
                k_shortest_paths_in(g, &mut cold, from, to, 3, cost),
                "k_shortest_paths_in diverged: {label}"
            );
            let cap = |_| Some(5u64);
            let warm_f = max_flow_in(g, warm, from, to, cap);
            let cold_f = max_flow_in(g, &mut cold, from, to, cap);
            assert_eq!(warm_f.value, cold_f.value, "max_flow_in diverged: {label}");
        };

        compare_all(&g, &mut warm, "initial 4-node line");
        // Grow: new node + two new edges; warm buffers must resize up.
        let v = g.add_node();
        g.add_edge(n(3), v);
        g.add_edge(n(0), v);
        compare_all(&g, &mut warm, "after add_node/add_edge growth");
        // Shrink the *visible* edge set: close two channels. Buffers
        // sized to the old edge count must not leak stale residual arcs
        // or distance labels into the smaller world.
        g.close_channel(crate::Graph::edges(&g).nth(1).unwrap())
            .unwrap();
        g.close_channel(crate::Graph::edges(&g).nth(4).unwrap())
            .unwrap();
        compare_all(&g, &mut warm, "after closing two channels");
        // Grow again past the original size.
        let w = g.add_node();
        g.add_edge(v, w);
        g.add_edge(n(1), w);
        compare_all(&g, &mut warm, "after regrowth beyond original size");
    }
}
