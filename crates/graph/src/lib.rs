//! Graph substrate for payment channel networks.
//!
//! The paper's system depends on a stack of graph machinery: the PCN itself
//! is a graph of payment channels; hub placement needs all-pairs hop counts;
//! the routing protocol needs k-shortest (KSP), edge-disjoint shortest (EDS)
//! and edge-disjoint widest (EDW) paths (Table II); the Flash baseline needs
//! max-flow; the evaluation topology is a Watts–Strogatz small-world graph
//! generated in the spirit of ROLL \[26\]. This crate implements all of it
//! from scratch.
//!
//! The graph is an undirected multigraph of *channels*; algorithms see it
//! through directed [`EdgeRef`]s so that per-direction costs/capacities
//! (channel balances!) can differ. Costs are supplied by closures, which
//! lets the routing layer price edges off live channel state without the
//! graph crate knowing about balances.
//!
//! Two cross-cutting facilities support the routing layer's
//! epoch-versioned path cache:
//!
//! * [`SearchWorkspace`] — reusable search buffers. Every algorithm has
//!   a `*_in` variant that borrows a workspace and runs allocation-free
//!   when called repeatedly, returning bit-identical results to the
//!   allocating form.
//! * [`Graph::topology_epoch`] — a monotone counter bumped on every
//!   structural mutation, the cache's whole invalidation contract.
//!
//! # Memory layout
//!
//! [`Graph`] stores adjacency in **compressed sparse row** (CSR) form: one
//! contiguous `Vec` of 8-byte entries (`{ tag: u32, to: NodeId }` — channel
//! id plus neighbour) and a `row_offsets: Vec<u32>` of length `V + 1`
//! marking each node's slice. Neighbour iteration is a linear scan of one
//! cache-dense slice; the budget is **8 bytes per directed adjacency
//! entry** (16 per undirected channel) plus `4(V + 1)` offset bytes,
//! reported live by [`Graph::adjacency_stats`].
//!
//! Churn never rebuilds the CSR arrays in place:
//!
//! * **Close** flips a skip bit in the entry's own tag (a tombstone);
//!   surviving entries keep their relative order, exactly as a `retain`
//!   on a per-node `Vec` would.
//! * **Open/reopen** appends to a small per-node *delta overlay* that is
//!   iterated after the CSR row — exactly where a `push` would land.
//!   A reopen also kills the old tombstoned entry so the channel is never
//!   seen twice. Whether a node has overlay entries is encoded as a
//!   stolen bit in its row offset, so iterating an overlay-free node —
//!   the steady state — reads nothing but the (L2-resident) offset table
//!   and the CSR row itself, never the overlay's pointer spine.
//! * When tombstones plus overlay entries cross a deterministic watermark
//!   (1/8 of the CSR length, with a floor that exempts small graphs),
//!   [`Graph`] **compacts**: one O(V + E) rebuild that drops tombstones,
//!   merges the overlay in visible order, and bumps
//!   [`Graph::topology_epoch`] exactly once. Visible neighbour order is
//!   preserved verbatim, so searches before and after compaction are
//!   bit-identical.
//!
//! The [`Topology`] trait abstracts the adjacency so every search family
//! here also runs on [`ReferenceGraph`], the pre-CSR `Vec<Vec<…>>` layout
//! kept as an executable spec for equivalence proptests and honest
//! same-build benchmarks.
//!
//! # Search acceleration
//!
//! Unit-cost point-to-point queries (every usable edge costs exactly 1,
//! as in the routing layer's KSP, EDS and Heuristic pools) have
//! goal-directed variants that return **bit-identical** paths to the
//! plain Dijkstra searches, so callers can toggle them freely without
//! changing a single result:
//!
//! * [`shortest_path_accel_in`] — a level-synchronous bidirectional
//!   BFS: expand the smaller frontier one full level at a time until the
//!   sides meet, then rebuild the path from the target with plain
//!   Dijkstra's parent rule. Works on any [`Topology`].
//! * [`k_shortest_paths_accel_in`] / [`edge_disjoint_shortest_paths_accel_in`]
//!   — the Yen and greedy-EDS loops with every inner single-pair search
//!   goal-directed.
//! * [`shortest_path_two_trees_in`] — two full BFS trees (e.g. one from
//!   a payment's source, one from its destination) in one call, batching
//!   what would otherwise be `2·k` single-pair searches.
//!
//! Bit-identity rests on plain Dijkstra's parent rule under unit costs,
//! spelled out in the `accel` module docs: a node's parent is the
//! smallest-id node one level closer to the source with a usable arc
//! into it, joined by that node's first usable channel to it in
//! adjacency order. The trees apply the rule by expanding levels in
//! ascending id; the point-to-point search applies it while rebuilding.
//!
//! # Static widths
//!
//! When every channel's width is fixed (the routing layer's capacity
//! view reads channel totals, which never change), widest-path search
//! needs no heap. [`WidthOrder`] keeps the channels sorted by width, and
//! [`edge_disjoint_widest_paths_static_in`] walks them widest first and
//! floods each width level breadth-first. Its paths are exactly those of
//! [`edge_disjoint_widest_paths_in`] under the same widths; the
//! `static_widest` module docs give the argument.
//!
//! # Examples
//!
//! ```
//! use pcn_graph::Graph;
//! use pcn_types::NodeId;
//!
//! let mut g = Graph::new(4);
//! g.add_edge(NodeId::new(0), NodeId::new(1));
//! g.add_edge(NodeId::new(1), NodeId::new(2));
//! g.add_edge(NodeId::new(2), NodeId::new(3));
//! g.add_edge(NodeId::new(0), NodeId::new(3));
//!
//! let (cost, path) = g
//!     .shortest_path(NodeId::new(0), NodeId::new(2), |_| Some(1.0))
//!     .expect("connected");
//! assert_eq!(cost, 2.0);
//! assert_eq!(path.hops(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod bfs;
mod dijkstra;
mod disjoint;
mod generators;
mod graph;
mod maxflow;
mod path;
mod reference;
mod static_widest;
mod topology;
mod widest;
mod workspace;
mod yen;

pub use accel::{
    edge_disjoint_shortest_paths_accel_in, k_shortest_paths_accel_in, shortest_path_accel_in,
    shortest_path_two_trees_in, LandmarkTable,
};
pub use bfs::{bfs_hops, connected_components, is_connected};
pub use dijkstra::{shortest_path, shortest_path_in, ShortestPathTree};
pub use disjoint::{
    edge_disjoint_shortest_paths, edge_disjoint_shortest_paths_in, edge_disjoint_widest_paths,
    edge_disjoint_widest_paths_in,
};
pub use generators::{complete, ring, star, watts_strogatz};
pub use graph::{AdjacencyStats, EdgeRef, EdgesOf, Graph};
pub use maxflow::{max_flow, max_flow_in, FlowPath, MaxFlowResult};
pub use path::Path;
pub use reference::ReferenceGraph;
pub use static_widest::{edge_disjoint_widest_paths_static_in, WidthOrder};
pub use topology::Topology;
pub use widest::{widest_path, widest_path_in};
pub use workspace::SearchWorkspace;
pub use yen::{k_shortest_paths, k_shortest_paths_in, k_shortest_paths_until_in};

pub(crate) mod cost {
    /// Total-order wrapper for `f64` costs inside priority queues.
    ///
    /// NaN costs are rejected at the call boundary (cost closures returning
    /// NaN are treated as "edge unusable"), so `total_cmp` is safe here.
    #[derive(Clone, Copy, PartialEq, Debug)]
    pub struct Cost(pub f64);

    impl Eq for Cost {}

    impl PartialOrd for Cost {
        fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Cost {
        fn cmp(&self, other: &Self) -> core::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}
