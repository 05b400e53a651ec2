//! The [`Topology`] abstraction every search algorithm runs against.
//!
//! All six search families in this crate (Dijkstra, BFS, widest, Yen,
//! edge-disjoint, max-flow) are generic over this trait rather than the
//! concrete [`crate::Graph`]. Two implementations exist:
//!
//! * [`crate::Graph`] — the production CSR layout (cache-dense, churn
//!   absorbing; see the crate docs' *memory layout* section), and
//! * [`crate::ReferenceGraph`] — the straightforward `Vec<Vec<…>>`
//!   adjacency the CSR layout replaced, kept as an executable
//!   specification of neighbor iteration order.
//!
//! Running the *same* monomorphized algorithm code over both is what lets
//! the equivalence tests and the layout benchmarks compare the layouts
//! honestly: any divergence is the data structure's fault, never the
//! algorithm's.

use pcn_types::{NodeId, Result};

use crate::EdgeRef;

/// A node/channel topology searchable by this crate's algorithms.
///
/// The contract mirrors [`crate::Graph`]'s semantics exactly:
///
/// * node ids are dense `0..node_count()`;
/// * [`Topology::out_edges`] yields the directed edges leaving a node in
///   a deterministic order — channels in insertion order, with a closed
///   channel's entry removed in place (order of the survivors preserved)
///   and a reopened channel appended at the end;
/// * [`Topology::directed_edges`] yields both directions of every *open*
///   channel, ascending by channel id;
/// * [`Topology::endpoints`] answers for closed channels too (the dense
///   id space outlives closure);
/// * [`Topology::degree`] is the number of arcs `out_edges` yields.
pub trait Topology {
    /// Number of nodes (ids are dense `0..node_count()`).
    fn node_count(&self) -> usize;

    /// Directed edges leaving `node`, in deterministic adjacency order.
    /// Out-of-range nodes yield an empty iterator.
    fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_;

    /// Both directed views of every open channel, ascending channel id.
    fn directed_edges(&self) -> impl Iterator<Item = EdgeRef> + '_;

    /// Endpoints of channel `id` in insertion order (open or closed).
    ///
    /// # Errors
    ///
    /// `PcnError::UnknownChannel` if the channel does not exist.
    fn endpoints(&self, id: pcn_types::ChannelId) -> Result<(NodeId, NodeId)>;

    /// Open degree of `node` (0 when out of range).
    ///
    /// The widest-path search ([`crate::widest_path_in`]) reads it to
    /// skip dead ends: a node of degree 1 that is not the target can only
    /// lead back the way the search came, so no arc into it is priced.
    /// A degree changes only when a channel opens or closes, which moves
    /// [`crate::Graph::topology_epoch`], so a result cached under an
    /// unchanged epoch saw the same degrees.
    fn degree(&self, node: NodeId) -> usize;
}
