//! `Vec<Vec<…>>` reference adjacency — the executable specification the
//! CSR [`Graph`] is pinned against.
//!
//! This is the layout the CSR core replaced: one heap-allocated neighbour
//! list per node, closures removing entries in place (`retain`), reopens
//! appending at the end. It is *not* used by the production engine; it
//! exists so that
//!
//! * the equivalence proptests can replay a random mutation sequence on
//!   both layouts and demand bit-identical iteration order and search
//!   results, and
//! * the layout benchmarks can run the *same* monomorphized search code
//!   over both adjacencies in the same build, making the CSR speedup
//!   claim an apples-to-apples measurement.
//!
//! [`Graph`]: crate::Graph

use pcn_types::{ChannelId, NodeId, PcnError, Result};

use crate::{EdgeRef, Topology};

/// The pre-CSR adjacency layout: per-node `Vec`s of `(channel, neighbour)`
/// pairs. Mirrors [`crate::Graph`]'s mutation semantics exactly — add,
/// close (remove in place), reopen (append) — so the two stay comparable
/// under any event sequence. Implements [`Topology`], so every search in
/// this crate runs on it unchanged.
#[derive(Clone, Debug, Default)]
pub struct ReferenceGraph {
    edges: Vec<(NodeId, NodeId, bool)>,
    adj: Vec<Vec<(u32, NodeId)>>,
}

impl ReferenceGraph {
    /// Creates a reference graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        ReferenceGraph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected channels (including closed tombstones).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        NodeId::from_index(self.adj.len() - 1)
    }

    /// Adds an undirected channel between `a` and `b` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> ChannelId {
        assert!(a.index() < self.adj.len(), "node {a} out of range");
        assert!(b.index() < self.adj.len(), "node {b} out of range");
        assert_ne!(a, b, "self-loop channels are not allowed");
        let id = u32::try_from(self.edges.len()).expect("too many edges");
        self.edges.push((a, b, false));
        self.adj[a.index()].push((id, b));
        self.adj[b.index()].push((id, a));
        ChannelId::new(id)
    }

    /// Closes channel `id`, removing its adjacency entries in place
    /// (surviving order untouched).
    ///
    /// # Errors
    ///
    /// [`PcnError::UnknownChannel`] for a bad id or an already-closed
    /// channel.
    pub fn close_channel(&mut self, id: ChannelId) -> Result<()> {
        let edge = self
            .edges
            .get_mut(id.index())
            .filter(|e| !e.2)
            .ok_or(PcnError::UnknownChannel(id))?;
        edge.2 = true;
        let (a, b) = (edge.0, edge.1);
        let raw = id.raw();
        self.adj[a.index()].retain(|&(ch, _)| ch != raw);
        self.adj[b.index()].retain(|&(ch, _)| ch != raw);
        Ok(())
    }

    /// Reopens a closed channel, appending its adjacency entries.
    ///
    /// # Errors
    ///
    /// [`PcnError::UnknownChannel`] for a bad id or a channel that is
    /// not closed.
    pub fn reopen_channel(&mut self, id: ChannelId) -> Result<()> {
        let edge = self
            .edges
            .get_mut(id.index())
            .filter(|e| e.2)
            .ok_or(PcnError::UnknownChannel(id))?;
        edge.2 = false;
        let (a, b) = (edge.0, edge.1);
        self.adj[a.index()].push((id.raw(), b));
        self.adj[b.index()].push((id.raw(), a));
        Ok(())
    }

    /// Degree of `node` (open incident channels).
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj.get(node.index()).map_or(0, Vec::len)
    }

    /// Iterates over the directed edges leaving `node`, insertion order.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.adj
            .get(node.index())
            .into_iter()
            .flatten()
            .map(move |&(id, nb)| EdgeRef {
                id: ChannelId::new(id),
                from: node,
                to: nb,
            })
    }
}

impl Topology for ReferenceGraph {
    fn node_count(&self) -> usize {
        ReferenceGraph::node_count(self)
    }

    fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        ReferenceGraph::out_edges(self, node)
    }

    fn directed_edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.2)
            .flat_map(|(i, e)| {
                let id = ChannelId::from_index(i);
                [
                    EdgeRef {
                        id,
                        from: e.0,
                        to: e.1,
                    },
                    EdgeRef {
                        id,
                        from: e.1,
                        to: e.0,
                    },
                ]
            })
    }

    fn endpoints(&self, id: ChannelId) -> Result<(NodeId, NodeId)> {
        self.edges
            .get(id.index())
            .map(|e| (e.0, e.1))
            .ok_or(PcnError::UnknownChannel(id))
    }

    fn degree(&self, node: NodeId) -> usize {
        ReferenceGraph::degree(self, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shortest_path, Graph};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn mirrors_graph_semantics() {
        let mut g = Graph::new(4);
        let mut r = ReferenceGraph::new(4);
        for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3), (0, 1)] {
            assert_eq!(g.add_edge(n(a), n(b)), r.add_edge(n(a), n(b)));
        }
        g.close_channel(ChannelId::new(0)).unwrap();
        r.close_channel(ChannelId::new(0)).unwrap();
        g.reopen_channel(ChannelId::new(0)).unwrap();
        r.reopen_channel(ChannelId::new(0)).unwrap();
        for v in 0..4 {
            let gv: Vec<EdgeRef> = g.out_edges(n(v)).collect();
            let rv: Vec<EdgeRef> = r.out_edges(n(v)).collect();
            assert_eq!(gv, rv, "node {v} iteration order");
            assert_eq!(g.degree(n(v)), r.degree(n(v)));
        }
        let got = shortest_path(&r, n(0), n(3), |_| Some(1.0)).unwrap();
        let want = g.shortest_path(n(0), n(3), |_| Some(1.0)).unwrap();
        assert_eq!(got.0, want.0);
        assert_eq!(got.1.nodes(), want.1.nodes());
        assert_eq!(got.1.channels(), want.1.channels());
    }

    #[test]
    fn close_reopen_errors_match_graph() {
        let mut r = ReferenceGraph::new(2);
        let c = r.add_edge(n(0), n(1));
        assert!(r.reopen_channel(c).is_err());
        r.close_channel(c).unwrap();
        assert!(r.close_channel(c).is_err());
        assert!(r.close_channel(ChannelId::new(9)).is_err());
        r.reopen_channel(c).unwrap();
        assert_eq!(r.degree(n(0)), 1);
    }
}
