//! Channel dependency footprints for search computations.
//!
//! A path search reads the graph structure plus, through its cost/width
//! closure, the state of some subset of channels. That subset — the
//! *footprint* — is exactly what the computation's result can depend on
//! beyond topology: the searches in this crate only consult edge state
//! through their closure, and every edge whose state could have altered
//! the outcome is consulted. In the plain searches an edge that was
//! never queried either hangs off a node the search never reached, or
//! leads into a node of degree 1 that is not the target: the widest-path
//! search skips such a dead end by topology alone, before its closure
//! runs, and no state of the dead end's one channel could make the node
//! interior to a path (the argument is in [`crate::widest_path`]'s
//! docs). Which nodes are reached is decided by queried edges, and which
//! nodes are dead ends by the topology. The goal-directed BFS carries
//! its own argument in the `accel` module docs. A caller that wraps its
//! closure in
//! [`Footprint::record`] therefore obtains a sound invalidation scope:
//! as long as the topology and every footprint channel are unchanged,
//! rerunning the search returns a bit-identical result.
//!
//! The routing layer's epoch-versioned path cache uses this to keep
//! live-balance plan entries fresh across funds movements on *unrelated*
//! channels, instead of invalidating on any movement anywhere.

use pcn_types::ChannelId;

/// A set of channels a computation read, recorded during the search.
///
/// Recording is O(1) and idempotent per channel (a dense mark table
/// backs the insertion-ordered list), so it is cheap enough to wrap the
/// innermost cost closure of a Dijkstra. Reuse one `Footprint` across
/// searches via [`Footprint::clear`] to stay allocation-free when warm.
///
/// # Examples
///
/// ```
/// use pcn_graph::{Footprint, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// let mut fp = Footprint::new();
/// let (_, path) = g
///     .shortest_path(NodeId::new(0), NodeId::new(2), |e| {
///         fp.record(e.id);
///         Some(1.0)
///     })
///     .expect("connected");
/// assert_eq!(path.hops(), 2);
/// assert_eq!(fp.channels().len(), 2, "both channels were consulted");
/// ```
#[derive(Debug, Default)]
pub struct Footprint {
    /// Recorded channels in first-touch order.
    seen: Vec<ChannelId>,
    /// Dense membership marks, indexed by channel id.
    marks: Vec<bool>,
}

impl Footprint {
    /// Creates an empty footprint.
    pub fn new() -> Footprint {
        Footprint::default()
    }

    /// Empties the footprint, keeping its buffers for reuse.
    pub fn clear(&mut self) {
        for &ch in &self.seen {
            self.marks[ch.index()] = false;
        }
        self.seen.clear();
    }

    /// Records that the computation consulted `channel`. Idempotent.
    pub fn record(&mut self, channel: ChannelId) {
        let i = channel.index();
        if i >= self.marks.len() {
            self.marks.resize(i + 1, false);
        }
        if !self.marks[i] {
            self.marks[i] = true;
            self.seen.push(channel);
        }
    }

    /// The recorded channels, in first-touch order (deterministic: search
    /// order is deterministic).
    pub fn channels(&self) -> &[ChannelId] {
        &self.seen
    }

    /// Number of distinct channels recorded.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Whether `channel` was recorded.
    pub fn contains(&self, channel: ChannelId) -> bool {
        self.marks.get(channel.index()).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(i: u32) -> ChannelId {
        ChannelId::new(i)
    }

    #[test]
    fn records_each_channel_once_in_touch_order() {
        let mut fp = Footprint::new();
        fp.record(ch(5));
        fp.record(ch(2));
        fp.record(ch(5));
        fp.record(ch(2));
        fp.record(ch(9));
        assert_eq!(fp.channels(), &[ch(5), ch(2), ch(9)]);
        assert_eq!(fp.len(), 3);
        assert!(fp.contains(ch(2)));
        assert!(!fp.contains(ch(3)));
        assert!(!fp.contains(ch(1000)));
    }

    #[test]
    fn clear_resets_and_buffers_survive() {
        let mut fp = Footprint::new();
        fp.record(ch(7));
        fp.record(ch(1));
        fp.clear();
        assert!(fp.is_empty());
        assert!(!fp.contains(ch(7)));
        fp.record(ch(7));
        assert_eq!(fp.channels(), &[ch(7)]);
    }

    #[test]
    fn search_footprint_covers_consulted_edges_only() {
        use pcn_types::NodeId;
        // 0-1-2 line plus an unreachable island 3-4: the island's channel
        // can never enter a 0→2 search footprint.
        let mut g = crate::Graph::new(5);
        let a = g.add_edge(NodeId::new(0), NodeId::new(1));
        let b = g.add_edge(NodeId::new(1), NodeId::new(2));
        let island = g.add_edge(NodeId::new(3), NodeId::new(4));
        let mut fp = Footprint::new();
        let got = g.shortest_path(NodeId::new(0), NodeId::new(2), |e| {
            fp.record(e.id);
            Some(1.0)
        });
        assert!(got.is_some());
        assert!(fp.contains(a) && fp.contains(b));
        assert!(!fp.contains(island), "unreached edges are never consulted");
    }
}
