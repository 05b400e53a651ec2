//! Breadth-first search utilities: hop counts and connectivity.

use std::collections::VecDeque;

use pcn_types::NodeId;

use crate::Topology;

/// Hop distance (unweighted shortest path length) from `from` to every node.
///
/// Unreachable nodes get `u32::MAX`. The placement cost model uses these hop
/// counts for ζ, δ and ε (§V-A sets them proportional to `hops`).
///
/// The traversal is level-synchronous: each frontier is materialized in
/// ascending node-id order from a discovery bitmap before it is expanded.
/// Hop counts are level distances, so the result is identical to a queue
/// BFS — but expanding a sorted frontier walks the adjacency rows in
/// ascending address order, which a CSR layout turns into near-sequential
/// streaming instead of one random fetch per visited node.
///
/// # Examples
///
/// ```
/// use pcn_graph::{bfs_hops, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// let hops = bfs_hops(&g, NodeId::new(0));
/// assert_eq!(hops, vec![0, 1, 2]);
/// ```
pub fn bfs_hops<G: Topology>(g: &G, from: NodeId) -> Vec<u32> {
    let n = g.node_count();
    let mut hops = vec![u32::MAX; n];
    if from.index() >= n {
        return hops;
    }
    hops[from.index()] = 0;
    let mut frontier = vec![from];
    let mut discovered = vec![0u64; n.div_ceil(64)];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        for &u in &frontier {
            for e in g.out_edges(u) {
                let v = e.to.index();
                if hops[v] == u32::MAX {
                    hops[v] = depth;
                    discovered[v / 64] |= 1 << (v % 64);
                }
            }
        }
        frontier.clear();
        drain_marked(&mut discovered, &mut frontier);
    }
    hops
}

/// Appends the nodes marked in the bitmap `marks` to `frontier` in
/// ascending id and clears their marks.
pub(crate) fn drain_marked(marks: &mut [u64], frontier: &mut Vec<NodeId>) {
    for (word, bits) in marks.iter_mut().enumerate() {
        let mut b = std::mem::take(bits);
        while b != 0 {
            let lane = b.trailing_zeros() as usize;
            frontier.push(NodeId::from_index(word * 64 + lane));
            b &= b - 1;
        }
    }
}

/// Partitions the nodes into connected components.
///
/// Returns a component label per node (labels are dense, starting at 0) and
/// the number of components.
pub fn connected_components<G: Topology>(g: &G) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut count = 0;
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        label[start] = count;
        queue.push_back(NodeId::from_index(start));
        while let Some(u) = queue.pop_front() {
            for e in g.out_edges(u) {
                let v = e.to;
                if label[v.index()] == usize::MAX {
                    label[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// Whether the graph is connected (vacuously true for ≤ 1 node).
pub fn is_connected<G: Topology>(g: &G) -> bool {
    g.node_count() <= 1 || connected_components(g).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn hops_on_a_cycle() {
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % 5));
        }
        let hops = bfs_hops(&g, n(0));
        assert_eq!(hops, vec![0, 1, 2, 2, 1]);
    }

    #[test]
    fn unreachable_is_max() {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(3));
        let hops = bfs_hops(&g, n(0));
        assert_eq!(hops[1], 1);
        assert_eq!(hops[2], u32::MAX);
        assert_eq!(hops[3], u32::MAX);
    }

    #[test]
    fn out_of_range_source() {
        let g = Graph::new(2);
        let hops = bfs_hops(&g, n(9));
        assert!(hops.iter().all(|&h| h == u32::MAX));
    }

    #[test]
    fn components() {
        let mut g = Graph::new(5);
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(3));
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_graph() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        assert!(is_connected(&g));
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
    }
}
