//! Topology generators.
//!
//! The paper generates channel graphs "by ROLL [26] based on the
//! Watts–Strogatz small-world model" (§V-A). ROLL itself is a fast
//! generation technique; the distribution is what matters, so we implement
//! Watts–Strogatz directly, plus the star shape of Fig. 2 and the ring and
//! complete graphs the tests use.
//!
//! All generators take a caller-provided RNG so experiments are
//! reproducible from a single seed, and all guarantee a connected result
//! (stated per generator).

use rand::Rng;

use pcn_types::NodeId;

use crate::{bfs::connected_components, Graph};

/// Watts–Strogatz small-world graph WS(n, k, β).
///
/// Starts from a ring lattice where each node connects to its `k` nearest
/// neighbours (`k` even, `k < n`), then rewires each edge's far endpoint
/// with probability `beta` to a uniform random node (avoiding self-loops
/// and duplicate channels). Afterwards any disconnected component is
/// patched into the main component with one extra channel, so the result is
/// always connected.
///
/// # Panics
///
/// Panics if `k` is odd, `k >= n`, `n < 2`, or `beta` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use pcn_graph::watts_strogatz;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = watts_strogatz(100, 4, 0.3, &mut rng);
/// assert_eq!(g.node_count(), 100);
/// assert!(pcn_graph::is_connected(&g));
/// ```
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(n >= 2, "need at least two nodes");
    assert!(k.is_multiple_of(2), "k must be even");
    assert!(k < n, "k must be below n");
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    // Ring lattice edges as (a, b) pairs; rewire while collecting, then
    // build the CSR arrays in one O(V + E) pass — channel ids follow
    // list order, so the topology is bit-identical to incremental adds.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * k / 2);
    let mut exists = std::collections::HashSet::new();
    for i in 0..n {
        for j in 1..=(k / 2) {
            let a = i;
            let mut b = (i + j) % n;
            if rng.random_bool(beta) {
                // Rewire the far endpoint.
                let mut tries = 0;
                loop {
                    let cand = rng.random_range(0..n);
                    let (lo, hi) = (a.min(cand), a.max(cand));
                    if cand != a && !exists.contains(&(lo, hi)) {
                        b = cand;
                        break;
                    }
                    tries += 1;
                    if tries > 4 * n {
                        break; // saturated; keep the lattice edge
                    }
                }
            }
            let (lo, hi) = (a.min(b), a.max(b));
            if lo != hi && exists.insert((lo, hi)) {
                pairs.push((NodeId::from_index(lo), NodeId::from_index(hi)));
            }
        }
    }
    let mut g = Graph::from_edges(n, &pairs);
    connect(&mut g, rng);
    g
}

/// Star graph: node 0 is the hub, all others are leaves (Fig. 2a, the
/// topology of single-PCH schemes such as TumbleBit/A2L).
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs a hub and at least one leaf");
    let pairs: Vec<(NodeId, NodeId)> = (1..n)
        .map(|leaf| (NodeId::new(0), NodeId::from_index(leaf)))
        .collect();
    Graph::from_edges(n, &pairs)
}

/// Ring (cycle) over `n ≥ 3` nodes.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least three nodes");
    let pairs: Vec<(NodeId, NodeId)> = (0..n)
        .map(|i| (NodeId::from_index(i), NodeId::from_index((i + 1) % n)))
        .collect();
    Graph::from_edges(n, &pairs)
}

/// Complete graph over `n` nodes.
pub fn complete(n: usize) -> Graph {
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            pairs.push((NodeId::from_index(a), NodeId::from_index(b)));
        }
    }
    Graph::from_edges(n, &pairs)
}

/// Patches a possibly-disconnected graph by wiring each secondary component
/// to a random node of the main component.
#[allow(clippy::needless_range_loop)] // i is a node id, not just an index
fn connect<R: Rng + ?Sized>(g: &mut Graph, rng: &mut R) {
    if g.node_count() < 2 {
        return;
    }
    let (labels, count) = connected_components(g);
    if count <= 1 {
        return;
    }
    // Pick a representative of component 0's largest member as anchor pool.
    let main_label = labels[0];
    let main: Vec<usize> = (0..g.node_count())
        .filter(|&i| labels[i] == main_label)
        .collect();
    let mut done = std::collections::HashSet::new();
    done.insert(main_label);
    for i in 0..g.node_count() {
        if done.insert(labels[i]) {
            let anchor = main[rng.random_range(0..main.len())];
            g.add_edge(NodeId::from_index(i), NodeId::from_index(anchor));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs_hops, is_connected};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ws_basic_shape() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = watts_strogatz(100, 6, 0.2, &mut rng);
        assert_eq!(g.node_count(), 100);
        assert!(is_connected(&g));
        // Ring lattice has n*k/2 edges; rewiring preserves the count, the
        // connectivity patch may add a few.
        assert!(
            g.edge_count() >= 295 && g.edge_count() <= 310,
            "{}",
            g.edge_count()
        );
        let mean_degree = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!((mean_degree - 6.0).abs() < 0.5, "{mean_degree}");
    }

    #[test]
    fn ws_small_world_properties() {
        // Small world: high clustering, short paths.
        let g = watts_strogatz(200, 8, 0.1, &mut StdRng::seed_from_u64(12));
        // Mean local clustering over nodes with two or more neighbours.
        let (mut total, mut counted) = (0.0, 0);
        for v in g.nodes() {
            let mut nbrs: Vec<NodeId> = g.neighbors(v).collect();
            nbrs.sort();
            nbrs.dedup();
            if nbrs.len() < 2 {
                continue;
            }
            let mut links = 0;
            for (i, &a) in nbrs.iter().enumerate() {
                links += nbrs[i + 1..]
                    .iter()
                    .filter(|&&b| g.has_edge_between(a, b))
                    .count();
            }
            total += links as f64 / (nbrs.len() * (nbrs.len() - 1) / 2) as f64;
            counted += 1;
        }
        let clustering = total / counted as f64;
        assert!(clustering > 0.2, "clustering {clustering}");
        let hops = bfs_hops(&g, NodeId::new(0));
        assert!(hops.iter().all(|&h| h != u32::MAX), "connected");
        let mean_hops = hops.iter().map(|&h| f64::from(h)).sum::<f64>() / (hops.len() - 1) as f64;
        assert!(mean_hops < 6.0, "mean hops from node 0: {mean_hops}");
    }

    #[test]
    fn ws_beta_zero_is_lattice() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = watts_strogatz(10, 4, 0.0, &mut rng);
        // Every node has exactly degree 4.
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert_eq!(g.edge_count(), 20);
    }

    #[test]
    fn ws_deterministic_per_seed() {
        let g1 = watts_strogatz(50, 4, 0.5, &mut StdRng::seed_from_u64(9));
        let g2 = watts_strogatz(50, 4, 0.5, &mut StdRng::seed_from_u64(9));
        assert_eq!(g1.edge_count(), g2.edge_count());
        let e1: Vec<_> = g1.edges().map(|c| g1.endpoints(c).unwrap()).collect();
        let e2: Vec<_> = g2.edges().map(|c| g2.endpoints(c).unwrap()).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn ws_odd_k_panics() {
        watts_strogatz(10, 3, 0.1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn star_shape() {
        let g = star(10);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.degree(NodeId::new(0)), 9);
        for i in 1..10 {
            assert_eq!(g.degree(NodeId::from_index(i)), 1);
        }
    }

    #[test]
    fn ring_and_complete() {
        let r = ring(5);
        assert_eq!(r.edge_count(), 5);
        assert!(is_connected(&r));
        let c = complete(5);
        assert_eq!(c.edge_count(), 10);
        for v in c.nodes() {
            assert_eq!(c.degree(v), 4);
        }
    }
}
