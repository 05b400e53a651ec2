//! Widest (maximum-bottleneck) paths.
//!
//! Table II shows EDW (edge-disjoint *widest* paths) is Splicer's best path
//! type: with heavy-tailed channel sizes, maximizing the bottleneck funds on
//! a path utilizes network capacity best. The widest path maximizes
//! `min(width(e) for e in path)` and is computed with a Dijkstra variant
//! (max-heap over bottleneck widths).
//!
//! The search skips dead ends by topology alone: an arc into a node of
//! open degree 1 that is not the target is never priced. In a
//! multi-star, where every client has one channel to its hub, a
//! hub-to-hub search then walks only the hub backbone instead of pricing
//! and pushing every spoke of every hub it expands. [`widest_path`]
//! gives the argument that the paths do not change.

use std::collections::BinaryHeap;

use pcn_types::{ChannelId, NodeId};

use crate::{EdgeRef, Path, SearchWorkspace, Topology};

/// Reusable widest-path state: `(bottleneck, hops)` labels, parent
/// forest and the max-heap of [`pack`]ed keys.
#[derive(Debug, Default)]
pub(crate) struct WidestScratch {
    best: Vec<(f64, u32)>,
    parent: Vec<Option<(NodeId, ChannelId)>>,
    heap: BinaryHeap<u128>,
}

/// Packs a heap entry into one integer key: width bits, then
/// `u32::MAX − hops`, then the node id, from high bits to low. For
/// widths that are positive and not NaN (`+∞` and subnormals included)
/// the IEEE bit pattern orders like the value, so the key orders exactly
/// like the tuple `(width, Reverse(hops), node)`: wider first, then fewer
/// hops, then the larger node id.
#[inline]
fn pack(width: f64, hops: u32, node: NodeId) -> u128 {
    debug_assert!(width > 0.0, "heap widths are positive and not NaN");
    (u128::from(width.to_bits()) << 64)
        | (u128::from(u32::MAX - hops) << 32)
        | u128::from(node.raw())
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u128) -> (f64, u32, NodeId) {
    (
        f64::from_bits((key >> 64) as u64),
        u32::MAX - (key >> 32) as u32,
        NodeId::new(key as u32),
    )
}

/// Maximum-bottleneck path from `from` to `to`.
///
/// `width` returns the usable width of a directed edge (`None`/non-positive
/// = unusable). Ties between equally wide paths are broken towards fewer
/// hops. Returns `(bottleneck, path)` or `None` when unreachable.
///
/// Arcs into a node `x` other than `to` whose [`Topology::degree`] is 1
/// are skipped before `width` is called, which changes no result. If
/// `x` is `from`, no offer improves its label `(∞, 0)`. Otherwise `x`
/// can only be reached over its one channel, from the node `u` being
/// expanded, so `x` is interior to no path. Were `x` labelled and
/// popped, its only arc would lead back to `u`, which has already popped
/// with its final label `(W(u), H(u))`. The offer `x` makes is
/// `(min(W(x), c), H(u) + 2)` with `W(x) ≤ W(u)`: never wider and always
/// longer, so it changes no label. Every other node keeps its
/// `(W, H, parent)` and its place in the pop order. As `width` is not
/// called on an arc into such a dead end, a [`Footprint`] recorded
/// through it need not hold the dead end's channel; the `footprint`
/// module docs say why the smaller set is still sufficient.
///
/// [`Footprint`]: crate::Footprint
///
/// # Examples
///
/// ```
/// use pcn_graph::{widest_path, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(3);
/// let thin = g.add_edge(NodeId::new(0), NodeId::new(2));
/// let a = g.add_edge(NodeId::new(0), NodeId::new(1));
/// let b = g.add_edge(NodeId::new(1), NodeId::new(2));
/// let widths = move |e: pcn_graph::EdgeRef| {
///     Some(if e.id == thin { 1.0 } else { 10.0 })
/// };
/// let (w, path) = widest_path(&g, NodeId::new(0), NodeId::new(2), widths).unwrap();
/// assert_eq!(w, 10.0);
/// assert_eq!(path.hops(), 2); // takes the wide two-hop route
/// # let _ = (a, b);
/// ```
pub fn widest_path<G, F>(g: &G, from: NodeId, to: NodeId, width: F) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    widest_path_scratch(g, &mut WidestScratch::default(), from, to, width)
}

/// [`widest_path`] running on the reusable buffers of a
/// [`SearchWorkspace`]: repeated calls are allocation-free (apart from
/// the returned [`Path`]) and bit-identical to the allocating form.
///
/// Like [`widest_path`], it never prices an arc into a degree-1 node
/// other than `to` (see there for why the paths stay the same).
pub fn widest_path_in<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    from: NodeId,
    to: NodeId,
    width: F,
) -> Option<(f64, Path)>
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<f64>,
{
    widest_path_scratch(g, &mut ws.widest, from, to, width)
}

fn widest_path_scratch<G, F>(
    g: &G,
    s: &mut WidestScratch,
    from: NodeId,
    to: NodeId,
    mut width: F,
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
        return Some((f64::INFINITY, Path::trivial(from)));
    }
    // best[v] = (bottleneck, hops) of the best known path; we maximize
    // bottleneck, minimize hops on ties.
    s.best.clear();
    s.best.resize(n, (0.0, u32::MAX));
    s.parent.clear();
    s.parent.resize(n, None);
    s.heap.clear();
    let best = &mut s.best;
    let parent = &mut s.parent;
    let heap = &mut s.heap;
    best[from.index()] = (f64::INFINITY, 0);
    heap.push(pack(f64::INFINITY, 0, from));
    while let Some(key) = heap.pop() {
        let (w, h, u) = unpack(key);
        let (bw, bh) = best[u.index()];
        if w < bw || (w == bw && h > bh) {
            continue; // stale
        }
        if u == to {
            break;
        }
        for e in g.out_edges(u) {
            // A dead end: its one channel leads back to `u`, whose label
            // is final, so it can improve no label (see `widest_path`).
            if e.to != to && g.degree(e.to) == 1 {
                continue;
            }
            let Some(ew) = width(e) else { continue };
            if !(ew.is_finite() && ew > 0.0) && ew != f64::INFINITY {
                continue;
            }
            let nw = w.min(ew);
            if nw <= 0.0 {
                continue;
            }
            let nh = h + 1;
            let (cw, ch) = best[e.to.index()];
            if nw > cw || (nw == cw && nh < ch) {
                best[e.to.index()] = (nw, nh);
                parent[e.to.index()] = Some((u, e.id));
                heap.push(pack(nw, nh, e.to));
            }
        }
    }
    let (bw, _) = best[to.index()];
    if bw <= 0.0 {
        return None;
    }
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
    Some((bw, Path::new(rev_nodes, rev_chans)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn prefers_wider_longer_path() {
        // direct 0-3 width 2; 0-1-2-3 each width 9.
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(3)); // ch0
        g.add_edge(n(0), n(1)); // ch1
        g.add_edge(n(1), n(2)); // ch2
        g.add_edge(n(2), n(3)); // ch3
        let w = [2.0, 9.0, 9.0, 9.0];
        let (bw, path) = widest_path(&g, n(0), n(3), |e| Some(w[e.id.index()])).unwrap();
        assert_eq!(bw, 9.0);
        assert_eq!(path.hops(), 3);
    }

    #[test]
    fn tie_break_prefers_fewer_hops() {
        // Two equally wide routes; direct should win.
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(2)); // ch0 width 5
        g.add_edge(n(0), n(1)); // ch1 width 5
        g.add_edge(n(1), n(2)); // ch2 width 5
        let (bw, path) = widest_path(&g, n(0), n(2), |_| Some(5.0)).unwrap();
        assert_eq!(bw, 5.0);
        assert_eq!(path.hops(), 1);
    }

    #[test]
    fn directional_widths() {
        let mut g = Graph::new(2);
        g.add_edge(n(0), n(1));
        let w = |e: EdgeRef| (e.from == n(0)).then_some(4.0);
        assert!(widest_path(&g, n(0), n(1), w).is_some());
        assert!(widest_path(&g, n(1), n(0), w).is_none());
    }

    #[test]
    fn unreachable_and_degenerate() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        assert!(widest_path(&g, n(0), n(2), |_| Some(1.0)).is_none());
        assert!(widest_path(&g, n(0), n(7), |_| Some(1.0)).is_none());
        let (w, p) = widest_path(&g, n(0), n(0), |_| Some(1.0)).unwrap();
        assert_eq!(w, f64::INFINITY);
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn zero_width_edges_unusable() {
        let mut g = Graph::new(2);
        g.add_edge(n(0), n(1));
        assert!(widest_path(&g, n(0), n(1), |_| Some(0.0)).is_none());
        assert!(widest_path(&g, n(0), n(1), |_| Some(-3.0)).is_none());
        assert!(widest_path(&g, n(0), n(1), |_| None).is_none());
    }

    #[test]
    fn workspace_variant_matches_allocating_form() {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(3));
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        let w = [2.0, 9.0, 9.0, 9.0];
        let mut ws = SearchWorkspace::new();
        for _ in 0..4 {
            let fresh = widest_path(&g, n(0), n(3), |e| Some(w[e.id.index()]));
            let reused = widest_path_in(&g, &mut ws, n(0), n(3), |e| Some(w[e.id.index()]));
            assert_eq!(fresh, reused);
        }
    }

    /// The packed heap key must order exactly like the tuple the heap
    /// used to hold, `(Cost(width), Reverse(hops), node)`, and decode to
    /// what was packed. Widths cover every class the search pushes:
    /// positive normals, subnormals and `+∞`, plus a small set that
    /// forces ties so the hop and node fields decide.
    #[test]
    fn packed_key_orders_like_the_tuple() {
        use crate::cost::Cost;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        let mut rng = StdRng::seed_from_u64(23);
        let entry = |rng: &mut StdRng| {
            let width = match rng.random_range(0..4u32) {
                0 => loop {
                    let w = f64::from_bits(rng.random::<u64>() >> 1);
                    if w.is_finite() && w > 0.0 {
                        break w;
                    }
                },
                1 => f64::from_bits(rng.random_range(1..(1u64 << 52))),
                2 => f64::INFINITY,
                _ => [f64::MIN_POSITIVE, 0.5, 1.0, 7.0][rng.random_range(0..4usize)],
            };
            let hops = if rng.random_bool(0.5) {
                rng.random_range(0..4u32)
            } else {
                rng.random::<u32>()
            };
            let node = if rng.random_bool(0.5) {
                rng.random_range(0..4u32)
            } else {
                rng.random::<u32>()
            };
            (width, hops, NodeId::new(node))
        };
        for _ in 0..20_000 {
            let a = entry(&mut rng);
            let b = entry(&mut rng);
            for (w, h, v) in [a, b] {
                let (w2, h2, v2) = unpack(pack(w, h, v));
                assert_eq!((w.to_bits(), h, v), (w2.to_bits(), h2, v2));
            }
            let tuple = |(w, h, v): (f64, u32, NodeId)| (Cost(w), Reverse(h), v);
            assert_eq!(
                pack(a.0, a.1, a.2).cmp(&pack(b.0, b.1, b.2)),
                tuple(a).cmp(&tuple(b)),
                "{a:?} vs {b:?}"
            );
        }
    }

    /// The search without its dead-end skip: `degree` reports every
    /// node as a hub, never 1, so no arc is skipped.
    struct Unpruned<'g>(&'g Graph);

    impl Topology for Unpruned<'_> {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }

        fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
            self.0.edges_of(node)
        }

        fn directed_edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
            self.0.directed_edges()
        }

        fn endpoints(&self, id: ChannelId) -> pcn_types::Result<(NodeId, NodeId)> {
            self.0.endpoints(id)
        }

        fn degree(&self, _: NodeId) -> usize {
            usize::MAX
        }
    }

    /// A random star or multi-star: 1–4 hubs on a random backbone, each
    /// with 0–4 single-channel clients, plus random extra channels (some
    /// clients get a second hub), parallel spokes, and channels closed
    /// and some reopened. Roles land on shuffled ids. Returns the graph
    /// and a random width per channel direction, `[a → b, b → a]` for
    /// endpoints `(a, b)`, with ties and a rare zero.
    fn random_multi_star(rng: &mut rand::rngs::StdRng) -> (Graph, Vec<[f64; 2]>) {
        use rand::Rng;
        let hubs = rng.random_range(1..5usize);
        let clients: Vec<usize> = (0..hubs).map(|_| rng.random_range(0..5usize)).collect();
        let nn = hubs + clients.iter().sum::<usize>();
        let mut ids: Vec<NodeId> = (0..nn).map(NodeId::from_index).collect();
        for i in (1..nn).rev() {
            ids.swap(i, rng.random_range(0..=i));
        }
        let mut g = Graph::new(nn);
        for a in 0..hubs {
            for b in (a + 1)..hubs {
                if rng.random_bool(0.6) {
                    g.add_edge(ids[a], ids[b]);
                }
            }
        }
        let mut next = hubs;
        for (hub, &count) in clients.iter().enumerate() {
            for _ in 0..count {
                g.add_edge(ids[hub], ids[next]);
                if rng.random_bool(0.1) {
                    g.add_edge(ids[next], ids[hub]);
                }
                next += 1;
            }
        }
        if nn > 1 {
            for _ in 0..rng.random_range(0..=nn / 3) {
                let a = rng.random_range(0..nn);
                let b = (a + rng.random_range(1..nn)) % nn;
                g.add_edge(ids[a], ids[b]);
            }
        }
        let m = g.edge_count();
        let mut closed = Vec::new();
        for _ in 0..rng.random_range(0..=m / 4) {
            let c = ChannelId::from_index(rng.random_range(0..m));
            if g.close_channel(c).is_ok() {
                closed.push(c);
            }
        }
        for c in closed {
            if rng.random_bool(0.5) {
                g.reopen_channel(c).expect("closed above");
            }
        }
        let widths = (0..m)
            .map(|_| [random_width(rng), random_width(rng)])
            .collect();
        (g, widths)
    }

    fn random_width(rng: &mut rand::rngs::StdRng) -> f64 {
        use rand::Rng;
        if rng.random_bool(0.05) {
            0.0
        } else {
            f64::from(rng.random_range(1..5u32))
        }
    }

    /// The dead-end skip changes no path, only shrinks the footprint,
    /// and the smaller footprint is still sufficient. On every ordered
    /// pair of random stars and multi-stars (leaf sources and targets
    /// included), for k = 1 and 5: the search equals the unpruned one,
    /// its footprint is a subset of the unpruned footprint, and
    /// redrawing the width of every channel outside its footprint
    /// leaves its answer unchanged.
    #[test]
    fn dead_end_skip_matches_unpruned_search_on_random_multi_stars() {
        use crate::{edge_disjoint_widest_paths_in, Footprint};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        let (mut ws, mut fp, mut fp_full) =
            (SearchWorkspace::new(), Footprint::new(), Footprint::new());
        let (mut reached, mut shrunk) = (0usize, 0usize);
        for world in 0..300 {
            let (g, widths) = random_multi_star(&mut rng);
            let tails: Vec<NodeId> = g
                .edges()
                .map(|id| g.endpoints(id).expect("dense ids").0)
                .collect();
            let width_of = |widths: &[[f64; 2]], e: EdgeRef| {
                let w = widths[e.id.index()][usize::from(e.from != tails[e.id.index()])];
                (w > 0.0).then_some(w)
            };
            let nn = g.node_count();
            for (from, to) in (0..nn).flat_map(|a| (0..nn).map(move |b| (a, b))) {
                let (from, to) = (NodeId::from_index(from), NodeId::from_index(to));
                for k in [1, 5] {
                    let at = format!("world {world} {from}->{to} k={k}");
                    fp.clear();
                    let got = edge_disjoint_widest_paths_in(&g, &mut ws, from, to, k, |e| {
                        fp.record(e.id);
                        width_of(&widths, e)
                    });
                    fp_full.clear();
                    let want =
                        edge_disjoint_widest_paths_in(&Unpruned(&g), &mut ws, from, to, k, |e| {
                            fp_full.record(e.id);
                            width_of(&widths, e)
                        });
                    assert_eq!(got, want, "{at}");
                    assert!(
                        fp.channels().iter().all(|&c| fp_full.contains(c)),
                        "{at}: pruned footprint {:?} ⊄ {:?}",
                        fp.channels(),
                        fp_full.channels()
                    );
                    reached += usize::from(!got.is_empty() && from != to);
                    shrunk += usize::from(fp.len() < fp_full.len());
                    let mut redrawn = widths.clone();
                    for (c, w) in redrawn.iter_mut().enumerate() {
                        if !fp.contains(ChannelId::from_index(c)) {
                            *w = [random_width(&mut rng), random_width(&mut rng)];
                        }
                    }
                    let again = edge_disjoint_widest_paths_in(&g, &mut ws, from, to, k, |e| {
                        width_of(&redrawn, e)
                    });
                    assert_eq!(again, got, "{at}: a move outside the footprint");
                }
            }
        }
        assert!(reached > 20_000, "too few reachable pairs: {reached}");
        assert!(
            shrunk > 20_000,
            "the skip rarely shrank a footprint: {shrunk}"
        );
    }

    #[test]
    fn matches_bruteforce_bottleneck() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let nn = rng.random_range(2..7usize);
            let mut g = Graph::new(nn);
            let mut widths = Vec::new();
            for a in 0..nn {
                for b in (a + 1)..nn {
                    if rng.random_bool(0.6) {
                        g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
                        widths.push(rng.random_range(1..20) as f64);
                    }
                }
            }
            let from = NodeId::new(0);
            let to = NodeId::from_index(nn - 1);
            let got = widest_path(&g, from, to, |e| Some(widths[e.id.index()])).map(|(w, _)| w);
            let want = brute_widest(&g, &widths, from, to);
            match (got, want) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(a, b),
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    fn brute_widest(g: &Graph, w: &[f64], from: NodeId, to: NodeId) -> Option<f64> {
        fn dfs(
            g: &Graph,
            w: &[f64],
            cur: NodeId,
            to: NodeId,
            visited: &mut Vec<bool>,
            bottleneck: f64,
            best: &mut Option<f64>,
        ) {
            if cur == to {
                *best = Some(best.map_or(bottleneck, |b: f64| b.max(bottleneck)));
                return;
            }
            for e in g.out_edges(cur) {
                if !visited[e.to.index()] {
                    visited[e.to.index()] = true;
                    dfs(
                        g,
                        w,
                        e.to,
                        to,
                        visited,
                        bottleneck.min(w[e.id.index()]),
                        best,
                    );
                    visited[e.to.index()] = false;
                }
            }
        }
        let mut visited = vec![false; g.node_count()];
        visited[from.index()] = true;
        let mut best = None;
        dfs(g, w, from, to, &mut visited, f64::INFINITY, &mut best);
        best
    }
}
