//! Edge-disjoint widest paths over static channel widths, without a heap.
//!
//! When every channel has one fixed width, the same in both directions
//! (a channel's total capacity, say), the order in which a widest-path
//! search meets channels is known before the search starts: widest
//! first. [`WidthOrder`] keeps the channels sorted by `(width desc,
//! id asc)` beside a dense width column and each node's channels in the
//! same order, and [`edge_disjoint_widest_paths_static_in`] walks that
//! order instead of popping nodes from a heap. It returns exactly the
//! paths of [`crate::edge_disjoint_widest_paths_in`] under the same
//! widths.
//!
//! # What the heap search computes
//!
//! The heap search ([`crate::widest_path_in`]) pops keys in the order
//! `(W desc, H asc, id desc)` and stops when the target pops. For every
//! node `v` popped before the target:
//!
//! * `W(v)` is the widest bottleneck from the source.
//! * `H(v) = 1 + min H(u)` over the *tight* predecessors `u`, those with
//!   `min(W(u), c(u, v)) = W(v)`, where `c` is the channel width.
//! * The parent of `v` is the tight predecessor at level `H(v) − 1` that
//!   pops first: largest `W(u)`, then largest id. Its channel is that
//!   predecessor's first arc to `v`, in adjacency order, that offers
//!   `W(v)`.
//!
//! Every tight predecessor of `v` outranks `v` in the pop order, so its
//! label is final when it relaxes `v`, and a node popped after `v` never
//! offers it a better label.
//!
//! The heap search skips every arc into a node of degree 1 other than
//! the target, so such a dead end, unless it is the source, is never
//! labelled there. Its one channel leads back to the node that reached
//! it, whose label is already final, so its offer changes no label: the
//! description above holds for every other node either way. The static
//! search does settle dead ends, but a dead end is interior to no path
//! and improves no label, so both searches return the same paths.
//!
//! # The static search
//!
//! The walk takes the channels one *group* of equal width `w` at a time,
//! widest group first, skipping closed and banned channels, and stops at
//! the first group narrower than `min_width`. When group `w` starts,
//! the settled nodes are exactly those with `W > w`, and every usable
//! channel wider than `w` with a settled endpoint has both endpoints
//! settled (its group settled them). So the nodes with `W(v) = w` are
//! the unsettled nodes that a path of channels of width `≥ w` joins to
//! the settled set, and their tight predecessors are of two kinds:
//!
//! * **Seeds.** A settled `u` (`W(u) > w`) whose width-`w` channel
//!   reaches `v`; only a width-`w` channel can link a settled node to a
//!   node whose width is `w`. Each group channel with exactly one
//!   settled endpoint `u` offers its other endpoint the label
//!   `(w, H(u) + 1)`; a node keeps its best offer: smaller `H`, then
//!   larger `W(u)`, then larger id — the heap's pop order among them.
//! * **Floods.** A node `u` of the same group (`W(u) = w`) with a
//!   channel of width `≥ w` to `v`.
//!
//! The flood settles the group level by level, in ascending `H`. Level
//! `h` is the seeds whose best offer is `h` plus the nodes the level
//! below discovered; it expands in descending node id over usable
//! channels of width `≥ w` into unsettled nodes. The first discovery
//! wins (the largest-id predecessor, which pops first among equal
//! `(W, H)`), and a seed offer beats a discovery at the same level (its
//! predecessor has `W(u) > w`, so it pops before any node of the group).
//! By induction on `h`, every node of level `≤ h` is settled with its
//! heap label and parent before level `h` expands. Every node settled in
//! group `w` gets `W = w`. The search stops when the target settles.
//!
//! A level node `u` meets its neighbours through its incidence list
//! ([`WidthOrder::incident`]): its channels widest first, so the walk
//! stops at the first channel narrower than `w` and never looks at the
//! rest; closed, banned and graph-unknown channels are skipped on the
//! way. The order in which one node meets its neighbours sets no label:
//!
//! * Within one level, every unsettled head `x` gets `(w, h + 1, u)`
//!   from the first qualifying channel of its first expander `u`.
//!   Neither the label nor the parent names the channel, and the
//!   expanders still come in descending id, so `x`'s label is the same
//!   whichever of `u`'s channels reaches it first. Which heads a node
//!   discovers, and in what order they join `next`, may change.
//! * `next` is re-sorted by id before it expands, so the order in which
//!   its nodes were discovered is forgotten.
//! * The early exit at the target can leave a different part of level
//!   `h + 1` settled. The only labels still in use after it are those on
//!   the target's parent chain, which rebuilds the path, and those were
//!   all set before level `h` began to expand.
//!
//! Only the rebuilt path needs channels, and `rebuild` still picks them
//! in adjacency order. A node `v` whose parent is `u` takes `u`'s first
//! usable arc to `v`, in adjacency order, whose width is `≥ W(v)`. For a
//! flood this is the heap's rule (`min(w, c) = w` iff `c ≥ w`). For a
//! seed, no usable arc from `u` to `v` is wider than `W(v)`: it would
//! have settled `v` in an earlier group. So `≥` picks the first arc of
//! width exactly `W(v)`, again the heap's rule; the walked channel,
//! first in id order, need not be it.
//!
//! Labels reset in O(1) with generation stamps, and the bans of the
//! greedy edge-disjoint loop are the workspace's ban mask, as in the heap
//! search. Endpoints come from the order (they are the graph's, by
//! construction) and the closed state from the graph; a channel the
//! graph does not know is unusable, and so is a graph channel the order
//! does not know, as under a width closure that returns `None` for it.

use pcn_types::{ChannelId, NodeId};

use crate::workspace::{BanMask, StampSet};
use crate::{Graph, Path, SearchWorkspace};

/// Channels sorted by `(width desc, id asc)`, with a dense width column
/// and a per-node incidence list.
///
/// Channel ids are dense: the `i`-th channel pushed (or passed to
/// [`WidthOrder::from_channels`]) is channel `i`. A width never changes
/// once its channel is in the order, so the order never goes stale;
/// closed channels stay in it and the search skips them.
///
/// [`WidthOrder::incident`] lists each node's channels as `(width,
/// channel, other end)` in the same order, widest first and ties by
/// ascending id, so the flood can stop at a node's first channel that is
/// too narrow. The lists share one flat array with a row-offset table:
/// 32 bytes per channel (a 16-byte entry at each end) and 4 bytes per
/// node, beside the 20 bytes per channel of the walk order and the width
/// column.
///
/// Widths must not be NaN. Channels of width `≤ 0` are kept in the
/// order but never used.
#[derive(Clone, Debug, Default)]
pub struct WidthOrder {
    /// `(channel, a, b)` in walk order: the endpoints ride with the id
    /// so the walk reads one sequential array.
    entries: Vec<(ChannelId, NodeId, NodeId)>,
    /// Width of each channel, by id.
    widths: Vec<f64>,
    /// Every node's `(width, channel, other end)` in walk order; node
    /// `v`'s are `incidence[offsets[v]..offsets[v + 1]]`.
    incidence: Vec<(f64, ChannelId, NodeId)>,
    /// Row starts into `incidence`, one per node up to the largest
    /// endpoint, then the end (empty in a default order).
    offsets: Vec<u32>,
}

impl WidthOrder {
    /// Builds the order for channels `0, 1, …` given as
    /// `(a, b, width)`.
    pub fn from_channels<I>(channels: I) -> WidthOrder
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
    {
        let mut order = WidthOrder::default();
        let mut nodes = 0;
        for (i, (a, b, width)) in channels.into_iter().enumerate() {
            debug_assert!(!width.is_nan(), "channel widths are not NaN");
            order.entries.push((ChannelId::from_index(i), a, b));
            order.widths.push(width);
            nodes = nodes.max(a.index().max(b.index()) + 1);
        }
        let widths = &order.widths;
        // Stable sort: equal widths keep ascending id order.
        order
            .entries
            .sort_by(|x, y| widths[y.0.index()].total_cmp(&widths[x.0.index()]));
        // Count each node's channels, turn the counts into row starts,
        // then deal the sorted entries out to both ends: every row
        // inherits the walk order.
        let mut offsets = vec![0u32; nodes + 1];
        for &(_, a, b) in &order.entries {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for v in 0..nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut incidence = vec![(0.0, ChannelId::new(0), NodeId::new(0)); 2 * order.entries.len()];
        for &(id, a, b) in &order.entries {
            for (u, x) in [(a, b), (b, a)] {
                incidence[fill[u.index()] as usize] = (widths[id.index()], id, x);
                fill[u.index()] += 1;
            }
        }
        order.offsets = offsets;
        order.incidence = incidence;
        order
    }

    /// Appends the next dense channel id, between `a` and `b`, with
    /// `width`, at its place in the order and in both ends' incidence
    /// lists (after every channel at least as wide, all of which have
    /// smaller ids).
    pub fn push(&mut self, a: NodeId, b: NodeId, width: f64) {
        debug_assert!(!width.is_nan(), "channel widths are not NaN");
        let id = ChannelId::from_index(self.widths.len());
        let at = self
            .entries
            .partition_point(|e| self.widths[e.0.index()] >= width);
        self.entries.insert(at, (id, a, b));
        self.widths.push(width);
        let nodes = a.index().max(b.index()) + 1;
        if self.offsets.len() <= nodes {
            let end = self.offsets.last().copied().unwrap_or(0);
            self.offsets.resize(nodes + 1, end);
        }
        for (u, x) in [(a, b), (b, a)] {
            let (lo, hi) = (
                self.offsets[u.index()] as usize,
                self.offsets[u.index() + 1] as usize,
            );
            let at = lo + self.incidence[lo..hi].partition_point(|e| e.0 >= width);
            self.incidence.insert(at, (width, id, x));
            for offset in &mut self.offsets[u.index() + 1..] {
                *offset += 1;
            }
        }
    }

    /// Width of channel `id`, or `None` for an id the order does not
    /// know.
    #[inline]
    pub fn width(&self, id: ChannelId) -> Option<f64> {
        self.widths.get(id.index()).copied()
    }

    /// Channel ids in walk order: width descending, then id ascending.
    pub fn channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.entries.iter().map(|e| e.0)
    }

    /// `v`'s channels as `(width, channel, other end)`, in walk order:
    /// width descending, then id ascending. Empty for a node no channel
    /// of the order touches.
    #[inline]
    pub fn incident(&self, v: NodeId) -> &[(f64, ChannelId, NodeId)] {
        match self.offsets.get(v.index()..v.index() + 2) {
            Some(&[lo, hi]) => &self.incidence[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// One node's label. For a settled node: its width `W`, level `H` and
/// parent. For a node holding a seed offer in the current group: the
/// offer's `H`, the offering node's `W` (the tie-break) and that node.
#[derive(Clone, Copy, Debug, Default)]
struct Label {
    width: f64,
    hops: u32,
    parent: NodeId,
}

impl Label {
    /// Whether seed offer `self` beats `other`: smaller `H`, then larger
    /// offering `W`, then larger offering id.
    fn beats(self, other: Label) -> bool {
        (self.hops, other.width, other.parent) < (other.hops, self.width, self.parent)
    }
}

/// Reusable static widest-path state.
#[derive(Debug, Default)]
pub(crate) struct StaticWidestScratch {
    /// Nodes settled by the current search.
    settled: StampSet,
    /// Nodes holding a seed offer in the current width group.
    offered: StampSet,
    labels: Vec<Label>,
    /// `(offer H, node)` of the current group's seeds.
    seeds: Vec<(u32, NodeId)>,
    level: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl StaticWidestScratch {
    #[inline]
    fn is_settled(&self, v: NodeId) -> bool {
        self.settled.contains(v.index())
    }

    #[inline]
    fn settle(&mut self, v: NodeId, label: Label) {
        self.settled.insert(v.index());
        self.labels[v.index()] = label;
    }
}

/// Up to `k` edge-disjoint widest paths under the static widths of
/// `order`, found greedily (EDW): bit-identical to
/// [`crate::edge_disjoint_widest_paths_in`] with the width closure
/// `|e| order.width(e.id).filter(|w| *w > 0.0 && *w >= min_width)`.
///
/// The search walks `order` instead of keeping a heap; see the module
/// docs for why the paths are the same. Repeated calls on one
/// workspace are allocation-free apart from the returned paths.
///
/// # Examples
///
/// ```
/// use pcn_graph::{edge_disjoint_widest_paths_static_in, Graph, SearchWorkspace, WidthOrder};
/// use pcn_types::NodeId;
///
/// let n = NodeId::new;
/// let mut g = Graph::new(4);
/// let widths = [2.0, 2.0, 9.0, 9.0];
/// for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
///     g.add_edge(n(a), n(b));
/// }
/// let order = WidthOrder::from_channels(
///     g.edges().map(|id| {
///         let (a, b) = g.endpoints(id).unwrap();
///         (a, b, widths[id.index()])
///     }),
/// );
/// let mut ws = SearchWorkspace::new();
/// let paths = edge_disjoint_widest_paths_static_in(&g, &mut ws, &order, n(0), n(3), 4, 1.0);
/// assert_eq!(paths.len(), 2);
/// assert_eq!(paths[0].nodes(), &[n(0), n(2), n(3)]); // the wide route first
/// ```
pub fn edge_disjoint_widest_paths_static_in(
    g: &Graph,
    ws: &mut SearchWorkspace,
    order: &WidthOrder,
    from: NodeId,
    to: NodeId,
    k: usize,
    min_width: f64,
) -> Vec<Path> {
    ws.bans.clear();
    let mut paths = Vec::new();
    for _ in 0..k {
        let Some(path) = widest_static(
            g,
            &mut ws.static_widest,
            &ws.bans,
            order,
            from,
            to,
            min_width,
        ) else {
            break;
        };
        for &c in path.channels() {
            ws.bans.ban_channel(c);
        }
        paths.push(path);
    }
    paths
}

/// One widest path under the static widths, avoiding banned channels.
fn widest_static(
    g: &Graph,
    s: &mut StaticWidestScratch,
    bans: &BanMask,
    order: &WidthOrder,
    from: NodeId,
    to: NodeId,
    min_width: f64,
) -> Option<Path> {
    let n = g.node_count();
    if from.index() >= n || to.index() >= n {
        return None;
    }
    if from == to {
        return Some(Path::trivial(from));
    }
    s.settled.clear();
    if s.labels.len() < n {
        s.labels.resize(n, Label::default());
    }
    s.settle(
        from,
        Label {
            width: f64::INFINITY,
            hops: 0,
            parent: from,
        },
    );
    let entries = &order.entries;
    let widths = &order.widths;
    let mut i = 0;
    while i < entries.len() {
        let w = widths[entries[i].0.index()];
        if !(w > 0.0 && w >= min_width) {
            break;
        }
        s.offered.clear();
        s.seeds.clear();
        while let Some(&(id, a, b)) = entries.get(i).filter(|e| widths[e.0.index()] == w) {
            i += 1;
            let (sa, sb) = (s.is_settled(a), s.is_settled(b));
            if sa == sb
                || id.index() >= g.edge_count()
                || g.is_closed(id)
                || bans.channel_banned(id)
            {
                continue;
            }
            debug_assert_eq!(g.endpoints(id).ok(), Some((a, b)), "order endpoints");
            let (u, x) = if sa { (a, b) } else { (b, a) };
            let lu = s.labels[u.index()];
            let offer = Label {
                width: lu.width,
                hops: lu.hops + 1,
                parent: u,
            };
            if !s.offered.contains(x.index()) {
                s.offered.insert(x.index());
                s.labels[x.index()] = offer;
                s.seeds.push((0, x));
            } else if offer.beats(s.labels[x.index()]) {
                s.labels[x.index()] = offer;
            }
        }
        if !s.seeds.is_empty() && flood(g, s, bans, order, w, to) {
            return Some(rebuild(g, s, bans, order, from, to));
        }
    }
    None
}

/// Settles the current group (width `w`) from its seeds, level by
/// level; returns whether the target settled.
fn flood(
    g: &Graph,
    s: &mut StaticWidestScratch,
    bans: &BanMask,
    order: &WidthOrder,
    w: f64,
    to: NodeId,
) -> bool {
    let mut seeds = std::mem::take(&mut s.seeds);
    for seed in &mut seeds {
        seed.0 = s.labels[seed.1.index()].hops;
    }
    seeds.sort_unstable_by_key(|seed| seed.0);
    let mut level = std::mem::take(&mut s.level);
    let mut next = std::mem::take(&mut s.next);
    level.clear();
    let mut h = seeds[0].0;
    let mut si = 0;
    let mut reached = false;
    'levels: loop {
        while let Some(&(hs, x)) = seeds.get(si).filter(|seed| seed.0 == h) {
            si += 1;
            if s.is_settled(x) {
                continue; // discovered at a lower level
            }
            let parent = s.labels[x.index()].parent;
            s.settle(
                x,
                Label {
                    width: w,
                    hops: hs,
                    parent,
                },
            );
            level.push(x);
            if x == to {
                reached = true;
                break 'levels;
            }
        }
        if level.is_empty() {
            match seeds.get(si) {
                Some(&(hs, _)) => {
                    h = hs;
                    continue;
                }
                None => break,
            }
        }
        level.sort_unstable_by(|x, y| y.cmp(x));
        next.clear();
        for &u in &level {
            for &(c, id, x) in order.incident(u) {
                if c < w {
                    break; // the rest of `u`'s channels are narrower still
                }
                if s.is_settled(x)
                    || id.index() >= g.edge_count()
                    || g.is_closed(id)
                    || bans.channel_banned(id)
                    || (s.offered.contains(x.index()) && s.labels[x.index()].hops <= h + 1)
                {
                    continue;
                }
                s.settle(
                    x,
                    Label {
                        width: w,
                        hops: h + 1,
                        parent: u,
                    },
                );
                next.push(x);
                if x == to {
                    reached = true;
                    break 'levels;
                }
            }
        }
        std::mem::swap(&mut level, &mut next);
        h += 1;
    }
    s.seeds = seeds;
    s.level = level;
    s.next = next;
    reached
}

/// Rebuilds the path to `to` from the parent labels, joining each node
/// to its parent by the parent's first usable arc wide enough for it.
fn rebuild(
    g: &Graph,
    s: &StaticWidestScratch,
    bans: &BanMask,
    order: &WidthOrder,
    from: NodeId,
    to: NodeId,
) -> Path {
    let mut rev_nodes = vec![to];
    let mut rev_chans = Vec::new();
    let mut v = to;
    while v != from {
        let Label { width, parent, .. } = s.labels[v.index()];
        let arc = g
            .out_edges(parent)
            .find(|e| {
                e.to == v
                    && !bans.channel_banned(e.id)
                    && order.width(e.id).is_some_and(|c| c >= width)
            })
            .expect("a settled node's parent has a qualifying arc to it");
        rev_nodes.push(parent);
        rev_chans.push(arc.id);
        v = parent;
    }
    rev_nodes.reverse();
    rev_chans.reverse();
    Path::new(rev_nodes, rev_chans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_disjoint_widest_paths_in;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The heap search under the width closure the static search
    /// replaces.
    fn heap_edw(
        g: &Graph,
        ws: &mut SearchWorkspace,
        order: &WidthOrder,
        (from, to): (NodeId, NodeId),
        k: usize,
        min_width: f64,
    ) -> Vec<Path> {
        edge_disjoint_widest_paths_in(g, ws, from, to, k, |e| {
            order.width(e.id).filter(|w| *w > 0.0 && *w >= min_width)
        })
    }

    fn order_of(g: &Graph, widths: &[f64]) -> WidthOrder {
        WidthOrder::from_channels(g.edges().map(|id| {
            let (a, b) = g.endpoints(id).expect("dense ids");
            (a, b, widths[id.index()])
        }))
    }

    /// A small random world with tied widths: parallel channels in both
    /// orientations, channels closed and some reopened (so adjacency
    /// order differs from id order), and sometimes a channel only the
    /// order knows or one only the graph knows.
    fn random_world(rng: &mut StdRng) -> (Graph, WidthOrder) {
        const PALETTE: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];
        let nn = rng.random_range(2..9usize);
        let mut g = Graph::new(nn);
        let mut widths = Vec::new();
        for _ in 0..rng.random_range(1..3 * nn) {
            let (a, b) = match g.edge_count() {
                m if m > 0 && rng.random_bool(0.2) => {
                    let c = ChannelId::from_index(rng.random_range(0..m));
                    let (a, b) = g.endpoints(c).expect("dense ids");
                    if rng.random_bool(0.5) {
                        (a, b)
                    } else {
                        (b, a)
                    }
                }
                _ => {
                    let a = rng.random_range(0..nn);
                    let b = (a + rng.random_range(1..nn)) % nn;
                    (NodeId::from_index(a), NodeId::from_index(b))
                }
            };
            g.add_edge(a, b);
            // Zero-width (unusable) channels are rare.
            let lowest = usize::from(rng.random_bool(0.9));
            widths.push(PALETTE[rng.random_range(lowest..PALETTE.len())]);
        }
        let m = g.edge_count();
        let mut closed = Vec::new();
        for _ in 0..rng.random_range(0..=m / 3) {
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
        let mut order = order_of(&g, &widths);
        if rng.random_bool(0.2) {
            let a = rng.random_range(0..nn);
            let b = (a + 1) % nn;
            order.push(NodeId::from_index(a), NodeId::from_index(b), 4.0);
        } else if rng.random_bool(0.2) {
            g.add_edge(n(0), NodeId::from_index(nn - 1));
        }
        (g, order)
    }

    /// The static search returns the heap search's paths on every
    /// ordered pair (source = target included) of random worlds, for
    /// k = 1 and k = 4, with a `min_width` that sometimes cuts channels.
    #[test]
    fn static_search_matches_heap_search_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(17);
        let (mut ws_static, mut ws_heap) = (SearchWorkspace::new(), SearchWorkspace::new());
        let mut nonempty = 0usize;
        for world in 0..1000 {
            let (g, order) = random_world(&mut rng);
            let min_width = [0.0, 1.0, 2.0, 2.5][rng.random_range(0..4usize)];
            let nn = g.node_count();
            for (from, to) in (0..nn).flat_map(|a| (0..nn).map(move |b| (a, b))) {
                let pair = (NodeId::from_index(from), NodeId::from_index(to));
                for k in [1, 4] {
                    let want = heap_edw(&g, &mut ws_heap, &order, pair, k, min_width);
                    let got = edge_disjoint_widest_paths_static_in(
                        &g,
                        &mut ws_static,
                        &order,
                        pair.0,
                        pair.1,
                        k,
                        min_width,
                    );
                    assert_eq!(
                        got, want,
                        "world {world} {pair:?} k={k} min_width={min_width}"
                    );
                    nonempty += usize::from(!got.is_empty() && from != to);
                }
            }
        }
        assert!(nonempty > 10_000, "too few reachable pairs: {nonempty}");
    }

    /// Pushing channels one at a time builds the order and the incidence
    /// lists that building them at once does, whatever the split, and
    /// each list holds exactly its node's channels in walk order.
    #[test]
    fn push_matches_from_channels() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let nn = rng.random_range(1..8usize);
            let channels: Vec<(NodeId, NodeId, f64)> = (0..rng.random_range(0..20))
                .map(|_| {
                    let a = rng.random_range(0..nn);
                    let b = rng.random_range(0..nn);
                    let w = f64::from(rng.random_range(0..4u32));
                    (NodeId::from_index(a), NodeId::from_index(b), w)
                })
                .filter(|(a, b, _)| a != b)
                .collect();
            let whole = WidthOrder::from_channels(channels.iter().copied());
            let split = rng.random_range(0..=channels.len());
            let mut pushed = WidthOrder::from_channels(channels[..split].iter().copied());
            for &(a, b, w) in &channels[split..] {
                pushed.push(a, b, w);
            }
            let walk: Vec<ChannelId> = whole.channels().collect();
            assert_eq!(pushed.channels().collect::<Vec<_>>(), walk);
            for v in (0..nn + 1).map(NodeId::from_index) {
                let want: Vec<(f64, ChannelId, NodeId)> = walk
                    .iter()
                    .filter_map(|&c| {
                        let (a, b, w) = channels[c.index()];
                        (a == v || b == v).then_some((w, c, if a == v { b } else { a }))
                    })
                    .collect();
                assert_eq!(whole.incident(v), want.as_slice(), "{v} at once");
                assert_eq!(pushed.incident(v), want.as_slice(), "{v} split at {split}");
            }
        }
    }

    /// Labels reset by generation stamps, and a clear that wraps a stamp
    /// zeroes its marks. One query leaves settled and offered marks
    /// under the lowest stamps; then the stamps jump to the wrap. The
    /// warm workspace must keep returning a cold one's paths once its
    /// wrapped stamps meet those old marks again. The first query's
    /// source is not the next queries' one, so its labels would not
    /// happen to fit them.
    #[test]
    fn warm_search_matches_cold_across_stamp_wraparound() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = crate::watts_strogatz(24, 4, 0.3, &mut rng);
        let widths: Vec<f64> = (0..g.edge_count())
            .map(|_| f64::from(rng.random_range(1..4u32)))
            .collect();
        let order = order_of(&g, &widths);
        let nn = g.node_count();
        let run = |ws: &mut SearchWorkspace, (from, to): (usize, usize)| {
            let (from, to) = (NodeId::from_index(from), NodeId::from_index(to));
            edge_disjoint_widest_paths_static_in(&g, ws, &order, from, to, 4, 0.0)
        };
        let mut warm = SearchWorkspace::new();
        let first = (nn - 1, nn / 2);
        assert_eq!(
            run(&mut warm, first),
            run(&mut SearchWorkspace::new(), first)
        );
        warm.static_widest.settled.set_stamp(u32::MAX - 2);
        warm.static_widest.offered.set_stamp(u32::MAX - 2);
        for pair in (0..nn).flat_map(|a| (0..nn).map(move |b| (a, b))) {
            assert_eq!(
                run(&mut warm, pair),
                run(&mut SearchWorkspace::new(), pair),
                "{pair:?} after the wrap"
            );
        }
    }
}
