//! Dinic's maximum flow with path decomposition.
//!
//! The Flash baseline [10] routes large ("elephant") payments over
//! max-flow paths between sender and receiver. We implement Dinic's
//! algorithm over integer (millitoken) capacities: [`max_flow_in`]
//! computes the full max flow and decomposes it into source→sink paths,
//! each with the flow it carries. Flash's planner keeps the k paths that
//! carry the most flow, and the engine sends the payment's transaction
//! units round-robin over them.
//!
//! # The residual network
//!
//! Every directed channel view with positive capacity becomes a forward
//! arc and a 0-capacity reverse arc, taken in
//! [`Topology::directed_edges`] order (ascending channel id, `a → b`
//! before `b → a`). The arcs live in one compressed-sparse-row array:
//! node `v`'s arcs are one contiguous run, in the order they were
//! appended, which is the order a `Vec` per node would hold them in.
//! The blocking-flow DFS and the path decomposition scan each node's
//! arcs in that order, and their results depend on nothing else.
//!
//! # Why pruning the level graph changes no flow
//!
//! A phase labels nodes with their BFS level from the source; an arc
//! `u → v` is *admissible* while it has residual capacity and
//! `level(v) = level(u) + 1`. The blocking-flow DFS walks admissible arcs
//! from the source, each node resuming at its cursor, and augments along
//! the first path it finds to the sink. Two cuts leave every augmenting
//! path, and so every flow and every decomposed path, unchanged:
//!
//! * **The BFS stops once the sink is labelled.** Admissible paths climb
//!   one level per arc, so a node at or past the sink's level `L`, other
//!   than the sink, cannot reach it. Every node below `L` is labelled
//!   before the sink is: the FIFO queue labels all of level `k` while it
//!   pops level `k − 1`, before any node of level `k` is popped, and the
//!   sink is labelled while a node of level `L − 1` is popped. So the
//!   levels that can matter are all set, and set to their full-BFS
//!   values.
//! * **Dead ends are unlabelled before the DFS starts.** One backward
//!   pass from the sink, over admissible arcs followed in reverse, finds
//!   every node with an admissible path to the sink; every other
//!   labelled node is unlabelled, so no admissible arc enters it. Within
//!   a phase the admissible graph only loses arcs: an augmentation drains
//!   admissible arcs and gives capacity only to their reverses, which
//!   run one level down and are not admissible. So a node that cannot
//!   reach the sink when the phase starts cannot reach it at any later
//!   point of the phase. The full search would still enter such a node
//!   on an admissible arc; that DFS call returns 0, changes no capacity,
//!   and moves only the cursors of nodes it visits, which are dead too
//!   (a node reachable from a dead end is a dead end). Skipping the call
//!   leaves the caller's cursor where the full search leaves it — past
//!   that arc — and every live node's cursor where it would be.
//!
//! Labels, cursors and the decomposition's visited marks are reset only
//! where a phase or path touched them (the decomposition's by a
//! generation stamp), so a phase costs the arcs it scans, not O(n).
//! The randomized test in this module pins the whole computation —
//! value and decomposed paths, in order — against the plain Dinic it
//! replaced, kept there as the reference.

use pcn_types::{ChannelId, NodeId};

use crate::workspace::StampSet;
use crate::{EdgeRef, Path, SearchWorkspace, Topology};

/// Reusable Dinic state: the CSR residual network, per-arc flow, BFS
/// levels and order, the live nodes of a phase, DFS cursors and the
/// decomposition's visited marks.
#[derive(Debug, Default)]
pub(crate) struct MaxFlowScratch {
    /// `(from, to, channel, capacity)` of every usable directed view, in
    /// `directed_edges` order: the arcs before they are placed.
    views: Vec<(u32, u32, ChannelId, u64)>,
    /// Row starts: node `v`'s arcs are `arcs[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    arcs: Vec<Arc>,
    /// Net flow on each forward arc.
    flow: Vec<u64>,
    /// BFS level per node, `-1` when unlabelled (or pruned).
    level: Vec<i32>,
    /// The nodes the current phase's BFS labelled, in BFS order.
    queue: Vec<u32>,
    /// The nodes with an admissible path to the sink, found backwards.
    live: Vec<u32>,
    on_live: StampSet,
    /// Next arc each live node's DFS tries (absolute arc index).
    cursor: Vec<u32>,
    visited: StampSet,
    path_arcs: Vec<u32>,
}

/// One path of a flow decomposition, carrying `amount` units.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowPath {
    /// The path through the graph.
    pub path: Path,
    /// Flow assigned to this path (same unit as the capacity closure).
    pub amount: u64,
}

/// Result of a max-flow computation.
#[derive(Clone, Debug)]
pub struct MaxFlowResult {
    /// Total flow value from source to sink.
    pub value: u64,
    /// Decomposition of the flow into source→sink paths.
    pub paths: Vec<FlowPath>,
}

#[derive(Clone, Copy, Debug)]
struct Arc {
    cap: u64,
    to: u32,
    /// index of the reverse arc in `arcs`
    rev: u32,
    /// originating channel (None for artificial reverse arcs with 0 cap)
    channel: Option<ChannelId>,
}

/// Computes the max flow from `source` to `sink`.
///
/// `capacity` gives the usable capacity of each directed channel view
/// (`None`/0 = unusable). Both directions of a channel may carry capacity —
/// exactly the PCN situation where each direction holds its own balance.
///
/// Complexity: O(V²E) worst case (Dinic), far below that on sparse PCN
/// topologies.
///
/// # Examples
///
/// ```
/// use pcn_graph::{max_flow, Graph};
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// let r = max_flow(&g, NodeId::new(0), NodeId::new(2), |_| Some(7));
/// assert_eq!(r.value, 7);
/// assert_eq!(r.paths.len(), 1);
/// ```
pub fn max_flow<G, F>(g: &G, source: NodeId, sink: NodeId, capacity: F) -> MaxFlowResult
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<u64>,
{
    max_flow_scratch(g, &mut MaxFlowScratch::default(), source, sink, capacity)
}

/// [`max_flow`] running on the reusable buffers of a [`SearchWorkspace`]:
/// repeated calls are allocation-free once the residual tables have grown
/// (the decomposed [`FlowPath`]s are the output and still allocate), and
/// bit-identical to the allocating form.
pub fn max_flow_in<G, F>(
    g: &G,
    ws: &mut SearchWorkspace,
    source: NodeId,
    sink: NodeId,
    capacity: F,
) -> MaxFlowResult
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<u64>,
{
    max_flow_scratch(g, &mut ws.maxflow, source, sink, capacity)
}

fn max_flow_scratch<G, F>(
    g: &G,
    scratch: &mut MaxFlowScratch,
    source: NodeId,
    sink: NodeId,
    mut capacity: F,
) -> MaxFlowResult
where
    G: Topology,
    F: FnMut(EdgeRef) -> Option<u64>,
{
    let n = g.node_count();
    if source.index() >= n || sink.index() >= n || source == sink {
        return MaxFlowResult {
            value: 0,
            paths: Vec::new(),
        };
    }
    scratch.build(g, &mut capacity);
    let (s, t) = (source.index(), sink.index());
    scratch.level.clear();
    scratch.level.resize(n, -1);
    scratch.queue.clear();
    let mut total = 0u64;
    while scratch.level_graph(s, t) {
        loop {
            let pushed = scratch.augment(s, t, u64::MAX);
            if pushed == 0 {
                break;
            }
            total += pushed;
        }
    }
    // Cancel opposing flows on the two directions of the same channel is not
    // needed for correctness of decomposition (each arc tracks its own net
    // flow already via residual bookkeeping on `cap`).
    let paths = scratch.decompose(g, s, t);
    MaxFlowResult {
        value: total,
        paths,
    }
}

impl MaxFlowScratch {
    /// Builds the CSR residual network: a forward arc per usable directed
    /// view and its 0-capacity reverse, each node's arcs in the order
    /// the views append them.
    fn build<G, F>(&mut self, g: &G, capacity: &mut F)
    where
        G: Topology,
        F: FnMut(EdgeRef) -> Option<u64>,
    {
        let n = g.node_count();
        self.views.clear();
        self.start.clear();
        self.start.resize(n + 1, 0);
        for e in g.directed_edges() {
            let Some(c) = capacity(e) else { continue };
            if c == 0 {
                continue;
            }
            let (from, to) = (e.from.index(), e.to.index());
            self.views.push((from as u32, to as u32, e.id, c));
            self.start[from + 1] += 1;
            self.start[to + 1] += 1;
        }
        for v in 0..n {
            self.start[v + 1] += self.start[v];
        }
        // Deal the arcs out in view order; `cursor` is each row's fill
        // point until the first phase resets it.
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.start[..n]);
        let fill = &mut self.cursor;
        self.arcs.clear();
        self.arcs.resize(
            2 * self.views.len(),
            Arc {
                cap: 0,
                to: 0,
                rev: 0,
                channel: None,
            },
        );
        for &(from, to, id, cap) in &self.views {
            let fwd = fill[from as usize];
            fill[from as usize] += 1;
            let bwd = fill[to as usize];
            fill[to as usize] += 1;
            self.arcs[fwd as usize] = Arc {
                cap,
                to,
                rev: bwd,
                channel: Some(id),
            };
            self.arcs[bwd as usize] = Arc {
                cap: 0,
                to: from,
                rev: fwd,
                channel: None,
            };
        }
        self.flow.clear();
        self.flow.resize(self.arcs.len(), 0);
    }

    #[inline]
    fn row(&self, v: usize) -> std::ops::Range<usize> {
        self.start[v] as usize..self.start[v + 1] as usize
    }

    /// Starts a phase: labels BFS levels from `s` until `t` is labelled,
    /// then unlabels every node with no admissible path to `t` and points
    /// each remaining node's cursor at its first arc. Returns whether `t`
    /// is labelled. Expects only the previous phase's nodes labelled.
    fn level_graph(&mut self, s: usize, t: usize) -> bool {
        for &v in &self.queue {
            self.level[v as usize] = -1;
        }
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s as u32);
        let mut head = 0;
        'bfs: while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let next = self.level[u] + 1;
            for a in &self.arcs[self.row(u)] {
                if a.cap > 0 && self.level[a.to as usize] < 0 {
                    self.level[a.to as usize] = next;
                    self.queue.push(a.to);
                    if a.to as usize == t {
                        break 'bfs;
                    }
                }
            }
        }
        if self.level[t] < 0 {
            return false;
        }
        // Backwards from the sink: `u` is live when an admissible arc
        // `u → v` (the reverse of one of `v`'s arcs) reaches a live `v`.
        self.on_live.clear();
        self.on_live.insert(t);
        self.live.clear();
        self.live.push(t as u32);
        let mut head = 0;
        while let Some(&v) = self.live.get(head) {
            head += 1;
            let v = v as usize;
            let below = self.level[v] - 1;
            if below < 0 {
                continue; // the source
            }
            for b in &self.arcs[self.row(v)] {
                let u = b.to as usize;
                if self.level[u] == below
                    && self.arcs[b.rev as usize].cap > 0
                    && !self.on_live.contains(u)
                {
                    self.on_live.insert(u);
                    self.live.push(b.to);
                }
            }
        }
        for &v in &self.queue {
            if !self.on_live.contains(v as usize) {
                self.level[v as usize] = -1;
            }
        }
        for &v in &self.live {
            self.cursor[v as usize] = self.start[v as usize];
        }
        true
    }

    /// The blocking-flow DFS: pushes up to `limit` along the first
    /// admissible path from `u` to `t`, resuming every node at its cursor.
    fn augment(&mut self, u: usize, t: usize, limit: u64) -> u64 {
        if u == t {
            return limit;
        }
        let end = self.start[u + 1];
        while self.cursor[u] < end {
            let ai = self.cursor[u] as usize;
            let Arc { cap, to, .. } = self.arcs[ai];
            if cap > 0 && self.level[to as usize] == self.level[u] + 1 {
                let pushed = self.augment(to as usize, t, limit.min(cap));
                if pushed > 0 {
                    self.arcs[ai].cap -= pushed;
                    let rev = self.arcs[ai].rev as usize;
                    self.arcs[rev].cap += pushed;
                    // Net flow bookkeeping: pushing on a reverse arc cancels
                    // forward flow.
                    if self.arcs[ai].channel.is_some() {
                        self.flow[ai] += pushed;
                    } else {
                        self.flow[rev] = self.flow[rev].saturating_sub(pushed);
                    }
                    return pushed;
                }
            }
            self.cursor[u] += 1;
        }
        0
    }

    /// Decomposes the per-arc net flow into source→sink paths (greedy
    /// walk along each node's first arc with flow left).
    fn decompose<G: Topology>(&mut self, g: &G, s: usize, t: usize) -> Vec<FlowPath> {
        let n = g.node_count();
        let mut paths = Vec::new();
        loop {
            // Walk from s following positive-flow arcs.
            let mut nodes = vec![NodeId::from_index(s)];
            let mut chans: Vec<ChannelId> = Vec::new();
            self.path_arcs.clear();
            let mut cur = s;
            let mut bottleneck = u64::MAX;
            self.visited.clear();
            self.visited.insert(cur);
            while cur != t {
                let next = self.row(cur).find(|&ai| {
                    self.flow[ai] > 0
                        && self.arcs[ai].channel.is_some()
                        && !self.visited.contains(self.arcs[ai].to as usize)
                });
                let Some(ai) = next else {
                    // Remaining flow forms a cycle not reaching t (can happen
                    // with opposing channel directions); drop it.
                    if let Some(&ai) = self.path_arcs.last() {
                        // Remove the last arc's flow to break out of the cycle.
                        self.flow[ai as usize] = 0;
                    }
                    break;
                };
                bottleneck = bottleneck.min(self.flow[ai]);
                cur = self.arcs[ai].to as usize;
                self.visited.insert(cur);
                nodes.push(NodeId::from_index(cur));
                chans.push(self.arcs[ai].channel.expect("checked above"));
                self.path_arcs.push(ai as u32);
            }
            if cur != t {
                if self.path_arcs.is_empty() {
                    break;
                }
                continue;
            }
            for &ai in &self.path_arcs {
                self.flow[ai as usize] -= bottleneck;
            }
            let path = Path::new(nodes, chans);
            debug_assert!(path.validate(g).is_ok());
            paths.push(FlowPath {
                path,
                amount: bottleneck,
            });
            if paths.len() > 4 * n {
                break; // safety valve against pathological loops
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The Dinic this module replaced, kept as the test oracle: one
    /// `Vec` of arc indices per node, a BFS that labels every reachable
    /// node, a DFS that enters dead ends, and an O(n) visited reset per
    /// decomposed path.
    mod reference {
        use std::collections::VecDeque;

        use pcn_types::{ChannelId, NodeId};

        use super::super::{FlowPath, MaxFlowResult};
        use crate::{EdgeRef, Path, Topology};

        #[derive(Debug, Default)]
        pub(super) struct MaxFlowScratch {
            head: Vec<Vec<usize>>,
            arcs: Vec<Arc>,
            level: Vec<i32>,
            iter: Vec<usize>,
            flow: Vec<u64>,
            visited: Vec<bool>,
            queue: VecDeque<usize>,
        }

        #[derive(Clone, Copy, Debug)]
        struct Arc {
            to: usize,
            cap: u64,
            rev: usize,
            channel: Option<ChannelId>,
        }

        pub(super) fn max_flow_scratch<G, F>(
            g: &G,
            scratch: &mut MaxFlowScratch,
            source: NodeId,
            sink: NodeId,
            mut capacity: F,
        ) -> MaxFlowResult
        where
            G: Topology,
            F: FnMut(EdgeRef) -> Option<u64>,
        {
            let n = g.node_count();
            if source.index() >= n || sink.index() >= n || source == sink {
                return MaxFlowResult {
                    value: 0,
                    paths: Vec::new(),
                };
            }
            for l in scratch.head.iter_mut() {
                l.clear();
            }
            if scratch.head.len() < n {
                scratch.head.resize_with(n, Vec::new);
            }
            scratch.head.truncate(n);
            scratch.arcs.clear();
            let head = &mut scratch.head;
            let arcs = &mut scratch.arcs;
            for e in g.directed_edges() {
                let Some(c) = capacity(e) else { continue };
                if c == 0 {
                    continue;
                }
                let fwd = arcs.len();
                let bwd = fwd + 1;
                arcs.push(Arc {
                    to: e.to.index(),
                    cap: c,
                    rev: bwd,
                    channel: Some(e.id),
                });
                arcs.push(Arc {
                    to: e.from.index(),
                    cap: 0,
                    rev: fwd,
                    channel: None,
                });
                head[e.from.index()].push(fwd);
                head[e.to.index()].push(bwd);
            }
            let s = source.index();
            let t = sink.index();
            let mut total = 0u64;
            scratch.level.clear();
            scratch.level.resize(n, -1);
            scratch.iter.clear();
            scratch.iter.resize(n, 0);
            scratch.flow.clear();
            scratch.flow.resize(arcs.len(), 0);
            let level = &mut scratch.level;
            let iter = &mut scratch.iter;
            let flow = &mut scratch.flow;
            loop {
                level.iter_mut().for_each(|l| *l = -1);
                let q = &mut scratch.queue;
                q.clear();
                level[s] = 0;
                q.push_back(s);
                while let Some(u) = q.pop_front() {
                    for &ai in &head[u] {
                        let a = arcs[ai];
                        if a.cap > 0 && level[a.to] < 0 {
                            level[a.to] = level[u] + 1;
                            q.push_back(a.to);
                        }
                    }
                }
                if level[t] < 0 {
                    break;
                }
                iter.iter_mut().for_each(|i| *i = 0);
                loop {
                    let pushed = dfs(arcs, flow, head, level, iter, s, t, u64::MAX);
                    if pushed == 0 {
                        break;
                    }
                    total += pushed;
                }
            }
            let paths = decompose(g, head, arcs, flow, &mut scratch.visited, s, t);
            MaxFlowResult {
                value: total,
                paths,
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn dfs(
            arcs: &mut [Arc],
            flow: &mut [u64],
            head: &[Vec<usize>],
            level: &[i32],
            iter: &mut [usize],
            u: usize,
            t: usize,
            limit: u64,
        ) -> u64 {
            if u == t {
                return limit;
            }
            while iter[u] < head[u].len() {
                let ai = head[u][iter[u]];
                let (to, cap) = (arcs[ai].to, arcs[ai].cap);
                if cap > 0 && level[to] == level[u] + 1 {
                    let pushed = dfs(arcs, flow, head, level, iter, to, t, limit.min(cap));
                    if pushed > 0 {
                        arcs[ai].cap -= pushed;
                        let rev = arcs[ai].rev;
                        arcs[rev].cap += pushed;
                        if arcs[ai].channel.is_some() {
                            flow[ai] += pushed;
                        } else {
                            flow[rev] = flow[rev].saturating_sub(pushed);
                        }
                        return pushed;
                    }
                }
                iter[u] += 1;
            }
            0
        }

        fn decompose<G: Topology>(
            g: &G,
            head: &[Vec<usize>],
            arcs: &[Arc],
            flow: &mut [u64],
            visited: &mut Vec<bool>,
            s: usize,
            t: usize,
        ) -> Vec<FlowPath> {
            let mut paths = Vec::new();
            loop {
                let mut nodes = vec![NodeId::from_index(s)];
                let mut chans: Vec<ChannelId> = Vec::new();
                let mut arc_idxs = Vec::new();
                let mut cur = s;
                let mut bottleneck = u64::MAX;
                visited.clear();
                visited.resize(head.len(), false);
                visited[cur] = true;
                while cur != t {
                    let mut advanced = false;
                    for &ai in &head[cur] {
                        if flow[ai] > 0 && arcs[ai].channel.is_some() && !visited[arcs[ai].to] {
                            bottleneck = bottleneck.min(flow[ai]);
                            cur = arcs[ai].to;
                            visited[cur] = true;
                            nodes.push(NodeId::from_index(cur));
                            chans.push(arcs[ai].channel.expect("checked above"));
                            arc_idxs.push(ai);
                            advanced = true;
                            break;
                        }
                    }
                    if !advanced {
                        if let Some(&ai) = arc_idxs.last() {
                            flow[ai] = 0;
                        }
                        break;
                    }
                }
                if cur != t {
                    if arc_idxs.is_empty() {
                        break;
                    }
                    continue;
                }
                for &ai in &arc_idxs {
                    flow[ai] -= bottleneck;
                }
                let path = Path::new(nodes, chans);
                debug_assert!(path.validate(g).is_ok());
                paths.push(FlowPath {
                    path,
                    amount: bottleneck,
                });
                if paths.len() > 4 * head.len() {
                    break;
                }
            }
            paths
        }
    }

    /// Per-direction capacities `[a → b, b → a]` of each channel.
    type Caps = Vec<[Option<u64>; 2]>;

    fn capacity_of(g: &Graph, caps: &Caps, e: EdgeRef) -> Option<u64> {
        let (a, _) = g.endpoints(e.id).expect("dense ids");
        caps[e.id.index()][usize::from(e.from != a)]
    }

    /// A random world: parallel channels in both orientations, each
    /// direction's capacity drawn on its own (`None` and 0 included),
    /// channels closed and some reopened (so adjacency and arc order
    /// differ from id order), and nodes no channel reaches.
    fn random_world(rng: &mut StdRng, nodes: std::ops::Range<usize>) -> (Graph, Caps) {
        let nn = rng.random_range(nodes);
        let mut g = Graph::new(nn);
        let mut caps = Caps::new();
        // The last node or two stay isolated now and then: unreachable
        // sinks.
        let linked = if rng.random_bool(0.2) { nn - 1 } else { nn };
        for _ in 0..rng.random_range(0..3 * nn) {
            let (a, b) = match g.edge_count() {
                m if m > 0 && rng.random_bool(0.25) => {
                    let (a, b) = g
                        .endpoints(ChannelId::from_index(rng.random_range(0..m)))
                        .expect("dense ids");
                    if rng.random_bool(0.5) {
                        (a, b)
                    } else {
                        (b, a)
                    }
                }
                _ if linked < 2 => break,
                _ => {
                    let a = rng.random_range(0..linked);
                    let b = (a + rng.random_range(1..linked)) % linked;
                    (NodeId::from_index(a), NodeId::from_index(b))
                }
            };
            g.add_edge(a, b);
            let mut side = || match rng.random_range(0..10u32) {
                0 => None,
                1 => Some(0),
                _ => Some(rng.random_range(1..20u64)),
            };
            caps.push([side(), side()]);
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
        (g, caps)
    }

    /// On random worlds, the queried pairs (source = sink included) get
    /// the reference Dinic's value and the same decomposed paths, path
    /// and amount, in order: every ordered pair of the small worlds and
    /// 40 random pairs of each larger one. One warm workspace runs every
    /// query, across worlds of changing size: a run of larger worlds,
    /// then smaller ones, then larger again.
    #[test]
    fn pruned_dinic_matches_reference_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut warm = SearchWorkspace::new();
        let (mut flows, mut multi_path) = (0usize, 0usize);
        for (worlds, nodes) in [(40, 20..40), (1000, 2..10), (40, 30..60)] {
            for world in 0..worlds {
                let (g, caps) = random_world(&mut rng, nodes.clone());
                let nn = g.node_count();
                let pairs: Vec<(usize, usize)> = if nn < 10 {
                    (0..nn).flat_map(|a| (0..nn).map(move |b| (a, b))).collect()
                } else {
                    (0..40)
                        .map(|_| (rng.random_range(0..nn), rng.random_range(0..nn)))
                        .collect()
                };
                for (from, to) in pairs {
                    let (s, t) = (NodeId::from_index(from), NodeId::from_index(to));
                    let cap = |e| capacity_of(&g, &caps, e);
                    let want = reference::max_flow_scratch(
                        &g,
                        &mut reference::MaxFlowScratch::default(),
                        s,
                        t,
                        cap,
                    );
                    let got = max_flow_in(&g, &mut warm, s, t, cap);
                    assert_eq!(
                        (got.value, &got.paths),
                        (want.value, &want.paths),
                        "world {world} of {nn} nodes, {s}->{t}"
                    );
                    flows += usize::from(got.value > 0);
                    multi_path += usize::from(got.paths.len() > 1);
                }
            }
        }
        assert!(
            flows > 15_000 && multi_path > 10_000,
            "too few nontrivial flows: {flows} positive, {multi_path} multi-path"
        );
    }

    #[test]
    fn single_path_flow() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let r = max_flow(&g, n(0), n(2), |_| Some(5));
        assert_eq!(r.value, 5);
        assert_eq!(r.paths.len(), 1);
        assert_eq!(r.paths[0].amount, 5);
        assert_eq!(r.paths[0].path.nodes(), &[n(0), n(1), n(2)]);
    }

    #[test]
    fn bottleneck_limits_flow() {
        let mut g = Graph::new(3);
        let c0 = g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let r = max_flow(&g, n(0), n(2), |e| Some(if e.id == c0 { 2 } else { 10 }));
        assert_eq!(r.value, 2);
    }

    #[test]
    fn parallel_paths_sum() {
        // diamond: 0-1-3 and 0-2-3, each capacity 4.
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(3));
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(3));
        let r = max_flow(&g, n(0), n(3), |_| Some(4));
        assert_eq!(r.value, 8);
        assert_eq!(r.paths.len(), 2);
        let total: u64 = r.paths.iter().map(|p| p.amount).sum();
        assert_eq!(total, 8);
        for p in &r.paths {
            assert_eq!(p.path.source(), n(0));
            assert_eq!(p.path.target(), n(3));
        }
    }

    #[test]
    fn classic_textbook_instance() {
        // CLRS-style: capacities chosen so max flow = 23.
        // s=0, v1=1, v2=2, v3=3, v4=4, t=5
        let mut g = Graph::new(6);
        let mut caps: Vec<(u32, u32, u64)> = Vec::new();
        let add = |g: &mut Graph, a: u32, b: u32, c: u64, caps: &mut Vec<(u32, u32, u64)>| {
            g.add_edge(n(a), n(b));
            caps.push((a, b, c));
        };
        add(&mut g, 0, 1, 16, &mut caps);
        add(&mut g, 0, 2, 13, &mut caps);
        add(&mut g, 1, 3, 12, &mut caps);
        add(&mut g, 2, 1, 4, &mut caps);
        add(&mut g, 2, 4, 14, &mut caps);
        add(&mut g, 3, 2, 9, &mut caps);
        add(&mut g, 3, 5, 20, &mut caps);
        add(&mut g, 4, 3, 7, &mut caps);
        add(&mut g, 4, 5, 4, &mut caps);
        let r = max_flow(&g, n(0), n(5), |e| {
            let (a, b, c) = caps[e.id.index()];
            // capacity only in the listed direction
            (e.from == n(a) && e.to == n(b)).then_some(c)
        });
        assert_eq!(r.value, 23);
        let total: u64 = r.paths.iter().map(|p| p.amount).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn disconnected_is_zero() {
        let g = Graph::new(4);
        let r = max_flow(&g, n(0), n(3), |_| Some(10));
        assert_eq!(r.value, 0);
        assert!(r.paths.is_empty());
    }

    #[test]
    fn degenerate_endpoints() {
        let mut g = Graph::new(2);
        g.add_edge(n(0), n(1));
        assert_eq!(max_flow(&g, n(0), n(0), |_| Some(1)).value, 0);
        assert_eq!(max_flow(&g, n(0), n(9), |_| Some(1)).value, 0);
    }

    #[test]
    fn workspace_variant_matches_allocating_form() {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(3));
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(3));
        let mut ws = SearchWorkspace::new();
        for _ in 0..3 {
            let fresh = max_flow(&g, n(0), n(3), |_| Some(4));
            let reused = max_flow_in(&g, &mut ws, n(0), n(3), |_| Some(4));
            assert_eq!(fresh.value, reused.value);
            assert_eq!(fresh.paths, reused.paths);
        }
        // Shrinking to a smaller graph must not trip stale residual state.
        let mut small = Graph::new(2);
        small.add_edge(n(0), n(1));
        assert_eq!(
            max_flow_in(&small, &mut ws, n(0), n(1), |_| Some(7)).value,
            7
        );
    }

    #[test]
    fn decomposition_paths_are_valid_and_sum_to_value() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let nn = rng.random_range(3..9usize);
            let mut g = Graph::new(nn);
            let mut caps = Vec::new();
            for a in 0..nn {
                for b in (a + 1)..nn {
                    if rng.random_bool(0.5) {
                        g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
                        caps.push(rng.random_range(1..15u64));
                    }
                }
            }
            let r = max_flow(&g, n(0), NodeId::from_index(nn - 1), |e| {
                Some(caps[e.id.index()])
            });
            let total: u64 = r.paths.iter().map(|p| p.amount).sum();
            assert_eq!(total, r.value);
            for p in &r.paths {
                p.path.validate(&g).unwrap();
                assert!(p.amount > 0);
            }
        }
    }
}
