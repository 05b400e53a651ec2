//! Dinic's maximum flow with path decomposition.
//!
//! The Flash baseline [10] routes large ("elephant") payments over
//! max-flow paths between sender and receiver. We implement Dinic's
//! algorithm over integer (millitoken) capacities: [`max_flow_in`]
//! computes the full max flow and decomposes it into source→sink paths,
//! each with the flow it carries. Flash's planner keeps the k paths that
//! carry the most flow, and the engine sends the payment's transaction
//! units round-robin over them.

use std::collections::VecDeque;

use pcn_types::{ChannelId, NodeId};

use crate::{EdgeRef, Path, SearchWorkspace, Topology};

/// Reusable Dinic state: residual arc table, adjacency heads, BFS levels,
/// DFS cursors, per-arc flow and the decomposition's visited marks.
#[derive(Debug, Default)]
pub(crate) struct MaxFlowScratch {
    head: Vec<Vec<usize>>,
    arcs: Vec<Arc>,
    level: Vec<i32>,
    iter: Vec<usize>,
    flow: Vec<u64>,
    visited: Vec<bool>,
    queue: VecDeque<usize>,
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
    to: usize,
    cap: u64,
    /// index of the reverse arc in `arcs`
    rev: usize,
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
    // Build residual arcs: one forward arc per directed channel view with
    // positive capacity, plus a 0-capacity reverse arc.
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
    // Track flow sent per arc for decomposition.
    scratch.flow.clear();
    scratch.flow.resize(arcs.len(), 0);
    let level = &mut scratch.level;
    let iter = &mut scratch.iter;
    let flow = &mut scratch.flow;

    loop {
        // BFS level graph.
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
        // DFS blocking flow.
        loop {
            let pushed = dfs(arcs, flow, head, level, iter, s, t, u64::MAX);
            if pushed == 0 {
                break;
            }
            total += pushed;
        }
    }

    // Cancel opposing flows on the two directions of the same channel is not
    // needed for correctness of decomposition (each arc tracks its own net
    // flow already via residual bookkeeping on `cap`).
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
                // Net flow bookkeeping: pushing on a reverse arc cancels
                // forward flow.
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

/// Decomposes the per-arc net flow into source→sink paths (greedy walk).
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
        // Walk from s following positive-flow arcs.
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
                // Remaining flow forms a cycle not reaching t (can happen
                // with opposing channel directions); drop it.
                if let Some(&ai) = arc_idxs.last() {
                    // Remove the last arc's flow to break out of the cycle.
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
            break; // safety valve against pathological loops
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
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
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
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
