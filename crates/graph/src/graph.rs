//! Core undirected multigraph with directed edge views, stored as a
//! churn-absorbing compressed-sparse-row (CSR) adjacency.
//!
//! See the crate-level *memory layout* section for the full contract; in
//! short: one contiguous entry array plus a row-offset table, closed
//! channels flagged in place (skipped at iteration, order of survivors
//! preserved), newly opened channels appended to a small per-node delta
//! overlay, and a watermark-triggered deterministic compaction that folds
//! the overlay back into the dense arrays.

use pcn_types::{ChannelId, NodeId, PcnError, Result};

/// A directed view of an undirected channel, as seen by algorithms.
///
/// Each undirected channel `(a, b)` yields two `EdgeRef`s: `a → b` and
/// `b → a`. Cost and capacity closures receive an `EdgeRef` so they can
/// price the two directions differently (directed channel balances).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// The undirected channel this direction belongs to.
    pub id: ChannelId,
    /// Tail of the directed edge.
    pub from: NodeId,
    /// Head of the directed edge.
    pub to: NodeId,
}

impl EdgeRef {
    /// The same channel traversed in the opposite direction.
    pub fn reversed(self) -> EdgeRef {
        EdgeRef {
            id: self.id,
            from: self.to,
            to: self.from,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Edge {
    a: NodeId,
    b: NodeId,
    /// Tombstone flag: a closed channel keeps its dense id (so funds,
    /// queues and price tables stay index-stable) but leaves the
    /// adjacency, making it invisible to every search.
    closed: bool,
}

/// One adjacency slot: the channel id in the low 31 bits of `tag`, the
/// neighbour in `to`. Bit 31 of `tag` marks the entry *skipped* (its
/// channel closed, or superseded by a reopen) so iteration can reject it
/// from the entry itself — no random access into the edge table, which is
/// what keeps the hot loop cache-dense. 8 bytes total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AdjEntry {
    tag: u32,
    to: NodeId,
}

/// Bit 31 of [`AdjEntry::tag`]: set = skip this entry at iteration.
const SKIP: u32 = 1 << 31;
/// Bit 31 of `row_offsets[v]`: set = node `v` has delta-overlay entries.
/// Stealing the bit from a word the iterator already loads means the
/// common no-overlay case never touches the `delta` spine — on a
/// 100k-node world that spine is 2.4 MB of `Vec` headers, a guaranteed
/// cache miss per visited node. Offsets therefore address at most
/// 2³¹ − 1 entries, which the edge-count assert already guarantees.
const HAS_DELTA: u32 = 1 << 31;
/// A skipped entry that no longer corresponds to any channel state (its
/// channel was reopened and re-appended elsewhere). Dropped at compaction
/// like any flagged entry; never matched by close/reopen scans.
const DEAD: u32 = u32::MAX;
/// Compaction watermark floor: below this many overlay entries (delta +
/// flagged) the graph never compacts implicitly, so small test graphs see
/// exactly one epoch bump per mutation.
const COMPACT_MIN_OVERLAY: usize = 256;

/// An undirected multigraph over nodes `0..n`.
///
/// Nodes are dense indices ([`NodeId`]); channels are dense indices
/// ([`ChannelId`]) in insertion order. Parallel channels between the same
/// node pair are allowed (they are distinct channels with their own funds);
/// self-loops are rejected.
///
/// The adjacency is compressed-sparse-row with a per-node delta overlay;
/// neighbour iteration order is the insertion order a `Vec<Vec<…>>`
/// adjacency would produce (closures remove in place, reopens append),
/// so search results are layout-independent. See the crate docs' *memory
/// layout* section.
///
/// # Examples
///
/// ```
/// use pcn_graph::Graph;
/// use pcn_types::NodeId;
///
/// let mut g = Graph::new(3);
/// let ch = g.add_edge(NodeId::new(0), NodeId::new(1));
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.endpoints(ch).unwrap(), (NodeId::new(0), NodeId::new(1)));
/// assert_eq!(g.degree(NodeId::new(1)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    edges: Vec<Edge>,
    /// Dense CSR entries; node `v`'s row is
    /// `csr[row_offsets[v]..row_offsets[v + 1]]`.
    csr: Vec<AdjEntry>,
    /// `node_count() + 1` offsets into `csr`; bit 31 of `row_offsets[v]`
    /// is the [`HAS_DELTA`] flag (mask with `!HAS_DELTA` before use).
    /// Nodes added after the last compaction have an empty CSR row
    /// (their entries live in `delta`).
    row_offsets: Vec<u32>,
    /// Per-node append overlay for channels opened since the last
    /// compaction; iterated after the CSR row. Consulted only when the
    /// node's [`HAS_DELTA`] offset bit is set.
    delta: Vec<Vec<AdjEntry>>,
    /// Per-node count of live (unflagged) entries — the open degree.
    live_deg: Vec<u32>,
    /// Total entries across all delta rows.
    delta_entries: usize,
    /// Flagged (skip-marked) entries across CSR and delta.
    flagged_entries: usize,
    /// Completed compaction passes; see [`Graph::compactions`].
    compactions: u64,
    /// Monotone mutation counter; see [`Graph::topology_epoch`].
    topology_epoch: u64,
    /// Number of edges currently closed (tombstoned).
    closed_count: usize,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

/// Memory-shape snapshot of a [`Graph`]'s adjacency, from
/// [`Graph::adjacency_stats`]. Used by the large-world benchmarks to
/// report bytes/node and bytes/entry against the crate's ≤ 16
/// bytes-per-neighbour-entry budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdjacencyStats {
    /// Entries in the dense CSR array (live + flagged).
    pub csr_entries: usize,
    /// Entries in the per-node delta overlay (live + flagged).
    pub delta_entries: usize,
    /// Flagged (skipped) entries across both.
    pub flagged_entries: usize,
    /// Bytes per adjacency entry (the `(tag, neighbour)` slot).
    pub entry_bytes: usize,
    /// Bytes held by the row-offset table.
    pub offset_bytes: usize,
    /// Compaction passes completed so far.
    pub compactions: u64,
}

impl AdjacencyStats {
    /// Total bytes held by adjacency entries (CSR + delta, excluding
    /// delta `Vec` headers and the offset table).
    pub fn entry_total_bytes(&self) -> usize {
        (self.csr_entries + self.delta_entries) * self.entry_bytes
    }
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            csr: Vec::new(),
            row_offsets: vec![0; n + 1],
            delta: vec![Vec::new(); n],
            live_deg: vec![0; n],
            delta_entries: 0,
            flagged_entries: 0,
            compactions: 0,
            topology_epoch: 0,
            closed_count: 0,
        }
    }

    /// Builds a graph with `n` nodes and the given channels in one pass,
    /// directly into the dense CSR arrays — no per-node `Vec` growth, no
    /// delta overlay. Channel ids are assigned in list order; the
    /// adjacency (and therefore every search) is bit-identical to calling
    /// [`Graph::add_edge`] for each pair in sequence. O(V + E).
    ///
    /// This is the generator path: 100k-node worlds materialize without
    /// an O(E)-reallocation churn phase. The topology epoch ends at
    /// `pairs.len()`, exactly as the incremental build would.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops, like
    /// [`Graph::add_edge`].
    pub fn from_edges(n: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        let mut live_deg = vec![0u32; n];
        for &(a, b) in pairs {
            assert!(a.index() < n, "node {a} out of range");
            assert!(b.index() < n, "node {b} out of range");
            assert_ne!(a, b, "self-loop channels are not allowed");
            live_deg[a.index()] += 1;
            live_deg[b.index()] += 1;
        }
        assert!(pairs.len() < (SKIP / 2 - 1) as usize, "too many edges");
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        row_offsets.push(0);
        for &d in &live_deg {
            acc += d;
            row_offsets.push(acc);
        }
        // Fill each row in ascending channel-id order: a per-node write
        // cursor walks its CSR range exactly as sequential `add_edge`
        // pushes would have.
        let mut cursor: Vec<u32> = row_offsets[..n].to_vec();
        let mut csr = vec![
            AdjEntry {
                tag: DEAD,
                to: NodeId::new(0)
            };
            acc as usize
        ];
        let mut edges = Vec::with_capacity(pairs.len());
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let tag = i as u32;
            csr[cursor[a.index()] as usize] = AdjEntry { tag, to: b };
            cursor[a.index()] += 1;
            csr[cursor[b.index()] as usize] = AdjEntry { tag, to: a };
            cursor[b.index()] += 1;
            edges.push(Edge {
                a,
                b,
                closed: false,
            });
        }
        Graph {
            edges,
            csr,
            row_offsets,
            delta: vec![Vec::new(); n],
            live_deg,
            delta_entries: 0,
            flagged_entries: 0,
            compactions: 0,
            topology_epoch: pairs.len() as u64,
            closed_count: 0,
        }
    }

    /// The topology epoch: bumped on every structural mutation
    /// ([`Graph::add_node`] / [`Graph::add_edge`] /
    /// [`Graph::close_channel`] / [`Graph::reopen_channel`], and once per
    /// [`Graph::compact`] pass).
    ///
    /// Epoch-versioned caches (the routing layer's `PathCache`) snapshot
    /// this value when they memoize a path computation and treat the
    /// entry as stale once it moves — the invalidation half of the
    /// contract that keeps cached results bit-identical to recomputation.
    /// The counter is per-instance (a `clone()` carries the current value
    /// and the two instances advance independently), so a cache must
    /// observe the same `Graph` instance it keys on.
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.live_deg.len()
    }

    /// Number of undirected channels.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.delta.push(Vec::new());
        self.live_deg.push(0);
        // The new node's CSR row is empty: duplicate the trailing offset
        // (the trailing slot is past every node, so it never carries the
        // HAS_DELTA flag).
        let end = *self.row_offsets.last().expect("offsets never empty");
        self.row_offsets.push(end);
        self.topology_epoch += 1;
        NodeId::from_index(self.live_deg.len() - 1)
    }

    /// Adds an undirected channel between `a` and `b` and returns its id.
    ///
    /// The entries land in the delta overlay (visible immediately, after
    /// each endpoint's CSR row) and fold into the dense arrays at the
    /// next compaction.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or if `a == b` (self-loop).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> ChannelId {
        let n = self.node_count();
        assert!(a.index() < n, "node {a} out of range");
        assert!(b.index() < n, "node {b} out of range");
        assert_ne!(a, b, "self-loop channels are not allowed");
        // Tag bit 31 is the skip flag and `u32::MAX` the dead sentinel,
        // so raw channel ids must stay below both; offsets steal bit 31
        // too, capping entries (2 per edge) at 2³¹ − 1.
        assert!(self.edges.len() < (SKIP / 2 - 1) as usize, "too many edges");
        let id = self.edges.len() as u32;
        self.edges.push(Edge {
            a,
            b,
            closed: false,
        });
        self.delta[a.index()].push(AdjEntry { tag: id, to: b });
        self.delta[b.index()].push(AdjEntry { tag: id, to: a });
        self.row_offsets[a.index()] |= HAS_DELTA;
        self.row_offsets[b.index()] |= HAS_DELTA;
        self.delta_entries += 2;
        self.live_deg[a.index()] += 1;
        self.live_deg[b.index()] += 1;
        self.topology_epoch += 1;
        self.maybe_compact();
        ChannelId::new(id)
    }

    /// Closes channel `id`: it disappears from the adjacency (every
    /// search, [`Graph::degree`], [`Graph::edge_between`] and neighbour
    /// iteration stop seeing it) while the edge slot — and the dense id
    /// space every side table indexes by — survives as a tombstone.
    /// [`Graph::endpoints`] keeps answering for closed channels so
    /// in-flight state (locked funds awaiting refund) can still unwind.
    /// Bumps the topology epoch.
    ///
    /// The adjacency entries are flagged in place, so the iteration order
    /// of the surviving entries is untouched — the same order `retain` on
    /// a `Vec<Vec<…>>` adjacency would leave.
    ///
    /// # Errors
    ///
    /// [`PcnError::UnknownChannel`] for a bad id or a channel that is
    /// already closed.
    pub fn close_channel(&mut self, id: ChannelId) -> Result<()> {
        let edge = self
            .edges
            .get_mut(id.index())
            .filter(|e| !e.closed)
            .ok_or(PcnError::UnknownChannel(id))?;
        edge.closed = true;
        let (a, b) = (edge.a, edge.b);
        let raw = id.raw();
        self.flag_entry(a, raw);
        self.flag_entry(b, raw);
        self.live_deg[a.index()] -= 1;
        self.live_deg[b.index()] -= 1;
        self.closed_count += 1;
        self.topology_epoch += 1;
        self.maybe_compact();
        Ok(())
    }

    /// Reopens a previously closed channel: its adjacency entries are
    /// restored (appended, deterministically) and searches see it again.
    /// Bumps the topology epoch.
    ///
    /// The closed entry — if compaction has not already dropped it — is
    /// retired to the dead state and a fresh entry is appended to the
    /// delta overlay, reproducing the `Vec<Vec<…>>` "reopen appends at
    /// the end" order either way.
    ///
    /// # Errors
    ///
    /// [`PcnError::UnknownChannel`] for a bad id or a channel that is not
    /// closed.
    pub fn reopen_channel(&mut self, id: ChannelId) -> Result<()> {
        let edge = self
            .edges
            .get_mut(id.index())
            .filter(|e| e.closed)
            .ok_or(PcnError::UnknownChannel(id))?;
        edge.closed = false;
        let (a, b) = (edge.a, edge.b);
        let raw = id.raw();
        self.kill_flagged(a, raw);
        self.kill_flagged(b, raw);
        self.delta[a.index()].push(AdjEntry { tag: raw, to: b });
        self.delta[b.index()].push(AdjEntry { tag: raw, to: a });
        self.row_offsets[a.index()] |= HAS_DELTA;
        self.row_offsets[b.index()] |= HAS_DELTA;
        self.delta_entries += 2;
        self.live_deg[a.index()] += 1;
        self.live_deg[b.index()] += 1;
        self.closed_count -= 1;
        self.topology_epoch += 1;
        self.maybe_compact();
        Ok(())
    }

    /// Finds the live adjacency entry for channel `raw` in `v`'s row and
    /// flags it skipped.
    // splicer-lint: allow(r3) — private half-step helper; its only callers
    // (close_channel/reopen_channel) bump topology_epoch themselves
    fn flag_entry(&mut self, v: NodeId, raw: u32) {
        let v = v.index();
        let start = (self.row_offsets[v] & !HAS_DELTA) as usize;
        let end = (self.row_offsets[v + 1] & !HAS_DELTA) as usize;
        let hit = self.csr[start..end]
            .iter_mut()
            .chain(self.delta[v].iter_mut())
            .find(|e| e.tag == raw)
            .expect("open channel must have a live adjacency entry");
        hit.tag = raw | SKIP;
        self.flagged_entries += 1;
    }

    /// Retires `v`'s flagged entry for channel `raw` to the dead state so
    /// a later close of the reopened channel cannot match the stale slot.
    /// Tolerates absence: compaction may have dropped the entry already.
    // splicer-lint: allow(r3) — private half-step helper; its only caller
    // (reopen_channel) bumps topology_epoch itself
    fn kill_flagged(&mut self, v: NodeId, raw: u32) {
        let v = v.index();
        let start = (self.row_offsets[v] & !HAS_DELTA) as usize;
        let end = (self.row_offsets[v + 1] & !HAS_DELTA) as usize;
        if let Some(e) = self.csr[start..end]
            .iter_mut()
            .chain(self.delta[v].iter_mut())
            .find(|e| e.tag == (raw | SKIP))
        {
            e.tag = DEAD;
        }
    }

    /// Compacts when the overlay (delta + flagged entries) crosses the
    /// watermark: `max(256, csr_len / 8)`. The floor keeps small test
    /// graphs from compacting implicitly; the proportional term bounds
    /// both the per-iteration skip overhead and the amortized rebuild
    /// cost (a compaction is O(V + E), triggered at most once per E/8
    /// mutations).
    fn maybe_compact(&mut self) {
        if self.delta_entries + self.flagged_entries >= COMPACT_MIN_OVERLAY.max(self.csr.len() / 8)
        {
            self.compact();
        }
    }

    /// Folds the delta overlay back into the dense CSR arrays and drops
    /// flagged entries, preserving visible iteration order exactly.
    /// Deterministic; bumps the topology epoch exactly once. Usually
    /// triggered by the internal watermark — public so embedders with a
    /// natural quiesce point (end of a churn burst) can compact eagerly.
    pub fn compact(&mut self) {
        let n = self.node_count();
        let live_total: usize = self.live_deg.iter().map(|&d| d as usize).sum();
        let mut csr = Vec::with_capacity(live_total);
        let mut row_offsets = Vec::with_capacity(n + 1);
        row_offsets.push(0);
        for v in 0..n {
            let start = (self.row_offsets[v] & !HAS_DELTA) as usize;
            let end = (self.row_offsets[v + 1] & !HAS_DELTA) as usize;
            csr.extend(
                self.csr[start..end]
                    .iter()
                    .chain(self.delta[v].iter())
                    .filter(|e| e.tag & SKIP == 0),
            );
            row_offsets.push(csr.len() as u32);
        }
        // The rebuilt offsets carry no HAS_DELTA flags: every overlay
        // row is folded in and cleared below.
        self.csr = csr;
        self.row_offsets = row_offsets;
        for d in &mut self.delta {
            d.clear();
        }
        self.delta_entries = 0;
        self.flagged_entries = 0;
        self.compactions += 1;
        self.topology_epoch += 1;
    }

    /// Number of compaction passes completed so far. Deterministic for a
    /// deterministic mutation sequence — the engine surfaces it in its
    /// run stats so determinism tests can pin that churn actually crossed
    /// the watermark.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Memory-shape snapshot of the adjacency; see [`AdjacencyStats`].
    pub fn adjacency_stats(&self) -> AdjacencyStats {
        AdjacencyStats {
            csr_entries: self.csr.len(),
            delta_entries: self.delta_entries,
            flagged_entries: self.flagged_entries,
            entry_bytes: std::mem::size_of::<AdjEntry>(),
            offset_bytes: self.row_offsets.len() * std::mem::size_of::<u32>(),
            compactions: self.compactions,
        }
    }

    /// Whether channel `id` is currently closed (unknown ids are not).
    pub fn is_closed(&self, id: ChannelId) -> bool {
        self.edges.get(id.index()).is_some_and(|e| e.closed)
    }

    /// Number of channels currently open (edge count minus tombstones).
    pub fn open_edge_count(&self) -> usize {
        self.edges.len() - self.closed_count
    }

    /// Iterates over the ids of the currently open channels, ascending.
    pub fn open_edges(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.closed)
            .map(|(i, _)| ChannelId::from_index(i))
    }

    /// Returns the endpoints of channel `id` in insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`PcnError::UnknownChannel`] if the channel does not exist.
    pub fn endpoints(&self, id: ChannelId) -> Result<(NodeId, NodeId)> {
        self.edges
            .get(id.index())
            .map(|e| (e.a, e.b))
            .ok_or(PcnError::UnknownChannel(id))
    }

    /// Returns the endpoint of `id` opposite to `node`.
    ///
    /// # Errors
    ///
    /// Returns [`PcnError::UnknownChannel`] for a bad channel id and
    /// [`PcnError::UnknownNode`] if `node` is not an endpoint.
    pub fn other_endpoint(&self, id: ChannelId, node: NodeId) -> Result<NodeId> {
        let (a, b) = self.endpoints(id)?;
        if node == a {
            Ok(b)
        } else if node == b {
            Ok(a)
        } else {
            Err(PcnError::UnknownNode(node))
        }
    }

    /// Whether any channel directly connects `a` and `b`.
    pub fn has_edge_between(&self, a: NodeId, b: NodeId) -> bool {
        self.edges_of(a).any(|e| e.to == b)
    }

    /// Returns the first channel between `a` and `b`, if any.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<ChannelId> {
        self.edges_of(a).find(|e| e.to == b).map(|e| e.id)
    }

    /// Degree (number of incident open channels) of `node`. O(1) — the
    /// live count is maintained across opens/closes, never recounted.
    pub fn degree(&self, node: NodeId) -> usize {
        self.live_deg.get(node.index()).map_or(0, |&d| d as usize)
    }

    /// Iterates over the directed edges leaving `node` — `node`'s CSR row
    /// then its delta overlay, skipping flagged entries. Exact-size (the
    /// length is [`Graph::degree`], fetched lazily so plain iteration
    /// never reads the degree table); out-of-range nodes yield an empty
    /// iterator.
    ///
    /// The only per-call structural reads are `row_offsets[v..=v + 1]`
    /// and the CSR row itself: the overlay spine is consulted only when
    /// the offset's `HAS_DELTA` bit says the node has overlay entries.
    pub fn edges_of(&self, node: NodeId) -> EdgesOf<'_> {
        let v = node.index();
        let (row, delta) = match self.row_offsets.get(v + 1) {
            Some(&end) => {
                let start = self.row_offsets[v];
                let row = &self.csr[(start & !HAS_DELTA) as usize..(end & !HAS_DELTA) as usize];
                let delta = if start & HAS_DELTA == 0 {
                    &[][..]
                } else {
                    self.delta[v].as_slice()
                };
                (row, delta)
            }
            None => (&[][..], &[][..]),
        };
        EdgesOf {
            csr: row.iter(),
            delta: delta.iter(),
            from: node,
            live_deg: &self.live_deg,
            yielded: 0,
        }
    }

    /// Iterates over the directed edges leaving `node`. Alias of
    /// [`Graph::edges_of`], kept for the original API shape.
    pub fn out_edges(&self, node: NodeId) -> EdgesOf<'_> {
        self.edges_of(node)
    }

    /// Iterates over the neighbours of `node` (with multiplicity).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges_of(node).map(|e| e.to)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over all channel ids, **including closed tombstones** —
    /// the dense id space side tables are built over. Use
    /// [`Graph::open_edges`] for the channels searches can traverse.
    pub fn edges(&self) -> impl Iterator<Item = ChannelId> {
        (0..self.edges.len()).map(ChannelId::from_index)
    }

    /// Iterates over both directed views of every **open** channel
    /// (closed tombstones are invisible, like in the adjacency).
    pub fn directed_edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.closed)
            .flat_map(|(i, e)| {
                let id = ChannelId::from_index(i);
                [
                    EdgeRef {
                        id,
                        from: e.a,
                        to: e.b,
                    },
                    EdgeRef {
                        id,
                        from: e.b,
                        to: e.a,
                    },
                ]
            })
    }

    /// Shortest path by generalized edge cost (Dijkstra).
    ///
    /// `cost` returns the cost of traversing a directed edge, or `None` if
    /// the edge is unusable in that direction. Non-finite or negative costs
    /// are treated as unusable.
    ///
    /// Returns `None` when no path exists.
    pub fn shortest_path<F>(&self, from: NodeId, to: NodeId, cost: F) -> Option<(f64, Path)>
    where
        F: FnMut(EdgeRef) -> Option<f64>,
    {
        crate::dijkstra::shortest_path(self, from, to, cost)
    }

    /// [`Graph::shortest_path`] on the reusable buffers of a
    /// [`crate::SearchWorkspace`]: repeated queries are allocation-free
    /// (apart from the returned [`Path`]) and bit-identical to the
    /// allocating form.
    pub fn shortest_path_in<F>(
        &self,
        ws: &mut crate::SearchWorkspace,
        from: NodeId,
        to: NodeId,
        cost: F,
    ) -> Option<(f64, Path)>
    where
        F: FnMut(EdgeRef) -> Option<f64>,
    {
        crate::dijkstra::shortest_path_in(self, ws, from, to, cost)
    }

    /// [`Graph::shortest_path_in`] for unit costs (every usable edge
    /// costs exactly 1), as a bidirectional BFS; see
    /// [`crate::shortest_path_accel_in`]. Bit-identical results.
    pub fn shortest_path_accel_in<F>(
        &self,
        ws: &mut crate::SearchWorkspace,
        from: NodeId,
        to: NodeId,
        cost: F,
    ) -> Option<(f64, Path)>
    where
        F: FnMut(EdgeRef) -> Option<f64>,
    {
        crate::accel::shortest_path_accel_in(self, ws, from, to, cost)
    }
}

impl crate::Topology for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        Graph::edges_of(self, node)
    }

    fn directed_edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        Graph::directed_edges(self)
    }

    fn endpoints(&self, id: ChannelId) -> Result<(NodeId, NodeId)> {
        Graph::endpoints(self, id)
    }

    fn degree(&self, node: NodeId) -> usize {
        Graph::degree(self, node)
    }
}

/// Iterator over the directed edges leaving one node: the node's CSR row
/// followed by its delta overlay, flagged entries skipped. Exact-size —
/// the number of live entries is the node's degree, read from the degree
/// table only when `len`/`size_hint` is actually called (so hot search
/// loops that just iterate touch nothing but offsets and entries).
#[derive(Clone, Debug)]
pub struct EdgesOf<'g> {
    csr: std::slice::Iter<'g, AdjEntry>,
    delta: std::slice::Iter<'g, AdjEntry>,
    from: NodeId,
    live_deg: &'g [u32],
    yielded: u32,
}

impl Iterator for EdgesOf<'_> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<EdgeRef> {
        loop {
            let e = match self.csr.next() {
                Some(e) => e,
                None => self.delta.next()?,
            };
            if e.tag & SKIP == 0 {
                self.yielded += 1;
                return Some(EdgeRef {
                    id: ChannelId::new(e.tag),
                    from: self.from,
                    to: e.to,
                });
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = self
            .live_deg
            .get(self.from.index())
            .map_or(0, |&d| d as usize);
        let left = total - self.yielded as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for EdgesOf<'_> {}

pub use crate::path::Path;

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0-1, 1-3, 0-2, 2-3
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(1), NodeId::new(3));
        g.add_edge(NodeId::new(0), NodeId::new(2));
        g.add_edge(NodeId::new(2), NodeId::new(3));
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(3)), 2);
    }

    #[test]
    fn add_node_extends() {
        let mut g = diamond();
        let n = g.add_node();
        assert_eq!(n, NodeId::new(4));
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.degree(n), 0);
    }

    #[test]
    fn endpoints_and_other() {
        let g = diamond();
        let ch = ChannelId::new(0);
        assert_eq!(g.endpoints(ch).unwrap(), (NodeId::new(0), NodeId::new(1)));
        assert_eq!(
            g.other_endpoint(ch, NodeId::new(0)).unwrap(),
            NodeId::new(1)
        );
        assert_eq!(
            g.other_endpoint(ch, NodeId::new(1)).unwrap(),
            NodeId::new(0)
        );
        assert_eq!(
            g.other_endpoint(ch, NodeId::new(2)),
            Err(PcnError::UnknownNode(NodeId::new(2)))
        );
        assert_eq!(
            g.endpoints(ChannelId::new(99)),
            Err(PcnError::UnknownChannel(ChannelId::new(99)))
        );
    }

    #[test]
    fn adjacency_queries() {
        let g = diamond();
        assert!(g.has_edge_between(NodeId::new(0), NodeId::new(1)));
        assert!(!g.has_edge_between(NodeId::new(0), NodeId::new(3)));
        assert_eq!(
            g.edge_between(NodeId::new(0), NodeId::new(2)),
            Some(ChannelId::new(2))
        );
        assert_eq!(g.edge_between(NodeId::new(0), NodeId::new(3)), None);
        let mut nb: Vec<_> = g.neighbors(NodeId::new(0)).collect();
        nb.sort();
        assert_eq!(nb, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn out_edges_directed() {
        let g = diamond();
        let outs: Vec<_> = g.out_edges(NodeId::new(3)).collect();
        assert_eq!(outs.len(), 2);
        for e in outs {
            assert_eq!(e.from, NodeId::new(3));
            assert!(e.to == NodeId::new(1) || e.to == NodeId::new(2));
            assert_eq!(e.reversed().from, e.to);
            assert_eq!(e.reversed().id, e.id);
        }
    }

    #[test]
    fn directed_edges_doubles() {
        let g = diamond();
        assert_eq!(g.directed_edges().count(), 8);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::new(2);
        let c1 = g.add_edge(NodeId::new(0), NodeId::new(1));
        let c2 = g.add_edge(NodeId::new(0), NodeId::new(1));
        assert_ne!(c1, c2);
        assert_eq!(g.degree(NodeId::new(0)), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId::new(1), NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId::new(0), NodeId::new(5));
    }

    #[test]
    fn topology_epoch_tracks_mutations() {
        let mut g = Graph::new(2);
        assert_eq!(g.topology_epoch(), 0);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        assert_eq!(g.topology_epoch(), 1);
        g.add_node();
        assert_eq!(g.topology_epoch(), 2);
        // Clones carry the value and then advance independently.
        let mut c = g.clone();
        c.add_node();
        assert_eq!(g.topology_epoch(), 2);
        assert_eq!(c.topology_epoch(), 3);
    }

    #[test]
    fn close_hides_channel_everywhere_but_endpoints() {
        let mut g = diamond();
        let ch = ChannelId::new(0); // 0-1
        let epoch = g.topology_epoch();
        g.close_channel(ch).unwrap();
        assert!(g.is_closed(ch));
        assert_eq!(g.topology_epoch(), epoch + 1);
        assert_eq!(g.open_edge_count(), 3);
        assert_eq!(g.edge_count(), 4, "the dense id space is untouched");
        // Adjacency-derived views no longer see the channel…
        assert!(!g.has_edge_between(NodeId::new(0), NodeId::new(1)));
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert!(g.out_edges(NodeId::new(0)).all(|e| e.id != ch));
        assert_eq!(g.directed_edges().count(), 6);
        assert!(g.open_edges().all(|c| c != ch));
        // …but endpoints still resolve (in-flight unwinding needs them).
        assert_eq!(g.endpoints(ch).unwrap(), (NodeId::new(0), NodeId::new(1)));
        // No path 0→1 except via 2-3.
        let (cost, _) = g
            .shortest_path(NodeId::new(0), NodeId::new(1), |_| Some(1.0))
            .expect("detour exists");
        assert_eq!(cost, 3.0);
        // Double close is an error.
        assert!(g.close_channel(ch).is_err());
    }

    #[test]
    fn reopen_restores_searchability() {
        let mut g = diamond();
        let ch = ChannelId::new(0);
        g.close_channel(ch).unwrap();
        let epoch = g.topology_epoch();
        g.reopen_channel(ch).unwrap();
        assert!(!g.is_closed(ch));
        assert_eq!(g.topology_epoch(), epoch + 1);
        assert_eq!(g.open_edge_count(), 4);
        assert!(g.has_edge_between(NodeId::new(0), NodeId::new(1)));
        let (cost, p) = g
            .shortest_path(NodeId::new(0), NodeId::new(1), |_| Some(1.0))
            .unwrap();
        assert_eq!(cost, 1.0);
        assert_eq!(p.channels(), [ch]);
        // Reopening an open channel is an error.
        assert!(g.reopen_channel(ch).is_err());
        assert!(g.reopen_channel(ChannelId::new(99)).is_err());
    }

    #[test]
    fn close_preserves_remaining_adjacency_order() {
        let mut g = Graph::new(3);
        let c0 = g.add_edge(NodeId::new(0), NodeId::new(1));
        let c1 = g.add_edge(NodeId::new(0), NodeId::new(2));
        let c2 = g.add_edge(NodeId::new(0), NodeId::new(1));
        g.close_channel(c1).unwrap();
        let order: Vec<ChannelId> = g.out_edges(NodeId::new(0)).map(|e| e.id).collect();
        assert_eq!(order, vec![c0, c2], "close keeps insertion order");
        g.reopen_channel(c1).unwrap();
        let order: Vec<ChannelId> = g.out_edges(NodeId::new(0)).map(|e| e.id).collect();
        assert_eq!(order, vec![c0, c2, c1], "reopen appends deterministically");
    }

    #[test]
    fn empty_graph_iterators() {
        let g = Graph::new(0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.degree(NodeId::new(0)), 0);
        assert_eq!(g.out_edges(NodeId::new(0)).count(), 0);
    }

    #[test]
    fn from_edges_matches_incremental_build() {
        let pairs: Vec<(NodeId, NodeId)> = vec![
            (NodeId::new(0), NodeId::new(1)),
            (NodeId::new(1), NodeId::new(3)),
            (NodeId::new(0), NodeId::new(2)),
            (NodeId::new(2), NodeId::new(3)),
            (NodeId::new(0), NodeId::new(1)), // parallel channel
        ];
        let bulk = Graph::from_edges(4, &pairs);
        let mut inc = Graph::new(4);
        for &(a, b) in &pairs {
            inc.add_edge(a, b);
        }
        assert_eq!(bulk.topology_epoch(), inc.topology_epoch());
        assert_eq!(bulk.edge_count(), inc.edge_count());
        for v in bulk.nodes() {
            assert_eq!(bulk.degree(v), inc.degree(v));
            let b: Vec<_> = bulk.out_edges(v).collect();
            let i: Vec<_> = inc.out_edges(v).collect();
            assert_eq!(b, i, "row order of node {v} must match add_edge order");
        }
        // Bulk build is already dense: no overlay entries.
        let stats = bulk.adjacency_stats();
        assert_eq!(stats.delta_entries, 0);
        assert_eq!(stats.csr_entries, 2 * pairs.len());
        assert_eq!(stats.entry_bytes, 8, "AdjEntry must stay 8 bytes");
    }

    #[test]
    fn compaction_preserves_order_and_bumps_epoch_once() {
        let mut g = Graph::new(3);
        let c0 = g.add_edge(NodeId::new(0), NodeId::new(1));
        let c1 = g.add_edge(NodeId::new(0), NodeId::new(2));
        let c2 = g.add_edge(NodeId::new(0), NodeId::new(1));
        g.close_channel(c1).unwrap();
        g.reopen_channel(c1).unwrap();
        let before: Vec<Vec<EdgeRef>> = g.nodes().map(|v| g.out_edges(v).collect()).collect();
        let epoch = g.topology_epoch();
        let compactions = g.compactions();
        g.compact();
        assert_eq!(g.topology_epoch(), epoch + 1, "exactly one epoch bump");
        assert_eq!(g.compactions(), compactions + 1);
        let after: Vec<Vec<EdgeRef>> = g.nodes().map(|v| g.out_edges(v).collect()).collect();
        assert_eq!(before, after, "compaction must not reorder visible entries");
        let stats = g.adjacency_stats();
        assert_eq!(stats.delta_entries, 0);
        assert_eq!(stats.flagged_entries, 0);
        assert_eq!(stats.csr_entries, 6);
        // A channel closed before compaction can still reopen after it
        // (its flagged entry is gone; reopen appends a fresh one).
        g.close_channel(c0).unwrap();
        g.compact();
        g.reopen_channel(c0).unwrap();
        let order: Vec<ChannelId> = g.out_edges(NodeId::new(0)).map(|e| e.id).collect();
        assert_eq!(order, vec![c2, c1, c0]);
        assert_eq!(g.degree(NodeId::new(0)), 3);
    }

    #[test]
    fn watermark_triggers_compaction_under_churn() {
        // 300 opens push 600 delta entries past the 256-entry floor.
        let mut g = Graph::new(2);
        for _ in 0..300 {
            g.add_edge(NodeId::new(0), NodeId::new(1));
        }
        assert!(g.compactions() > 0, "watermark must have fired");
        let stats = g.adjacency_stats();
        assert!(
            stats.delta_entries + stats.flagged_entries
                < COMPACT_MIN_OVERLAY.max(stats.csr_entries / 8) + 2,
            "overlay stays under the watermark"
        );
        // Every channel is still visible, in insertion order.
        let order: Vec<ChannelId> = g.out_edges(NodeId::new(0)).map(|e| e.id).collect();
        assert_eq!(order.len(), 300);
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn edges_of_is_exact_size() {
        let mut g = diamond();
        let it = g.edges_of(NodeId::new(0));
        assert_eq!(it.len(), 2);
        assert_eq!(it.count(), 2);
        g.close_channel(ChannelId::new(0)).unwrap();
        let it = g.edges_of(NodeId::new(0));
        assert_eq!(it.len(), 1);
        assert_eq!(g.edges_of(NodeId::new(9)).len(), 0);
    }
}
