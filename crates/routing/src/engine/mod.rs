//! The discrete-event PCN engine.
//!
//! One general machine executes every scheme: payment arrivals pass
//! through a route-computation service queue (source device or hub), the
//! resulting path plan feeds a per-transaction flow (TU backlog + rate
//! controller + windows for rate-controlled schemes, or an immediate
//! multi-path blast for the others), TUs traverse hops with per-hop
//! delay, lock funds HTLC-style, queue when a channel direction lacks
//! funds (congestion-controlled schemes only), get marked when queueing
//! exceeds the threshold T, and settle hop-by-hop as the acknowledgement
//! travels back. Prices tick every τ (eqs. 21–26).
//!
//! The module is layered by lifecycle stage:
//!
//! * [`mod@self`] — the [`Engine`] state, its event vocabulary and the
//!   dispatch loop.
//! * `arrivals` — payment admission, route-computation service queues
//!   and path planning per scheme (`RouteVia`).
//! * `lifecycle` — TU injection, hop traversal, settlement,
//!   acknowledgement and the abort/refund/retry paths.
//! * `control` — the periodic control plane: price ticks, queue expiry
//!   and marking, rate updates, hub state synchronization.
//! * `world` — the dynamic-world stage: timeline events (hub outages,
//!   channel churn, liquidity rebalances, rate-shift markers) mutate the
//!   topology and funds mid-run, deterministically at their timestamps
//!   on the event queue's world lane. Closures expire in-flight TUs
//!   through the refund path and bump `Graph::topology_epoch`, so every
//!   cached plan re-derives lazily on its next miss.
//!
//! Simplifications vs. a production deployment: channel processing
//! rate `r_process` is unbounded (congestion arises from funds, queues
//! and windows); failure unwinding refunds instantly (the refund
//! messages are counted in overhead but not delayed).
//!
//! # The allocation-free hot path
//!
//! The per-event loop is index-dense and steady-state allocation-free
//! (pinned by `hot_loop_steady_state_is_allocation_free` under a
//! counting allocator):
//!
//! * **State tables are arenas**, not hash maps (`engine/arena.rs`).
//!   [`pcn_types::TxId`]s index a dense table directly. A
//!   [`pcn_types::TuId`] is a generational `(generation, slot)` handle
//!   into a slab: a TU's slot **may be recycled as soon as the TU
//!   settles or aborts**, because removal bumps the slot's generation
//!   and any stale event still holding the old handle (a `SettleHop`
//!   racing an abort, a `HopArrive` for a delivered TU) misses on the
//!   generation compare — the exact semantics stale `HashMap` lookups
//!   had, at the cost of an index instead of a hash.
//! * **Paths are shared, not cloned**: every TU holds its flow's
//!   `Arc<[Path]>` plan (itself shared with the path cache) and an
//!   index into it.
//! * **The periodic control tick reuses scratch buffers** for queue
//!   expiry, congestion marking and per-path price probes, and the
//!   [`crate::scheduler::WaitQueue`] `*_into` drains fill caller-owned
//!   buffers — a quiet tick allocates nothing.
//! * **Events flow through a calendar queue** ([`EventQueue`]): almost
//!   every event lands at `now`, `now + hop_delay` or the τ tick, so a
//!   bucketed time wheel turns the scheduler's `O(log n)` heap ops into
//!   amortized `O(1)` pushes/pops. Ties at equal timestamps pop in
//!   scheduling order (FIFO) — the determinism contract. A plain binary
//!   heap of `(time, lane, seq)` keys is the test oracle only: the
//!   property suite pins the queue to its pop sequence, op for op.
//!
//! # Only events that can act are scheduled
//!
//! The paper's sender (§IV, eqs. 26–28) sends a path's next TU as soon
//! as its window and rate allow. The engine schedules no event whose
//! handler would find nothing to do:
//!
//! * **Park.** A rate-controlled path's `Inject` that sends nothing
//!   (window closed or backlog empty) parks the path at that instant
//!   `p` and schedules nothing. A send whose next gap would pass the
//!   payment's deadline ends the chain (`Done`); a finished path never
//!   wakes.
//! * **Wake.** A parked path can send again only once its backlog is
//!   non-empty and its window admits, and only two sites can make that
//!   true: an acknowledgement (`on_ack_complete`: `outstanding` falls and
//!   the window grows) and a rate-controlled abort's refill (`abort_tu`:
//!   the backlog grows and `outstanding` falls). Price ticks change
//!   rates, not windows, and marks change no window, so neither wakes a
//!   path. At those two sites every parked path of the payment that can
//!   now send gets one `Inject`, in path order, at the first instant of
//!   its poll grid (spacing `poll` = max(τ/4, 10 ms)) strictly after
//!   `now`: `p + poll·(⌊(now − p)/poll⌋ + 1)`. A path whose instant falls
//!   past the deadline is `Done` instead. That instant is where a path
//!   re-polling every `poll` from `p` would next find itself open, so a
//!   run matches such a polling loop except where a wake pops after a
//!   same-instant event that a poll, sequenced one `poll` earlier,
//!   would have preceded.
//! * **Drains.** A settle or a refund schedules a `QueueDrain` only for
//!   a direction whose queue holds a TU. A skipped drain could only have
//!   served a TU queued after it at the same instant. That TU failed its
//!   lock, so the balance was short of it, and only a later settle or
//!   refund can raise the balance; that settle or refund schedules its
//!   own drain.

mod arena;
mod arrivals;
mod control;
mod lifecycle;
mod world;

#[cfg(test)]
mod tests;

use std::collections::VecDeque;
use std::sync::Arc;

use pcn_graph::{Graph, Path, SearchWorkspace};
use pcn_sim::{EventQueue, SimRng};
use pcn_types::constants::QUEUE_CAPACITY;
use pcn_types::{Amount, ChannelId, NodeId, SimDuration, SimTime, TuId, TxId};

use crate::cache::PathCache;
use crate::channel::NetworkFunds;
use crate::prices::PriceTable;
use crate::rate::RateController;
use crate::scheduler::{QueueEntry, WaitQueue};
use crate::scheme::SchemeConfig;
use crate::stats::RunStats;
use crate::tu::Payment;
use crate::window::WindowController;

/// The engine settings a run varies or reads: the price/probe interval
/// τ (Fig. 7(c,d) sweep it), the TU floor and the two planner toggles.
///
/// Every other protocol value is fixed. The paper's §V-A values (T, the
/// queue bound, Max-TU, β, γ) live in [`pcn_types::constants`]; the
/// engine's own choices (hop delay, price and rate gains, rate bounds,
/// initial rate and window) are constants of this module. A payment's
/// deadline comes with the payment ([`Payment::deadline`]), and Flash's
/// retry budget is part of its scheme ([`SchemeConfig::max_retries`]).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Price/probe update interval τ (paper: 200 ms).
    pub update_interval: SimDuration,
    /// Min TU value (paper: 1 token).
    pub min_tu: Amount,
    /// Serve capacity-only plans (those that read the topology and
    /// channel totals, never live balances) from the topology-epoch
    /// [`PathCache`]; live-balance plans are computed on every plan
    /// either way. The cache is semantics-preserving (hits are
    /// bit-identical to recomputation, pinned by `tests/determinism.rs`),
    /// so this toggle is a pure memory-versus-CPU trade — the one engine
    /// toggle kept for a use beyond A/B testing: a cached run holds up to
    /// [`crate::cache::DEFAULT_CAPACITY`] plans, an uncached run
    /// recomputes every plan.
    pub use_path_cache: bool,
    /// Plan the unit-cost searches goal-directed: a bidirectional BFS
    /// inside every KSP, EDS and Heuristic pool search (Flash's mice
    /// pools included). Off, the same searches run as plain Dijkstra,
    /// the reference. Landmark plans do not read it: they are read off
    /// one BFS tree per landmark either way. The goal-directed searches return bit-identical
    /// paths (they apply plain Dijkstra's parent rule, see the
    /// `pcn-graph` accel module docs), so this toggle is
    /// semantics-preserving modulo the planner-observability counters
    /// (`RunStats::without_planner_counters`); it exists for A/B runs
    /// and the determinism regression.
    pub use_goal_directed: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            update_interval: pcn_types::constants::UPDATE_INTERVAL,
            min_tu: pcn_types::constants::MIN_TU,
            use_path_cache: true,
            use_goal_directed: true,
        }
    }
}

/// One-way per-hop message delay.
const HOP_DELAY: SimDuration = SimDuration::from_millis(40);
/// Capacity-price gain κ (eq. 21).
const KAPPA: f64 = 0.002;
/// Imbalance-price gain η (eq. 22).
const ETA: f64 = 0.01;
/// Rate-update gain α (eq. 26).
const ALPHA: f64 = 0.4;
/// Fee threshold T_fee (eq. 24).
const T_FEE: f64 = 0.1;
/// Rate floor (tokens/sec).
const MIN_RATE: f64 = 1.0;
/// Rate ceiling (tokens/sec).
const MAX_RATE: f64 = 500.0;
/// Starting per-path rate (tokens/sec).
const INITIAL_RATE: f64 = 50.0;
/// Starting per-path window (TUs).
const INITIAL_WINDOW: f64 = 20.0;
/// Floor of a parked path's poll grid spacing, max(τ/4, this).
const MIN_POLL: SimDuration = SimDuration::from_millis(10);

#[derive(Debug)]
pub(super) enum Ev {
    Arrival,
    ComputeDone(TxId),
    Inject(TxId, usize),
    HopArrive(TuId),
    SettleHop(TuId, usize),
    AckComplete(TuId),
    PriceTick,
    Deadline(TxId),
    QueueDrain(u32, bool),
    /// Apply timeline event `i` (world lane).
    World(u32),
    /// Reopen the channels outage `i` closed (world lane).
    WorldRecover(u32),
}

/// Where a rate-controlled path's injection chain stands (see the
/// module docs' park/wake rule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Injector {
    /// An `Inject` event for the path is pending.
    Scheduled,
    /// The path's `Inject` at this instant sent nothing (window closed
    /// or backlog empty); no event is pending until a wake site finds
    /// it able to send.
    Parked(SimTime),
    /// The chain ended: its next instant falls past the deadline. A
    /// finished path never wakes.
    Done,
}

pub(super) struct FlowState {
    /// The payment's path plan — shared with the path cache (a cache hit
    /// hands out the same allocation instead of deep-cloning the plan).
    pub(super) paths: Arc<[Path]>,
    pub(super) rates: Option<RateController>,
    pub(super) windows: WindowController,
    pub(super) outstanding: Vec<usize>,
    /// Per path, its injection chain (rate-controlled flows; empty for
    /// blast flows, which never schedule `Inject`).
    pub(super) injectors: Vec<Injector>,
}

impl FlowState {
    /// Whether path `i` may admit another TU.
    pub(super) fn admits(&self, i: usize) -> bool {
        self.windows.admits(i, self.outstanding[i])
    }
}

/// Runtime adversary state: the installed [`FaultPlan`](crate::fault::FaultPlan)
/// plus the deadlock watchdog's progress tracking. `None` on the engine
/// means the honest fast path — not a single fault branch is taken.
pub(super) struct FaultState {
    pub(super) plan: crate::fault::FaultPlan,
    /// Rogue-hub ranks resolved against this scheme's hub set (flat
    /// schemes have no hubs, so their rogue entries resolve to nothing).
    pub(super) rogue_nodes: Vec<(NodeId, crate::fault::RogueBehavior)>,
    /// Monotone counter bumped on every lock and settle — the watchdog's
    /// notion of forward progress.
    pub(super) progress: u64,
    /// `progress` as of the previous price tick.
    pub(super) last_progress: u64,
    /// A detected deadlock is reported once, not once per tick.
    pub(super) latched: bool,
}

pub(super) struct TxState {
    pub(super) payment: Payment,
    pub(super) flow: Option<FlowState>,
    pub(super) backlog: VecDeque<Amount>,
    pub(super) delivered: Amount,
    pub(super) resolved: bool,
    pub(super) next_path: usize,
}

/// The simulation engine for one (topology, funds, scheme, workload) run.
pub struct Engine {
    pub(super) cfg: EngineConfig,
    pub(super) scheme: SchemeConfig,
    pub(super) graph: Graph,
    pub(super) funds: NetworkFunds,
    pub(super) prices: PriceTable,
    /// Per channel: (queue a→b, queue b→a).
    pub(super) queues: Vec<(WaitQueue, WaitQueue)>,
    /// Channel endpoint table, shared with the [`PriceTable`].
    pub(super) endpoints: Arc<[(NodeId, NodeId)]>,
    pub(super) txs: arena::TxTable,
    pub(super) active: Vec<TxId>,
    pub(super) tus: arena::TuArena,
    pub(super) node_busy: Vec<SimTime>,
    pub(super) events: EventQueue<Ev>,
    pub(super) stats: RunStats,
    pub(super) rng: SimRng,
    pub(super) payments: VecDeque<Payment>,
    pub(super) horizon: SimTime,
    /// Control-tick scratch (reused across ticks; quiet ticks allocate
    /// nothing).
    pub(super) scratch_expired: Vec<QueueEntry>,
    pub(super) scratch_marked: Vec<TuId>,
    pub(super) scratch_prices: Vec<f64>,
    /// Dynamic-world timeline state (empty for static scenarios).
    pub(super) world: world::WorldState,
    /// Epoch-versioned plan cache (replaces the never-invalidating
    /// `mice_cache` and serves every scheme's plan queries).
    pub(super) path_cache: PathCache,
    /// Reusable graph-search buffers for the hot path-selection loop.
    pub(super) workspace: SearchWorkspace,
    /// The Landmark scheme's landmark-rooted trees (empty for the others).
    pub(super) landmark_trees: arrivals::LandmarkTrees,
    pub(super) hub_count: usize,
    /// Adversary runtime, `None` unless a non-empty [`FaultPlan`]
    /// (crate::fault) was installed via [`Engine::with_faults`].
    pub(super) fault: Option<FaultState>,
}

impl Engine {
    /// Creates an engine over a topology, its channel funds, a scheme and
    /// the config.
    pub fn new(
        graph: Graph,
        funds: NetworkFunds,
        scheme: SchemeConfig,
        cfg: EngineConfig,
        rng: SimRng,
    ) -> Engine {
        let endpoints: Arc<[(NodeId, NodeId)]> = graph
            .edges()
            .map(|c| graph.endpoints(c).expect("dense edge ids"))
            .collect();
        let queues = endpoints
            .iter()
            .map(|_| {
                (
                    WaitQueue::new(scheme.discipline, QUEUE_CAPACITY),
                    WaitQueue::new(scheme.discipline, QUEUE_CAPACITY),
                )
            })
            .collect();
        // The price table shares the endpoint table by reference count —
        // no per-engine-construction clone.
        let prices = PriceTable::new(Arc::clone(&endpoints));
        let node_busy = vec![SimTime::ZERO; graph.node_count()];
        let hub_count = scheme.route_via.hub_set().len();
        Engine {
            cfg,
            scheme,
            graph,
            funds,
            prices,
            queues,
            endpoints,
            txs: arena::TxTable::new(),
            active: Vec::new(),
            tus: arena::TuArena::new(),
            node_busy,
            events: EventQueue::new(),
            stats: RunStats::default(),
            rng,
            payments: VecDeque::new(),
            horizon: SimTime::ZERO,
            scratch_expired: Vec::new(),
            scratch_marked: Vec::new(),
            scratch_prices: Vec::new(),
            world: world::WorldState::default(),
            path_cache: PathCache::new(),
            workspace: SearchWorkspace::new(),
            landmark_trees: arrivals::LandmarkTrees::default(),
            hub_count,
            fault: None,
        }
    }

    /// Installs an adversarial [`FaultPlan`](crate::fault::FaultPlan).
    ///
    /// An **empty plan is a no-op**: the engine keeps `fault: None`, so
    /// the run is the same execution as never calling this at all —
    /// byte-identical stats, byte-identical event order. A non-empty
    /// plan resolves its rogue-hub ranks against the scheme's hub set
    /// (`rank % hubs.len()`, the [`crate::world::WorldEvent::HubOutage`]
    /// convention; flat schemes have no hubs and ignore rogue entries)
    /// and arms the deadlock watchdog.
    #[must_use]
    pub fn with_faults(mut self, plan: crate::fault::FaultPlan) -> Engine {
        if plan.is_empty() {
            return self;
        }
        let hubs = self.scheme.route_via.hub_set();
        let rogue_nodes = plan
            .rogue_hubs
            .iter()
            .filter(|_| !hubs.is_empty())
            .map(|&(rank, behavior)| (hubs[rank % hubs.len()], behavior))
            .collect();
        self.fault = Some(FaultState {
            plan,
            rogue_nodes,
            progress: 0,
            last_progress: 0,
            latched: false,
        });
        self
    }

    /// Runs the engine over a pre-generated payment list (must be sorted
    /// by arrival time) and returns the statistics.
    ///
    /// Payment ids must be **densely numbered**: every `id` below the
    /// list length (any order). Transaction state lives in an array
    /// indexed by the raw id, so a sparse id (a hash, a timestamp)
    /// would allocate up to the largest id. Workload traces and
    /// [`payments_from_tuples`] number payments `0..n` and satisfy this
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if any payment id is at or above the list length.
    pub fn run(mut self, payments: Vec<Payment>) -> RunStats {
        debug_assert!(payments.windows(2).all(|w| w[0].created <= w[1].created));
        assert!(
            payments.iter().all(|p| p.id.index() < payments.len()),
            "payment ids must be dense (every id < payment count): \
             the engine's transaction table is indexed by raw id"
        );
        let wall_start = crate::stats::wall_timer();
        self.begin(payments);
        while let Some((now, ev)) = self.events.pop() {
            self.handle(now, ev);
        }
        self.stats.wall_secs = wall_start.elapsed_secs();
        self.stats.path_cache = self.path_cache.stats();
        self.stats.graph_compactions = self.graph.compactions();
        self.stats.nodes_settled = self.workspace.nodes_settled();
        // Open channels only: a tombstoned channel's frozen zero side is
        // inert capital, not the deadlock symptom (routing cannot reach
        // it), so dynamic-world runs don't inflate the metric.
        self.stats.drained_directions_end = self
            .graph
            .open_edges()
            .map(|ch| {
                let (a, b) = self.endpoints[ch.index()];
                usize::from(self.funds.balance(ch, a).is_zero())
                    + usize::from(self.funds.balance(ch, b).is_zero())
            })
            .sum();
        // Conservation is the graceful-degradation guarantee: faults ride
        // the abort/refund lifecycle, so even an adversarial run must end
        // with every token accounted for. Checked in release builds too —
        // a violation is a counted stat, not just a debug panic.
        self.stats.conservation_violations += u64::from(!self.funds.verify_conservation());
        debug_assert!(self.funds.verify_conservation());
        debug_assert!(self.stats.is_consistent());
        self.stats
    }

    /// Sets the horizon and schedules the initial events (first arrival,
    /// world timeline, first price tick). [`Engine::run`]'s startup,
    /// shared with in-place test drivers so they cannot drift from the
    /// real loop.
    pub(super) fn begin(&mut self, payments: Vec<Payment>) {
        self.horizon = payments
            .last()
            .map(|p| p.deadline + self.cfg.update_interval)
            .unwrap_or(SimTime::ZERO);
        self.payments = payments.into();
        if let Some(first) = self.payments.front() {
            let at = first.created;
            self.events.schedule_at(at, Ev::Arrival);
        }
        if !self.world.is_empty() {
            self.schedule_world_events();
        }
        self.events
            .schedule_after(self.cfg.update_interval, Ev::PriceTick);
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival => self.on_arrival(now),
            Ev::ComputeDone(tx) => self.on_compute_done(now, tx),
            Ev::Inject(tx, path_i) => self.on_inject(now, tx, path_i),
            Ev::HopArrive(tu) => self.on_hop_arrive(now, tu),
            Ev::SettleHop(tu, hop) => self.on_settle_hop(tu, hop),
            Ev::AckComplete(tu) => self.on_ack_complete(now, tu),
            Ev::PriceTick => self.on_price_tick(now),
            Ev::Deadline(tx) => self.on_deadline(tx),
            Ev::QueueDrain(ch, dir) => self.drain_queue(now, ChannelId::new(ch), dir),
            Ev::World(i) => self.on_world(now, i),
            Ev::WorldRecover(i) => self.on_world_recover(i),
        }
    }

    /// Immutable view of the funds (post-run inspection in tests).
    pub fn funds(&self) -> &NetworkFunds {
        &self.funds
    }
}

pub(super) fn nth_hop(path: &Path, i: usize) -> (NodeId, ChannelId, NodeId) {
    let from = path.nodes()[i];
    let to = path.nodes()[i + 1];
    (from, path.channels()[i], to)
}

/// Builds a payment list from `(time_ms, src, dst, tokens)` tuples — a
/// convenience for tests and examples.
pub fn payments_from_tuples(tuples: &[(u64, u32, u32, u64)], timeout: SimDuration) -> Vec<Payment> {
    tuples
        .iter()
        .enumerate()
        .map(|(i, &(ms, s, d, v))| {
            let created = SimTime::from_micros(ms * 1000);
            Payment {
                id: TxId::new(i as u64),
                source: NodeId::new(s),
                dest: NodeId::new(d),
                value: Amount::from_tokens(v),
                created,
                deadline: created + timeout,
            }
        })
        .collect()
}
