//! Deadlock-free rate-based PCN routing — the paper's second contribution —
//! plus faithful reimplementations of the comparison schemes and the
//! discrete-event engine they all run on.
//!
//! # Layering
//!
//! * [`channel`] — the HTLC-style channel state machine. Funds move
//!   `spendable → locked → other side` (settle) or back (refund); the
//!   conservation invariant is enforced on every operation.
//! * [`prices`] — the capacity price λ (eq. 21), imbalance price µ
//!   (eq. 22), routing price ξ (eq. 23), forwarding fee (eq. 24) and path
//!   price ϱ (eq. 25).
//! * [`rate`] / [`window`] — per-path sending rates (eq. 26) and
//!   congestion windows (eqs. 27–28).
//! * [`scheduler`] — the waiting-queue disciplines of Table II (FIFO,
//!   LIFO, SPF, EDF).
//! * [`paths`] — path selection strategies of Table II (KSP, Heuristic,
//!   EDW, EDS), each with a `select_paths_in` hot-path variant running on
//!   a reusable [`pcn_graph::SearchWorkspace`].
//! * [`cache`] — the topology-epoch [`PathCache`]: capacity-only plan
//!   results keyed by `(source, dest, scheme-view class)`, shared as
//!   `Arc<[Path]>` and invalidated by topology mutations, so a cache hit
//!   is bit-identical to recomputation (the epoch-invalidation
//!   contract). Live-balance plans are computed on every plan.
//! * [`scheme`] — declarative scheme descriptions: **Splicer**, **Spider**
//!   \[9\], **Flash** \[10\], **Landmark** \[6,29,30\] and **A2L** \[4\].
//! * [`engine`] — the event loop binding everything, decomposed by
//!   lifecycle stage: `engine::arrivals` (payment admission,
//!   route-computation service queues, per-scheme path planning),
//!   `engine::lifecycle` (TU injection, hop traversal, settlement,
//!   abort/refund/retry), and `engine::control` (price ticks, queue
//!   expiry and marking, rate updates, hub synchronization), dispatched
//!   from `engine::mod`.
//! * [`fault`] — the adversarial layer (threat model below): a pure-data
//!   [`FaultPlan`] the engine evaluates at hop-event boundaries.
//!
//! # Threat model & fault injection
//!
//! The paper's headline claim is *deadlock-free* routing, so the engine
//! must survive workloads engineered to break it. The [`fault`] module
//! models four adversaries, all expressed as one [`FaultPlan`] installed
//! via [`Engine::with_faults`](engine::Engine::with_faults):
//!
//! * **Griefers** — clients whose TUs acquire hop locks normally and
//!   then stall for `griefer_hold` (typically past the transaction
//!   timeout), pinning liquidity until the ordinary deadline → abort →
//!   refund path reclaims it. Counted in `RunStats::griefed_locks`.
//! * **Circular demand** — a ring of adversarial payments circulating
//!   value one direction, tuned to drain a channel cycle (the Fig. 1
//!   deadlock mechanism, scaled up). Ring payments route like honest
//!   ones; the attack is the demand pattern itself.
//! * **Channel faults** — a hash-selected fraction of channels drops or
//!   delays forwarded TUs (`drop(frac, prob)` / `delay(frac, jitter)`).
//! * **Rogue hubs** — a hub that stalls or misorders everything it
//!   forwards ([`RogueBehavior`]).
//!
//! Three guarantees hold under every plan:
//!
//! 1. **No value leak**: every fault resolves through the existing
//!    abort/refund/timeout lifecycle; `NetworkFunds` conservation is
//!    re-verified at end of run (`RunStats::conservation_violations`).
//! 2. **Determinism**: fault decisions are pure hashes of
//!    `(plan salt, payment id, hop, retry, channel)` — never the engine
//!    RNG — so cached ≡ uncached stays bit-identical under attack, and
//!    an empty plan is byte-identical to an honest run.
//! 3. **Detection, not prevention**: a stalled-run watchdog plus a
//!    drained-direction cycle check over the CSR graph fires
//!    `RunStats::deadlocks_detected` when no lock or settle happened for
//!    a whole price tick while a fully-drained channel cycle exists —
//!    the deadlock symptom the honest-traffic counters
//!    (`honest_generated` / `honest_completed`, `RunStats::honest_tsr`)
//!    then quantify.
//!
//! # Example: Fig. 1's local deadlock, then Splicer avoiding it
//!
//! ```
//! use pcn_routing::channel::NetworkFunds;
//! use pcn_types::{Amount, NodeId};
//!
//! // The triangle of Fig. 1 with 10 tokens per direction.
//! let mut g = pcn_graph::Graph::new(3);
//! let ac = g.add_edge(NodeId::new(0), NodeId::new(2));
//! let cb = g.add_edge(NodeId::new(2), NodeId::new(1));
//! let mut funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
//!
//! // Drain C→B by relentless one-way payments (A→C→B faster than refill):
//! for _ in 0..10 {
//!     funds.lock(cb, NodeId::new(2), Amount::from_tokens(1)).unwrap();
//!     funds.settle(cb, NodeId::new(2), Amount::from_tokens(1)).unwrap();
//! }
//! // C's side of (C,B) is now empty: the relay is deadlocked.
//! assert!(funds.balance(cb, NodeId::new(2)).is_zero());
//! assert!(funds.is_drained(cb, NodeId::new(2)));
//! # let _ = ac;
//! ```

// Production builds carry no unsafe at all; the test build allows one
// exception — the counting `GlobalAlloc` behind the hot-loop
// allocation-freedom regression (`engine::tests`), which must be
// `unsafe impl` by its nature.
#![cfg_attr(not(test), forbid(unsafe_code))]
#![cfg_attr(test, deny(unsafe_code))]
#![warn(missing_docs)]

pub mod cache;
pub mod channel;
pub mod engine;
pub mod fault;
pub mod paths;
pub mod prices;
pub mod rate;
pub mod scheduler;
pub mod scheme;
pub mod stats;
pub mod tu;
pub mod window;
pub mod world;

pub use cache::{PathCache, PathCacheStats};
pub use engine::{Engine, EngineConfig};
pub use fault::{FaultPlan, RogueBehavior, TuDropFilter};
pub use scheme::{ComputeModel, RouteVia, SchemeConfig};
pub use stats::RunStats;
pub use world::WorldEvent;
