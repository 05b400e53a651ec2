//! Declarative descriptions of the five routing schemes under evaluation.
//!
//! The engine implements one general machine (queues, prices, windows,
//! per-hop forwarding); a [`SchemeConfig`] tells it how a specific scheme
//! behaves: where routes are computed, over which view of the network,
//! with what path strategy, and whether the rate/congestion controllers of
//! §IV-D run.

use std::collections::BTreeMap;

use pcn_types::{Amount, NodeId, SimDuration};

use crate::paths::{BalanceView, PathSelect};
use crate::scheduler::Discipline;

/// Where a payment's route computation is serviced, and how expensive it
/// is. Source routing burdens lightweight senders; hub routing runs on
/// provisioned smooth nodes (§III-C "the senders' performance is severely
/// challenged").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComputeModel {
    /// Seconds of compute per graph edge scanned by one route computation
    /// on a *client* device.
    pub client_secs_per_edge: f64,
    /// Same on a provisioned hub.
    pub hub_secs_per_edge: f64,
    /// Extra fixed service time per transaction at the computing node
    /// (models A2L's cryptographic primitives; zero elsewhere).
    pub crypto_overhead: SimDuration,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            client_secs_per_edge: 30e-6,
            hub_secs_per_edge: 0.6e-6,
            crypto_overhead: SimDuration::ZERO,
        }
    }
}

/// How payments find their way from sender to recipient.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteVia {
    /// Source routing over the full graph (Spider).
    Direct,
    /// Via assigned hubs: sender → its hub ⇒ k paths between hubs ⇒
    /// recipient's hub → recipient (Splicer's multi-star, Fig. 2b).
    Hubs {
        /// client → assigned hub.
        assignment: BTreeMap<NodeId, NodeId>,
    },
    /// Via the k best-connected landmarks (Flare/SilentWhispers/
    /// SpeedyMurmurs): each landmark keeps a BFS shortest-path tree, and
    /// a route climbs the landmark's tree from the sender and descends
    /// it to the recipient.
    Landmarks {
        /// The landmark nodes.
        landmarks: Vec<NodeId>,
    },
    /// Every payment crosses one central hub (TumbleBit/A2L star, Fig. 2a).
    SingleHub {
        /// The hub.
        hub: NodeId,
    },
    /// Flash: payments above the threshold use max-flow path decomposition;
    /// smaller ones take a random precomputed shortest path.
    FlashMaxFlow {
        /// Elephant/mouse boundary.
        elephant_threshold: Amount,
    },
}

impl RouteVia {
    /// The scheme's hub set, sorted and deduplicated (empty for
    /// hub-less schemes). One definition serves both the engine's
    /// hub-count accounting and the world stage's outage-rank
    /// resolution, so the two can never diverge.
    pub fn hub_set(&self) -> Vec<NodeId> {
        match self {
            RouteVia::Hubs { assignment } => {
                let mut hubs: Vec<NodeId> = assignment.values().copied().collect();
                hubs.sort();
                hubs.dedup();
                hubs
            }
            RouteVia::SingleHub { hub } => vec![*hub],
            _ => Vec::new(),
        }
    }
}

/// Complete behavioural description of a scheme run by the engine.
#[derive(Clone, Debug, PartialEq)]
pub struct SchemeConfig {
    /// Display name (matches the paper's figures).
    pub name: String,
    /// Path strategy (Table II's "path type").
    pub path_select: PathSelect,
    /// Number of paths k (Table II's "path number"; paper default 5).
    pub num_paths: usize,
    /// Queue scheduling discipline (Table II's "scheduling algorithm").
    pub discipline: Discipline,
    /// Run the price-based rate controller of eq. 26?
    pub rate_control: bool,
    /// Run the queue/window congestion controller (Algorithm 2 lines
    /// 10–18)? Without it, TUs that meet an empty channel fail immediately
    /// (Lightning-style).
    pub congestion_control: bool,
    /// Routing topology/ownership.
    pub route_via: RouteVia,
    /// Whether path computation sees live balances or only capacities.
    pub balance_view: BalanceView,
    /// Whether route computation runs at the sender (source routing) or a
    /// hub.
    pub compute_at_source: bool,
    /// Compute-cost model.
    pub compute: ComputeModel,
    /// TU retry budget after a failed attempt (Flash uses 1). Read only
    /// without rate control: a failed TU with budget left is re-sent on
    /// the flow's next path instead of failing its transaction.
    pub max_retries: u32,
}

impl SchemeConfig {
    /// Splicer (this paper): hub routing on fresh state, EDW paths,
    /// rate + congestion control, LIFO queues.
    pub fn splicer(assignment: BTreeMap<NodeId, NodeId>) -> SchemeConfig {
        SchemeConfig {
            name: "Splicer".into(),
            path_select: PathSelect::Edw,
            num_paths: pcn_types::constants::DEFAULT_PATHS,
            discipline: Discipline::Lifo,
            rate_control: true,
            congestion_control: true,
            route_via: RouteVia::Hubs { assignment },
            balance_view: BalanceView::Live,
            compute_at_source: false,
            compute: ComputeModel::default(),
            max_retries: 0,
        }
    }

    /// Spider \[9\]: source routing, packetized multi-path with rate and
    /// congestion control, but per-sender computation over capacity-only
    /// knowledge.
    pub fn spider() -> SchemeConfig {
        SchemeConfig {
            name: "Spider".into(),
            path_select: PathSelect::Edw,
            num_paths: 4,
            discipline: Discipline::Lifo,
            rate_control: true,
            congestion_control: true,
            route_via: RouteVia::Direct,
            balance_view: BalanceView::CapacityOnly,
            compute_at_source: true,
            compute: ComputeModel::default(),
            max_retries: 0,
        }
    }

    /// Flash \[10\]: modified max-flow for elephants, random precomputed
    /// shortest path for mice (drawn from a k-shortest-path pool); no
    /// rate control.
    pub fn flash(elephant_threshold: Amount) -> SchemeConfig {
        SchemeConfig {
            name: "Flash".into(),
            path_select: PathSelect::Ksp,
            num_paths: 4,
            discipline: Discipline::Fifo,
            rate_control: false,
            congestion_control: false,
            route_via: RouteVia::FlashMaxFlow { elephant_threshold },
            balance_view: BalanceView::CapacityOnly,
            compute_at_source: true,
            compute: ComputeModel::default(),
            max_retries: 1,
        }
    }

    /// Landmark routing \[6, 29, 30\]: up to one route per landmark, read
    /// off that landmark's BFS shortest-path tree, no rate control.
    pub fn landmark(landmarks: Vec<NodeId>) -> SchemeConfig {
        SchemeConfig {
            name: "Landmark".into(),
            path_select: PathSelect::Eds,
            num_paths: landmarks.len().max(1),
            discipline: Discipline::Fifo,
            rate_control: false,
            congestion_control: false,
            route_via: RouteVia::Landmarks { landmarks },
            balance_view: BalanceView::CapacityOnly,
            compute_at_source: true,
            compute: ComputeModel::default(),
            max_retries: 0,
        }
    }

    /// A2L \[4\]: a single PCH star with per-transaction cryptographic
    /// overhead at the hub.
    pub fn a2l(hub: NodeId, crypto_overhead: SimDuration) -> SchemeConfig {
        SchemeConfig {
            name: "A2L".into(),
            path_select: PathSelect::Eds,
            num_paths: 1,
            discipline: Discipline::Fifo,
            rate_control: false,
            congestion_control: false,
            route_via: RouteVia::SingleHub { hub },
            balance_view: BalanceView::Live,
            compute_at_source: false,
            compute: ComputeModel {
                crypto_overhead,
                ..ComputeModel::default()
            },
            max_retries: 0,
        }
    }

    /// A naive single shortest-path scheme without any control — the
    /// deadlock-prone strawman used in the deadlock demonstration.
    pub fn shortest_path() -> SchemeConfig {
        SchemeConfig {
            name: "ShortestPath".into(),
            path_select: PathSelect::Eds,
            num_paths: 1,
            discipline: Discipline::Fifo,
            rate_control: false,
            congestion_control: false,
            route_via: RouteVia::Direct,
            balance_view: BalanceView::CapacityOnly,
            compute_at_source: true,
            compute: ComputeModel::default(),
            max_retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splicer_defaults_match_paper() {
        let s = SchemeConfig::splicer(BTreeMap::new());
        assert_eq!(s.name, "Splicer");
        assert_eq!(s.path_select, PathSelect::Edw);
        assert_eq!(s.num_paths, 5);
        assert_eq!(s.discipline, Discipline::Lifo);
        assert!(s.rate_control && s.congestion_control);
        assert!(!s.compute_at_source);
        assert_eq!(s.balance_view, BalanceView::Live);
    }

    #[test]
    fn spider_is_source_routing() {
        let s = SchemeConfig::spider();
        assert!(s.compute_at_source);
        assert_eq!(s.balance_view, BalanceView::CapacityOnly);
        assert!(s.rate_control);
    }

    #[test]
    fn a2l_has_crypto_overhead() {
        let s = SchemeConfig::a2l(NodeId::new(0), SimDuration::from_millis(20));
        assert_eq!(s.compute.crypto_overhead, SimDuration::from_millis(20));
        assert!(matches!(s.route_via, RouteVia::SingleHub { .. }));
        assert!(!s.rate_control);
    }

    #[test]
    fn flash_thresholded() {
        let s = SchemeConfig::flash(Amount::from_tokens(20));
        assert_eq!(s.path_select, PathSelect::Ksp, "mice pools are KSP");
        match s.route_via {
            RouteVia::FlashMaxFlow { elephant_threshold } => {
                assert_eq!(elephant_threshold, Amount::from_tokens(20));
            }
            _ => panic!("wrong route_via"),
        }
    }

    #[test]
    fn only_flash_retries_failed_tus() {
        assert_eq!(SchemeConfig::flash(Amount::from_tokens(20)).max_retries, 1);
        for s in [
            SchemeConfig::splicer(BTreeMap::new()),
            SchemeConfig::spider(),
            SchemeConfig::landmark(vec![NodeId::new(0)]),
            SchemeConfig::a2l(NodeId::new(0), SimDuration::ZERO),
            SchemeConfig::shortest_path(),
        ] {
            assert_eq!(s.max_retries, 0, "{}", s.name);
        }
    }

    #[test]
    fn compute_model_hub_faster_than_client() {
        let c = ComputeModel::default();
        assert!(c.hub_secs_per_edge < c.client_secs_per_edge / 10.0);
    }
}
