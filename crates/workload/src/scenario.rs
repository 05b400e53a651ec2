//! Scenario presets: the paper's two evaluation scales.

use pcn_routing::fault::FaultPlan;
use pcn_routing::tu::Payment;
use pcn_routing::world::WorldEvent;
use pcn_sim::SimRng;
use pcn_types::{NodeId, SimDuration};

use crate::adversary::AdversarySpec;
use crate::funds::ChannelFunds;
use crate::timeline::TimelineSpec;
use crate::topology::PcnTopology;
use crate::transactions::TxWorkload;

/// Knobs describing one experiment's world.
#[derive(Clone, Debug)]
pub struct ScenarioParams {
    /// Node count (100 small / 3000 large in the paper).
    pub nodes: usize,
    /// Watts–Strogatz mean degree.
    pub degree: usize,
    /// Watts–Strogatz rewiring probability.
    pub beta: f64,
    /// Number of smooth-node candidates (|VSNC|).
    pub candidate_count: usize,
    /// Workload duration.
    pub duration: SimDuration,
    /// Channel-size scale factor (Fig. 7(a)/8(a) x-axis).
    pub channel_scale: f64,
    /// Mean transaction value in tokens (Fig. 7(b)/8(b) x-axis).
    pub mean_tx_tokens: f64,
    /// Aggregate transaction arrival rate (tx/sec).
    pub arrivals_per_sec: f64,
    /// Fraction of transactions drawn from the Zipf-skewed *hotspot*
    /// traffic model (0 = off, the default; see
    /// [`crate::TxWorkload::hotspot_fraction`]).
    pub hotspot_fraction: f64,
    /// Zipf exponent of the hotspot endpoint choice (only read when
    /// `hotspot_fraction > 0`).
    pub hotspot_skew: f64,
    /// Dynamic-world timeline (rate shifts, hub outages, channel churn,
    /// rebalances); empty = the classic static world.
    pub timeline: TimelineSpec,
    /// Adversarial fault spec (griefers, circular demand, channel
    /// faults, rogue hubs); empty = every agent honest, the default.
    pub adversary: AdversarySpec,
    /// Root seed.
    pub seed: u64,
}

impl ScenarioParams {
    /// The paper's small-scale setting (100 nodes).
    pub fn small() -> ScenarioParams {
        ScenarioParams {
            nodes: 100,
            degree: 8,
            beta: 0.3,
            candidate_count: 10,
            duration: SimDuration::from_secs(60),
            channel_scale: 1.0,
            mean_tx_tokens: 12.0,
            arrivals_per_sec: 25.0,
            hotspot_fraction: 0.0,
            hotspot_skew: 1.2,
            timeline: TimelineSpec::default(),
            adversary: AdversarySpec::default(),
            seed: 1,
        }
    }

    /// The paper's large-scale setting (3000 nodes).
    pub fn large() -> ScenarioParams {
        ScenarioParams {
            nodes: 3000,
            degree: 8,
            beta: 0.3,
            candidate_count: 40,
            duration: SimDuration::from_secs(60),
            channel_scale: 1.0,
            mean_tx_tokens: 12.0,
            arrivals_per_sec: 120.0,
            hotspot_fraction: 0.0,
            hotspot_skew: 1.2,
            timeline: TimelineSpec::default(),
            adversary: AdversarySpec::default(),
            seed: 1,
        }
    }

    /// A miniature setting for unit/integration tests (fast in debug).
    pub fn tiny() -> ScenarioParams {
        ScenarioParams {
            nodes: 24,
            degree: 4,
            beta: 0.3,
            candidate_count: 4,
            duration: SimDuration::from_secs(10),
            channel_scale: 1.0,
            mean_tx_tokens: 8.0,
            arrivals_per_sec: 6.0,
            hotspot_fraction: 0.0,
            hotspot_skew: 1.2,
            timeline: TimelineSpec::default(),
            adversary: AdversarySpec::default(),
            seed: 1,
        }
    }
}

/// A fully materialized world: flat topology, candidate/client split, and
/// the payment trace every scheme replays.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The parameters that built this scenario.
    pub params: ScenarioParams,
    /// Flat (pre-rewiring) topology used by source-routing schemes.
    pub flat: PcnTopology,
    /// Client nodes (senders/recipients).
    pub clients: Vec<NodeId>,
    /// Candidate smooth nodes (VSNC) — the best-connected nodes, as the
    /// multiwinner vote of §III-B would elect.
    pub candidates: Vec<NodeId>,
    /// The payment trace (sorted by arrival).
    pub payments: Vec<Payment>,
    /// The funds sampler (for rewirings that must stay comparable).
    pub sampler: ChannelFunds,
    /// Materialized world-event timeline (sorted by time; empty for
    /// static scenarios). Every scheme of this scenario replays the
    /// same event list — the engine resolves selectors against its own
    /// topology view.
    pub timeline: Vec<WorldEvent>,
    /// Materialized fault plan (empty for honest scenarios). Like the
    /// timeline, every scheme of this scenario installs the same plan —
    /// per-scheme resolution (rogue-hub ranks) happens inside the
    /// engine.
    pub faults: FaultPlan,
}

impl Scenario {
    /// Builds the world from parameters. Deterministic per seed.
    pub fn build(params: ScenarioParams) -> Scenario {
        let rng = SimRng::seed(params.seed);
        let sampler = ChannelFunds::lightning().scaled(params.channel_scale);
        let flat = PcnTopology::small_world(
            params.nodes,
            params.degree,
            params.beta,
            &sampler,
            &mut rng.fork("topology"),
        );
        // Candidates: the highest-degree nodes (ties by id) — a structural
        // stand-in for the excellence criterion of the multiwinner vote.
        let mut by_degree: Vec<NodeId> = flat.graph.nodes().collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(flat.graph.degree(v)), v));
        let candidates: Vec<NodeId> = by_degree
            .iter()
            .copied()
            .take(params.candidate_count)
            .collect();
        let clients: Vec<NodeId> = flat
            .graph
            .nodes()
            .filter(|v| !candidates.contains(v))
            .collect();
        let mut workload = TxWorkload::new(clients.clone());
        workload.mean_value_tokens = params.mean_tx_tokens;
        workload.arrivals_per_sec = params.arrivals_per_sec;
        workload.hotspot_fraction = params.hotspot_fraction;
        workload.hotspot_skew = params.hotspot_skew;
        // Rate shifts phase the arrival gaps; the trace embeds them so
        // every scheme replays identical phased traffic.
        workload.rate_phases = params.timeline.rate_shifts.clone();
        let mut payments = workload.generate(params.duration, &mut rng.fork("workload"));
        // The timeline draws from its own fork: a churnless spec leaves
        // every other stream — and therefore the whole trace — untouched.
        let timeline =
            params
                .timeline
                .materialize(params.duration, &sampler, &mut rng.fork("timeline"));
        // Likewise the adversary: an empty spec draws nothing, appends
        // nothing, and materializes the empty plan the engine refuses to
        // install — honest scenarios stay byte-identical.
        let faults = params.adversary.materialize(
            &clients,
            &mut payments,
            params.duration,
            params.mean_tx_tokens,
            workload.timeout,
            &mut rng.fork("adversary"),
        );
        Scenario {
            params,
            flat,
            clients,
            candidates,
            payments,
            sampler,
            timeline,
            faults,
        }
    }

    /// Total generated value (for normalization checks).
    pub fn generated_value(&self) -> pcn_types::Amount {
        self.payments.iter().map(|p| p.value).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_builds() {
        let s = Scenario::build(ScenarioParams::tiny());
        assert_eq!(s.flat.graph.node_count(), 24);
        assert_eq!(s.candidates.len(), 4);
        assert_eq!(s.clients.len(), 20);
        assert!(!s.payments.is_empty());
        // Candidates are disjoint from clients.
        for c in &s.candidates {
            assert!(!s.clients.contains(c));
        }
        // All payment endpoints are clients.
        for p in &s.payments {
            assert!(s.clients.contains(&p.source));
            assert!(s.clients.contains(&p.dest));
        }
    }

    #[test]
    fn candidates_are_high_degree() {
        let s = Scenario::build(ScenarioParams::tiny());
        let min_candidate_degree = s
            .candidates
            .iter()
            .map(|&c| s.flat.graph.degree(c))
            .min()
            .unwrap();
        let max_client_degree = s
            .clients
            .iter()
            .map(|&c| s.flat.graph.degree(c))
            .max()
            .unwrap();
        assert!(min_candidate_degree >= max_client_degree.saturating_sub(1));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Scenario::build(ScenarioParams::tiny());
        let b = Scenario::build(ScenarioParams::tiny());
        assert_eq!(a.payments.len(), b.payments.len());
        assert_eq!(a.generated_value(), b.generated_value());
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn adversarial_scenario_extends_the_honest_trace_without_perturbing_it() {
        let honest = Scenario::build(ScenarioParams::tiny());
        assert!(honest.faults.is_empty());
        let mut params = ScenarioParams::tiny();
        params.adversary = crate::adversary::AdversaryBuilder::default()
            .griefers(0.1, 5_000)
            .circular_demand(4, 1.0)
            .build();
        let adv = Scenario::build(params);
        assert!(!adv.faults.is_empty());
        assert!(!adv.faults.griefer_txs.is_empty());
        assert!(!adv.faults.ring_txs.is_empty());
        // The adversary draws only from its own fork and appends ids past
        // the honest numbering: the honest sub-trace is byte-identical.
        let honest_in_adv: Vec<_> = adv
            .payments
            .iter()
            .filter(|p| p.id.index() < honest.payments.len())
            .cloned()
            .collect();
        assert_eq!(honest_in_adv, honest.payments);
        // The merged trace keeps the engine's preconditions.
        assert!(adv
            .payments
            .windows(2)
            .all(|w| w[0].created <= w[1].created));
        assert!(adv
            .payments
            .iter()
            .all(|p| p.id.index() < adv.payments.len()));
        // Ring endpoints are clients, like everything else.
        for p in adv.payments.iter().filter(|p| adv.faults.is_ring(p.id)) {
            assert!(adv.clients.contains(&p.source));
            assert!(adv.clients.contains(&p.dest));
        }
    }

    #[test]
    fn small_preset_matches_paper_scale() {
        let p = ScenarioParams::small();
        assert_eq!(p.nodes, 100);
        let p = ScenarioParams::large();
        assert_eq!(p.nodes, 3000);
    }
}
