//! The scenario DSL: a chainable builder over every experiment knob.
//!
//! [`ScenarioBuilder`] subsumes the raw [`ScenarioParams`] presets and the
//! ad-hoc failure-injection tweaks tests used to apply by hand. A chain
//! produces a [`ScenarioSpec`] — pure data describing *what* to run
//! (world parameters, scheme, expectations) without running it; the
//! harness layer (`pcn-harness`) turns specs into engine runs and checks
//! the expectations.
//!
//! ```
//! use pcn_workload::{ScenarioBuilder, SchemeChoice};
//!
//! let spec = ScenarioBuilder::new()
//!     .nodes(120)
//!     .degree(8)
//!     .channel_scale(2.0)
//!     .scheme(SchemeChoice::Splicer)
//!     .arrivals_per_sec(20.0)
//!     .seed(7)
//!     .expect_no_deadlock()
//!     .build();
//! assert_eq!(spec.params.nodes, 120);
//! assert!(spec.expect.no_deadlock);
//! // The world itself materializes on demand, deterministically:
//! let scenario = spec.scenario();
//! assert_eq!(scenario.flat.graph.node_count(), 120);
//! ```

use pcn_types::SimDuration;

use crate::scenario::{Scenario, ScenarioParams};

/// Which routing scheme a spec runs (mapped to a concrete system by the
/// harness layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeChoice {
    /// The paper's system: placement + multi-star rewiring + deadlock-free
    /// rate-based hub routing.
    Splicer,
    /// Spider \[9\]: source routing with rate/congestion control on the
    /// flat topology.
    Spider,
    /// Flash \[10\]: max-flow elephants, cached-path mice.
    Flash,
    /// Landmark routing \[6,29,30\].
    Landmark,
    /// A2L \[4\]: a single-hub star with cryptographic service cost.
    A2L,
    /// Naive shortest-path strawman (deadlock demos).
    ShortestPath,
}

impl SchemeChoice {
    /// The five schemes compared in Figs. 7–8, in the paper's order.
    pub const COMPARED: [SchemeChoice; 5] = [
        SchemeChoice::Splicer,
        SchemeChoice::Spider,
        SchemeChoice::Flash,
        SchemeChoice::Landmark,
        SchemeChoice::A2L,
    ];

    /// Display name matching the run reports.
    pub fn name(self) -> &'static str {
        match self {
            SchemeChoice::Splicer => "Splicer",
            SchemeChoice::Spider => "Spider",
            SchemeChoice::Flash => "Flash",
            SchemeChoice::Landmark => "Landmark",
            SchemeChoice::A2L => "A2L",
            SchemeChoice::ShortestPath => "ShortestPath",
        }
    }
}

/// Post-run expectations attached to a spec (checked by the harness).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Expectations {
    /// No channel direction may end the run fully drained (the paper's
    /// deadlock symptom, Fig. 1), and the engine's stalled-cycle
    /// detector must never fire.
    pub no_deadlock: bool,
    /// Minimum transaction success ratio, if any.
    pub min_tsr: Option<f64>,
    /// Value conservation must hold at end of run (the engine's release
    /// check, `RunStats::conservation_violations == 0`) — the
    /// graceful-degradation floor under any adversary.
    pub value_conserved: bool,
    /// Minimum success ratio over *honest* traffic only (adversarial
    /// griefer/ring payments excluded), if any.
    pub honest_min_tsr: Option<f64>,
    /// Maximum adversarial stall injected into any honest TU's forward,
    /// in milliseconds, if bounded.
    pub bounded_stall_ms: Option<u64>,
}

/// A complete experiment description: world + scheme + expectations.
///
/// Pure data — building a spec runs nothing. Two identical specs always
/// materialize identical worlds and (through the harness) identical runs.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// World parameters (topology, funds, traffic, seed).
    pub params: ScenarioParams,
    /// The scheme to execute.
    pub scheme: SchemeChoice,
    /// Post-run expectations.
    pub expect: Expectations,
}

impl ScenarioSpec {
    /// Materializes the world. Deterministic per `params.seed`.
    pub fn scenario(&self) -> Scenario {
        Scenario::build(self.params.clone())
    }
}

/// Chainable builder over [`ScenarioParams`], scheme and expectations.
///
/// `new()` starts from the paper's small-scale defaults; [`Self::tiny`] /
/// [`Self::small`] / [`Self::large`] select the presets explicitly.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    params: ScenarioParams,
    scheme: SchemeChoice,
    expect: Expectations,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// Starts from the small-scale (100 node) preset and Splicer.
    pub fn new() -> ScenarioBuilder {
        ScenarioBuilder {
            params: ScenarioParams::small(),
            scheme: SchemeChoice::Splicer,
            expect: Expectations::default(),
        }
    }

    /// Starts from the miniature test preset (24 nodes, 10 s).
    pub fn tiny() -> ScenarioBuilder {
        ScenarioBuilder {
            params: ScenarioParams::tiny(),
            ..ScenarioBuilder::new()
        }
    }

    /// Starts from the paper's small scale (100 nodes).
    pub fn small() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Starts from the paper's large scale (3000 nodes).
    pub fn large() -> ScenarioBuilder {
        ScenarioBuilder {
            params: ScenarioParams::large(),
            ..ScenarioBuilder::new()
        }
    }

    /// Starts from explicit parameters (migration path for existing code).
    pub fn from_params(params: ScenarioParams) -> ScenarioBuilder {
        ScenarioBuilder {
            params,
            ..ScenarioBuilder::new()
        }
    }

    /// Node count.
    pub fn nodes(mut self, n: usize) -> Self {
        self.params.nodes = n;
        self
    }

    /// Watts–Strogatz mean degree.
    pub fn degree(mut self, k: usize) -> Self {
        self.params.degree = k;
        self
    }

    /// Watts–Strogatz rewiring probability.
    pub fn rewire_beta(mut self, beta: f64) -> Self {
        self.params.beta = beta;
        self
    }

    /// Number of smooth-node candidates (|VSNC|).
    pub fn candidates(mut self, count: usize) -> Self {
        self.params.candidate_count = count;
        self
    }

    /// Workload duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.params.duration = d;
        self
    }

    /// Workload duration in whole seconds.
    pub fn duration_secs(self, secs: u64) -> Self {
        self.duration(SimDuration::from_secs(secs))
    }

    /// Channel-size scale factor (Fig. 7(a)/8(a) x-axis).
    pub fn channel_scale(mut self, scale: f64) -> Self {
        self.params.channel_scale = scale;
        self
    }

    /// Mean transaction value in tokens (Fig. 7(b)/8(b) x-axis).
    pub fn mean_tx_tokens(mut self, tokens: f64) -> Self {
        self.params.mean_tx_tokens = tokens;
        self
    }

    /// Aggregate transaction arrival rate (tx/sec).
    pub fn arrivals_per_sec(mut self, rate: f64) -> Self {
        self.params.arrivals_per_sec = rate;
        self
    }

    /// Hotspot traffic: `fraction` of transactions draw *both* endpoints
    /// from a Zipf(`skew`) over the clients, concentrating load on a few
    /// popular nodes (flash-crowd / merchant-rush workloads). A fraction
    /// of zero disables the model without perturbing the trace.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `[0, 1]` or `skew` is negative.
    pub fn hotspot(mut self, fraction: f64, skew: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "hotspot fraction must be in [0, 1]"
        );
        assert!(skew >= 0.0, "hotspot skew must be non-negative");
        self.params.hotspot_fraction = fraction;
        self.params.hotspot_skew = skew;
        self
    }

    /// Edits the dynamic-world timeline through a
    /// [`TimelineBuilder`](crate::timeline::TimelineBuilder) chain
    /// (repeated calls accumulate onto the same spec):
    ///
    /// ```
    /// use pcn_workload::ScenarioBuilder;
    ///
    /// let spec = ScenarioBuilder::tiny()
    ///     .timeline(|t| t.hub_outage(3.0, 0, 6.0).churn(0.5))
    ///     .build();
    /// assert_eq!(spec.params.timeline.hub_outages.len(), 1);
    /// ```
    pub fn timeline<F>(mut self, edit: F) -> Self
    where
        F: FnOnce(crate::timeline::TimelineBuilder) -> crate::timeline::TimelineBuilder,
    {
        let current = std::mem::take(&mut self.params.timeline);
        self.params.timeline = edit(crate::timeline::TimelineBuilder::from_spec(current)).build();
        self
    }

    /// Edits the adversary through an
    /// [`AdversaryBuilder`](crate::adversary::AdversaryBuilder) chain
    /// (repeated calls accumulate onto the same spec):
    ///
    /// ```
    /// use pcn_workload::ScenarioBuilder;
    ///
    /// let spec = ScenarioBuilder::tiny()
    ///     .adversary(|a| a.griefers(0.1, 5_000).circular_demand(4, 2.0))
    ///     .build();
    /// assert_eq!(spec.params.adversary.griefer_fraction, 0.1);
    /// ```
    pub fn adversary<F>(mut self, edit: F) -> Self
    where
        F: FnOnce(crate::adversary::AdversaryBuilder) -> crate::adversary::AdversaryBuilder,
    {
        let current = std::mem::take(&mut self.params.adversary);
        self.params.adversary =
            edit(crate::adversary::AdversaryBuilder::from_spec(current)).build();
        self
    }

    /// Griefer attack: `fraction` of clients lock-and-stall for
    /// `hold_ms` (shorthand for
    /// `adversary(|a| a.griefers(fraction, hold_ms))`).
    pub fn griefers(self, fraction: f64, hold_ms: u64) -> Self {
        self.adversary(|a| a.griefers(fraction, hold_ms))
    }

    /// Root seed: every random decision in the run derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Scheme to execute.
    pub fn scheme(mut self, scheme: SchemeChoice) -> Self {
        self.scheme = scheme;
        self
    }

    /// Failure injection: multiply the arrival rate and mean value to
    /// overload the network (the threat-model tests' starvation knob).
    pub fn overload(mut self, factor: f64) -> Self {
        self.params.arrivals_per_sec *= factor;
        self.params.mean_tx_tokens *= factor.max(1.0).sqrt();
        self
    }

    /// Expect the run to end with zero fully-drained channel directions.
    pub fn expect_no_deadlock(mut self) -> Self {
        self.expect.no_deadlock = true;
        self
    }

    /// Expect a minimum transaction success ratio.
    pub fn expect_min_tsr(mut self, tsr: f64) -> Self {
        self.expect.min_tsr = Some(tsr);
        self
    }

    /// Expect value conservation to hold at end of run — the
    /// graceful-degradation floor no adversary may break.
    pub fn expect_value_conserved(mut self) -> Self {
        self.expect.value_conserved = true;
        self
    }

    /// Expect a minimum success ratio over honest traffic only
    /// (adversarial griefer/ring payments excluded from the ratio).
    pub fn expect_honest_min_tsr(mut self, tsr: f64) -> Self {
        self.expect.honest_min_tsr = Some(tsr);
        self
    }

    /// Expect no honest TU to be stalled by the adversary for more than
    /// `ms` milliseconds on any single forward.
    pub fn expect_bounded_stall(mut self, ms: u64) -> Self {
        self.expect.bounded_stall_ms = Some(ms);
        self
    }

    /// Finishes the chain into a pure-data spec.
    pub fn build(self) -> ScenarioSpec {
        ScenarioSpec {
            params: self.params,
            scheme: self.scheme,
            expect: self.expect,
        }
    }

    /// Shortcut: build the spec and materialize its world immediately.
    pub fn build_scenario(self) -> Scenario {
        self.build().scenario()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_small_preset() {
        let spec = ScenarioBuilder::new().build();
        assert_eq!(spec.params.nodes, ScenarioParams::small().nodes);
        assert_eq!(spec.scheme, SchemeChoice::Splicer);
        assert!(!spec.expect.no_deadlock);
    }

    #[test]
    fn chain_overrides_apply() {
        let spec = ScenarioBuilder::large()
            .nodes(3000)
            .degree(8)
            .channel_scale(2.0)
            .scheme(SchemeChoice::Spider)
            .arrivals_per_sec(120.0)
            .seed(7)
            .expect_no_deadlock()
            .build();
        assert_eq!(spec.params.nodes, 3000);
        assert_eq!(spec.params.channel_scale, 2.0);
        assert_eq!(spec.params.arrivals_per_sec, 120.0);
        assert_eq!(spec.params.seed, 7);
        assert_eq!(spec.scheme, SchemeChoice::Spider);
        assert!(spec.expect.no_deadlock);
    }

    #[test]
    fn tiny_builds_tiny_world() {
        let scenario = ScenarioBuilder::tiny().build_scenario();
        assert_eq!(scenario.flat.graph.node_count(), 24);
    }

    #[test]
    fn hotspot_knob_flows_into_the_trace() {
        let spec = ScenarioBuilder::tiny().hotspot(0.8, 2.0).build();
        assert_eq!(spec.params.hotspot_fraction, 0.8);
        assert_eq!(spec.params.hotspot_skew, 2.0);
        // A fully-hotspot trace must concentrate recipients more than the
        // stock trace on the same seed.
        let stock = ScenarioBuilder::tiny().build_scenario();
        let hot = ScenarioBuilder::tiny().hotspot(1.0, 2.0).build_scenario();
        let distinct = |s: &crate::Scenario| {
            let mut d: Vec<_> = s.payments.iter().map(|p| p.dest).collect();
            d.sort();
            d.dedup();
            d.len()
        };
        assert!(
            distinct(&hot) <= distinct(&stock),
            "hotspot must not widen the recipient set"
        );
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn hotspot_rejects_bad_fraction() {
        let _ = ScenarioBuilder::tiny().hotspot(1.5, 1.0);
    }

    #[test]
    fn overload_scales_traffic() {
        let base = ScenarioBuilder::tiny().build();
        let hot = ScenarioBuilder::tiny().overload(10.0).build();
        assert!(hot.params.arrivals_per_sec > base.params.arrivals_per_sec * 9.0);
        assert!(hot.params.mean_tx_tokens > base.params.mean_tx_tokens);
    }

    /// `from_params` → `build` must round-trip every field of
    /// `ScenarioParams` — the exhaustive destructure (no `..`) makes
    /// adding a params field without extending this pin a compile
    /// error, so new knobs (like the timeline) can never silently drop
    /// through the builder.
    #[test]
    fn from_params_build_round_trip_loses_no_field() {
        use crate::timeline::TimelineBuilder;
        use pcn_types::SimDuration;

        let mut input = crate::scenario::ScenarioParams::tiny();
        // Push every field off its preset value.
        input.nodes = 31;
        input.degree = 6;
        input.beta = 0.17;
        input.candidate_count = 5;
        input.duration = SimDuration::from_secs(21);
        input.channel_scale = 1.75;
        input.mean_tx_tokens = 9.5;
        input.arrivals_per_sec = 11.0;
        input.hotspot_fraction = 0.4;
        input.hotspot_skew = 1.9;
        input.timeline = TimelineBuilder::default()
            .rate_shift(2.0, 1.5)
            .hub_outage(3.0, 1, 7.0)
            .churn(0.25)
            .rebalance(5.0)
            .build();
        input.adversary = crate::adversary::AdversaryBuilder::default()
            .griefers(0.2, 6_000)
            .circular_demand(5, 1.5)
            .drop(0.1, 0.3)
            .delay(0.2, 90)
            .rogue_hub(0, crate::RogueBehavior::Stall)
            .build();
        input.seed = 4242;

        let crate::scenario::ScenarioParams {
            nodes,
            degree,
            beta,
            candidate_count,
            duration,
            channel_scale,
            mean_tx_tokens,
            arrivals_per_sec,
            hotspot_fraction,
            hotspot_skew,
            timeline,
            adversary,
            seed,
        } = ScenarioBuilder::from_params(input.clone()).build().params;
        assert_eq!(nodes, input.nodes);
        assert_eq!(degree, input.degree);
        assert_eq!(beta, input.beta);
        assert_eq!(candidate_count, input.candidate_count);
        assert_eq!(duration, input.duration);
        assert_eq!(channel_scale, input.channel_scale);
        assert_eq!(mean_tx_tokens, input.mean_tx_tokens);
        assert_eq!(arrivals_per_sec, input.arrivals_per_sec);
        assert_eq!(hotspot_fraction, input.hotspot_fraction);
        assert_eq!(hotspot_skew, input.hotspot_skew);
        assert_eq!(timeline, input.timeline);
        assert_eq!(adversary, input.adversary);
        assert_eq!(seed, input.seed);
    }

    #[test]
    fn adversary_chains_accumulate_and_flow_into_the_scenario() {
        let spec = ScenarioBuilder::tiny()
            .adversary(|a| a.griefers(0.25, 4_000))
            .adversary(|a| a.circular_demand(4, 1.0))
            .expect_value_conserved()
            .expect_honest_min_tsr(0.5)
            .expect_bounded_stall(500)
            .build();
        assert_eq!(spec.params.adversary.griefer_fraction, 0.25);
        assert_eq!(spec.params.adversary.ring_len, 4);
        assert!(spec.expect.value_conserved);
        assert_eq!(spec.expect.honest_min_tsr, Some(0.5));
        assert_eq!(spec.expect.bounded_stall_ms, Some(500));
        let world = spec.scenario();
        assert!(!world.faults.is_empty());
        assert!(!world.faults.ring_txs.is_empty());
        // An adversary-free builder still materializes an honest world.
        assert!(ScenarioBuilder::tiny().build_scenario().faults.is_empty());
    }

    #[test]
    fn timeline_chains_accumulate_and_flow_into_the_scenario() {
        let spec = ScenarioBuilder::tiny()
            .timeline(|t| t.hub_outage(3.0, 0, 6.0))
            .timeline(|t| t.rate_shift(2.0, 2.0))
            .timeline(|t| t.churn(0.5))
            .build();
        assert_eq!(spec.params.timeline.hub_outages.len(), 1);
        assert_eq!(spec.params.timeline.rate_shifts.len(), 1);
        assert_eq!(spec.params.timeline.churn_per_sec, 0.5);
        let world = spec.scenario();
        assert!(
            world.timeline.len() >= 2 + 2 * 5,
            "outage + shift + 5 churn pairs over 10 s, got {}",
            world.timeline.len()
        );
        // A timeline-free builder still materializes a static world.
        assert!(ScenarioBuilder::tiny().build_scenario().timeline.is_empty());
    }

    #[test]
    fn specs_are_reproducible() {
        let a = ScenarioBuilder::tiny().seed(5).build().scenario();
        let b = ScenarioBuilder::tiny().seed(5).build().scenario();
        assert_eq!(a.payments.len(), b.payments.len());
        assert_eq!(a.generated_value(), b.generated_value());
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn compared_schemes_have_stable_names() {
        let names: Vec<&str> = SchemeChoice::COMPARED.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["Splicer", "Spider", "Flash", "Landmark", "A2L"]);
    }
}
