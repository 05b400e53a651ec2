//! The timeline DSL: pure-data descriptions of how a world changes
//! mid-run.
//!
//! A [`TimelineSpec`] rides inside `ScenarioParams` the way every other
//! world knob does — it is compared, cloned and hashed into grid cells
//! as plain data, and two identical specs always materialize identical
//! event lists. Materialization ([`TimelineSpec::materialize`]) resolves
//! the spec into the engine-facing [`WorldEvent`]s:
//!
//! * **Rate shifts** stay declarative — the trace generator consumes
//!   them as phased arrival gaps — but still appear in the event list as
//!   markers so the engine's `world_events_applied` counter reflects the
//!   full timeline.
//! * **Churn** expands into one `ChannelClose` + `ChannelOpen` pair per
//!   `1 / churn_per_sec` seconds, with selectors and funding drawn from
//!   a dedicated RNG fork (`"timeline"`): the payment trace is
//!   byte-identical with churn on or off, and a zero churn rate draws no
//!   randomness at all.
//! * **Hub outages** and **rebalances** map one-to-one.
//!
//! Build one through [`TimelineBuilder`], usually via
//! `ScenarioBuilder::timeline`:
//!
//! ```
//! use pcn_workload::ScenarioBuilder;
//!
//! let spec = ScenarioBuilder::tiny()
//!     .timeline(|t| {
//!         t.rate_shift(2.0, 1.5)
//!             .hub_outage(3.0, 0, 6.0)
//!             .churn(0.5)
//!             .rebalance(5.0)
//!     })
//!     .build();
//! assert_eq!(spec.params.timeline.churn_per_sec, 0.5);
//! let world = spec.scenario();
//! assert!(!world.timeline.is_empty());
//! ```

use pcn_routing::world::WorldEvent;
use pcn_sim::SimRng;
use pcn_types::{SimDuration, SimTime};

use crate::funds::ChannelFunds;

/// One planned hub outage (ranks resolve against the run's hub set).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HubOutageSpec {
    /// Outage start, seconds from run start.
    pub at_secs: f64,
    /// Rank of the victim hub within the scheme's hub set.
    pub hub_rank: usize,
    /// Recovery time, seconds from run start.
    pub recover_secs: f64,
}

/// Pure-data timeline description; a field of `ScenarioParams`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineSpec {
    /// Arrival-rate phase boundaries `(at_secs, factor)`, applied in
    /// order by the trace generator.
    pub rate_shifts: Vec<(f64, f64)>,
    /// Planned hub outages.
    pub hub_outages: Vec<HubOutageSpec>,
    /// Channel churn rate: one close + open pair per `1 / rate` seconds
    /// (0 = no churn, the default).
    pub churn_per_sec: f64,
    /// Equalizing liquidity rebalances, seconds from run start.
    pub rebalances: Vec<f64>,
}

impl TimelineSpec {
    /// Whether the timeline holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.rate_shifts.is_empty()
            && self.hub_outages.is_empty()
            && self.churn_per_sec == 0.0
            && self.rebalances.is_empty()
    }

    /// Resolves the spec into the sorted engine-facing event list.
    /// Deterministic per `rng` seed; draws no randomness when
    /// `churn_per_sec` is zero (the churnless path is rng-neutral).
    pub fn materialize(
        &self,
        duration: SimDuration,
        sampler: &ChannelFunds,
        rng: &mut SimRng,
    ) -> Vec<WorldEvent> {
        let at = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs);
        let mut events: Vec<WorldEvent> = Vec::new();
        for &(secs, factor) in &self.rate_shifts {
            events.push(WorldEvent::RateShift {
                at: at(secs),
                factor,
            });
        }
        for outage in &self.hub_outages {
            events.push(WorldEvent::HubOutage {
                at: at(outage.at_secs),
                hub_rank: outage.hub_rank,
                recover_at: at(outage.recover_secs),
            });
        }
        for &secs in &self.rebalances {
            events.push(WorldEvent::Rebalance { at: at(secs) });
        }
        if self.churn_per_sec > 0.0 {
            let ticks = (duration.as_secs_f64() * self.churn_per_sec).floor() as u64;
            for k in 1..=ticks {
                let t = at(k as f64 / self.churn_per_sec);
                events.push(WorldEvent::ChannelClose {
                    at: t,
                    selector: rng.next_u64(),
                });
                events.push(WorldEvent::ChannelOpen {
                    at: t,
                    a_sel: rng.next_u64(),
                    b_sel: rng.next_u64(),
                    funds_per_side: sampler.sample(rng),
                });
            }
        }
        // Stable by time: same-instant events keep spec order (shifts,
        // outages, rebalances, then churn pairs).
        events.sort_by_key(WorldEvent::at);
        events
    }
}

/// Chainable builder over [`TimelineSpec`]; see the module example.
#[derive(Clone, Debug, Default)]
pub struct TimelineBuilder {
    spec: TimelineSpec,
}

impl TimelineBuilder {
    /// Starts from an existing spec (what `ScenarioBuilder::timeline`
    /// passes in, so repeated calls accumulate).
    pub fn from_spec(spec: TimelineSpec) -> TimelineBuilder {
        TimelineBuilder { spec }
    }

    /// From `at_secs` on, arrivals run at `factor ×` the base rate.
    /// Shifts may be declared in any order; they always apply in
    /// ascending time order.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not finite and positive, or `at_secs` is
    /// not finite and non-negative.
    pub fn rate_shift(mut self, at_secs: f64, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rate factor must be positive"
        );
        assert!(
            at_secs.is_finite() && at_secs >= 0.0,
            "rate shift time must be non-negative"
        );
        self.spec.rate_shifts.push((at_secs, factor));
        self
    }

    /// The `hub_rank`-th hub goes dark over `[at_secs, recover_secs)`.
    ///
    /// # Panics
    ///
    /// Panics when `recover_secs < at_secs`.
    pub fn hub_outage(mut self, at_secs: f64, hub_rank: usize, recover_secs: f64) -> Self {
        assert!(recover_secs >= at_secs, "recovery precedes the outage");
        self.spec.hub_outages.push(HubOutageSpec {
            at_secs,
            hub_rank,
            recover_secs,
        });
        self
    }

    /// One channel close + open pair per `1 / per_sec` seconds.
    ///
    /// # Panics
    ///
    /// Panics when `per_sec` is negative or not finite.
    pub fn churn(mut self, per_sec: f64) -> Self {
        assert!(
            per_sec.is_finite() && per_sec >= 0.0,
            "churn rate must be non-negative"
        );
        self.spec.churn_per_sec = per_sec;
        self
    }

    /// Equalizing liquidity reset at `at_secs`.
    pub fn rebalance(mut self, at_secs: f64) -> Self {
        self.spec.rebalances.push(at_secs);
        self
    }

    /// Finishes the chain into the pure-data spec.
    pub fn build(self) -> TimelineSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> ChannelFunds {
        ChannelFunds::lightning()
    }

    #[test]
    fn empty_spec_materializes_nothing_and_draws_no_randomness() {
        let spec = TimelineSpec::default();
        assert!(spec.is_empty());
        let mut rng = SimRng::seed(1);
        let events = spec.materialize(SimDuration::from_secs(60), &sampler(), &mut rng);
        assert!(events.is_empty());
        assert_eq!(
            rng.next_u64(),
            SimRng::seed(1).next_u64(),
            "materializing an empty timeline must not consume randomness"
        );
    }

    #[test]
    fn events_sort_by_time_and_cover_all_kinds() {
        let spec = TimelineBuilder::default()
            .rate_shift(5.0, 2.0)
            .hub_outage(1.0, 0, 8.0)
            .churn(0.5)
            .rebalance(3.0)
            .build();
        let events = spec.materialize(SimDuration::from_secs(10), &sampler(), &mut SimRng::seed(2));
        // 1 shift + 1 outage + 1 rebalance + 5 churn pairs (t = 2,4,…,10).
        assert_eq!(events.len(), 13);
        assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
        assert!(events
            .iter()
            .any(|e| matches!(e, WorldEvent::RateShift { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, WorldEvent::HubOutage { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, WorldEvent::Rebalance { .. })));
        let closes = events
            .iter()
            .filter(|e| matches!(e, WorldEvent::ChannelClose { .. }))
            .count();
        let opens = events
            .iter()
            .filter(|e| matches!(e, WorldEvent::ChannelOpen { .. }))
            .count();
        assert_eq!((closes, opens), (5, 5));
    }

    #[test]
    fn materialization_is_deterministic_per_seed() {
        let spec = TimelineBuilder::default().churn(1.0).build();
        let a = spec.materialize(SimDuration::from_secs(7), &sampler(), &mut SimRng::seed(9));
        let b = spec.materialize(SimDuration::from_secs(7), &sampler(), &mut SimRng::seed(9));
        assert_eq!(a, b);
        let c = spec.materialize(SimDuration::from_secs(7), &sampler(), &mut SimRng::seed(10));
        assert_ne!(a, c, "distinct seeds must draw distinct selectors");
    }

    #[test]
    #[should_panic(expected = "recovery precedes the outage")]
    fn outage_recovering_before_start_rejected() {
        let _ = TimelineBuilder::default().hub_outage(5.0, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate factor")]
    fn bad_rate_factor_rejected() {
        let _ = TimelineBuilder::default().rate_shift(1.0, 0.0);
    }
}
