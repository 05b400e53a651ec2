//! The world-event vocabulary: pure-data descriptions of mid-run
//! environment mutations.
//!
//! A static scenario freezes the world at `t = 0`; a **timeline** of
//! [`WorldEvent`]s makes it dynamic — arrival rates shift, hubs fail and
//! recover, channels close and open, liquidity rebalances — while the
//! run stays fully deterministic. Events are materialized once per
//! scenario (workload layer) and applied by the engine's `world`
//! lifecycle stage at their timestamps, on the event queue's *world
//! lane* ([`pcn_sim::EventQueue::schedule_world_at`]): at any instant,
//! the environment mutates before any protocol event observes it.
//!
//! Events name their targets by **selector**, not by id: a selector is
//! resolved against the run's own view of the world at application time
//! (`selector % open_channel_count`, hub rank within the scheme's hub
//! set), so one timeline drives every scheme's topology — flat, rewired
//! multi-star, or single star — without baking a specific graph into
//! the spec.

use pcn_types::{Amount, SimTime};

/// One mid-run environment mutation, applied deterministically at
/// [`WorldEvent::at`]. Pure data: a timeline is a sorted `Vec` of these.
#[derive(Clone, Debug, PartialEq)]
pub enum WorldEvent {
    /// Arrival-rate phase boundary: from `at` on, the workload generates
    /// arrivals at `factor ×` the base rate. Consumed by the trace
    /// generator (the trace embeds the phased gaps); the engine applies
    /// it as a marker so `world_events_applied` reflects the full
    /// timeline.
    RateShift {
        /// When the new phase starts.
        at: SimTime,
        /// Multiplier on the base arrival rate.
        factor: f64,
    },
    /// A hub goes dark at `at` and recovers at `recover_at`: every
    /// channel incident to it closes, then reopens. `hub_rank` indexes
    /// the run's hub set (assigned hubs for hub schemes, the
    /// highest-degree nodes otherwise), modulo its size.
    HubOutage {
        /// Outage start.
        at: SimTime,
        /// Rank of the victim within the scheme's hub set.
        hub_rank: usize,
        /// When the hub's channels reopen.
        recover_at: SimTime,
    },
    /// One open channel closes (tombstoned: searches stop seeing it,
    /// in-flight TUs crossing it are expired and refunded, its funds
    /// stay conserved but inert). The victim is the `selector %
    /// open_count`-th open channel in ascending id order.
    ChannelClose {
        /// When the channel closes.
        at: SimTime,
        /// Pseudo-random victim selector.
        selector: u64,
    },
    /// A brand-new channel opens between two distinct nodes (`a_sel` /
    /// `b_sel` modulo the node count, nudged apart on collision), funded
    /// with `funds_per_side` on each side.
    ChannelOpen {
        /// When the channel opens.
        at: SimTime,
        /// Endpoint selector for one side.
        a_sel: u64,
        /// Endpoint selector for the other side.
        b_sel: u64,
        /// Initial spendable balance per side.
        funds_per_side: Amount,
    },
    /// Liquidity reset across every open channel: each channel's
    /// *spendable* value splits evenly between its two directions
    /// (locked in-flight value is untouched; any odd millitoken goes to
    /// the `a` side). Models an out-of-band rebalancing service resetting
    /// accumulated drift.
    Rebalance {
        /// When the rebalance runs.
        at: SimTime,
    },
}

impl WorldEvent {
    /// The timestamp this event applies at.
    pub fn at(&self) -> SimTime {
        match self {
            WorldEvent::RateShift { at, .. }
            | WorldEvent::HubOutage { at, .. }
            | WorldEvent::ChannelClose { at, .. }
            | WorldEvent::ChannelOpen { at, .. }
            | WorldEvent::Rebalance { at } => *at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_covers_every_variant() {
        let t = SimTime::from_micros(7);
        let events = [
            WorldEvent::RateShift { at: t, factor: 2.0 },
            WorldEvent::HubOutage {
                at: t,
                hub_rank: 0,
                recover_at: t,
            },
            WorldEvent::ChannelClose { at: t, selector: 3 },
            WorldEvent::ChannelOpen {
                at: t,
                a_sel: 1,
                b_sel: 2,
                funds_per_side: Amount::from_tokens(5),
            },
            WorldEvent::Rebalance { at: t },
        ];
        assert!(events.iter().all(|e| e.at() == t));
    }
}
