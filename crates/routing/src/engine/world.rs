//! The world lifecycle stage: applying timeline events to a running
//! engine.
//!
//! A [`WorldEvent`] mutates the *environment* — topology, liquidity,
//! traffic shape — under the engine's feet, deterministically at its
//! timestamp (events ride the event queue's world lane, so at any
//! instant the environment changes before protocol events observe it).
//! Every mutation keeps the run's invariants:
//!
//! * **Closures refund, never leak.** Closing a channel expires every
//!   still-traveling TU whose current path crosses it: each locked hop
//!   is refunded through the ordinary abort path, so conservation holds
//!   and no value is stranded. TUs already delivered complete their
//!   settlement walk-back over the tombstone (their HTLCs resolved
//!   before the close). Rate-controlled flows get expired value back in
//!   their backlog; blast flows fail the transaction (the payment's
//!   fate, not the funds', is at stake).
//! * **Epochs fire.** `Graph::close_channel`/`reopen_channel`/`add_edge`
//!   bump the topology epoch, so every `PathCache` entry — hub legs
//!   included — goes provably stale and re-derives lazily on its next
//!   miss. Rebalances move balances only, which no cache entry reads.
//! * **Dense ids survive.** A closed channel is a tombstone: funds,
//!   queues, prices and endpoint tables keep their indices. An opened
//!   channel extends every table by one slot (the endpoint `Arc` is
//!   rebuilt and re-shared with the price table).
//!
//! Hub outages reuse the closure machinery: the victim's incident
//! channels all close at `at` and reopen at `recover_at`, which for hub
//! schemes makes the hub unreachable in the scheme view (access legs
//! find no edge) and for flat schemes removes a high-degree relay.

use std::sync::Arc;

use pcn_types::{ChannelId, NodeId, SimTime, TuId};

use crate::scheduler::WaitQueue;
use crate::world::{RebalancePolicy, WorldEvent};

use super::{Engine, Ev};

/// Engine-side timeline state.
#[derive(Default)]
pub(crate) struct WorldState {
    /// The materialized timeline, in application order.
    pub(super) events: Vec<WorldEvent>,
    /// Hub pool outage ranks resolve against: the scheme's hubs, or the
    /// highest-degree nodes for hub-less schemes. Snapshotted at
    /// timeline installation (before any closure skews degrees).
    hub_pool: Vec<NodeId>,
    /// Per applied outage: the channels it holds a claim on.
    outages: Vec<Vec<ChannelId>>,
    /// Per channel: how many active outages claim it closed. A channel
    /// reopens only when its last claim is released, so overlapping
    /// outages on the same hub compose instead of the first recovery
    /// reopening a hub a later outage still wants dark. Indexed by
    /// channel id; grows with mid-run opens.
    outage_claims: Vec<u32>,
    /// Scratch for the expiry scan (reused across events).
    expire_scratch: Vec<TuId>,
}

impl WorldState {
    fn claims_mut(&mut self, ch: ChannelId) -> &mut u32 {
        if ch.index() >= self.outage_claims.len() {
            self.outage_claims.resize(ch.index() + 1, 0);
        }
        &mut self.outage_claims[ch.index()]
    }

    fn claims(&self, ch: ChannelId) -> u32 {
        self.outage_claims.get(ch.index()).copied().unwrap_or(0)
    }
}

impl WorldState {
    pub(super) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Engine {
    /// Installs a world-event timeline; events apply at their timestamps
    /// once [`Engine::run`] starts. The hub pool for outage resolution
    /// is snapshotted now, against the unmutated topology.
    pub fn with_timeline(mut self, events: Vec<WorldEvent>) -> Engine {
        self.world.hub_pool = if events
            .iter()
            .any(|e| matches!(e, WorldEvent::HubOutage { .. }))
        {
            self.hub_pool()
        } else {
            Vec::new()
        };
        self.world.events = events;
        self
    }

    /// The nodes hub-outage ranks index: the scheme's own hubs where it
    /// has any ([`RouteVia::hub_set`], shared with the engine's
    /// hub-count accounting), otherwise every node ordered by descending
    /// degree (ties by id) — so a rank-0 outage always hits the most
    /// load-bearing node the scheme relies on.
    fn hub_pool(&self) -> Vec<NodeId> {
        let hubs = self.scheme.route_via.hub_set();
        if !hubs.is_empty() {
            return hubs;
        }
        let mut nodes: Vec<NodeId> = self.graph.nodes().collect();
        nodes.sort_by_key(|&v| (std::cmp::Reverse(self.graph.degree(v)), v));
        nodes
    }

    /// Schedules every timeline event on the world lane (called once at
    /// the start of [`Engine::run`]).
    pub(super) fn schedule_world_events(&mut self) {
        for (i, ev) in self.world.events.iter().enumerate() {
            self.events.schedule_world_at(ev.at(), Ev::World(i as u32));
        }
    }

    /// Applies timeline event `idx` at its timestamp.
    pub(super) fn on_world(&mut self, now: SimTime, idx: u32) {
        let event = self.world.events[idx as usize].clone();
        match event {
            WorldEvent::RateShift { .. } => {
                // The trace already embeds the phased arrival gaps; the
                // engine-side application is the accounting marker.
            }
            WorldEvent::HubOutage {
                hub_rank,
                recover_at,
                ..
            } => {
                let pool = &self.world.hub_pool;
                if pool.is_empty() {
                    // A hubless, nodeless world has nothing to darken;
                    // count the event and move on rather than divide by
                    // zero resolving the rank.
                    self.stats.world_events_applied += 1;
                    return;
                }
                let hub = pool[hub_rank % pool.len()];
                // Claim every incident channel that is open (close it
                // now) or already held dark by another outage (stack a
                // claim so the earlier recovery cannot reopen it under
                // us). Channels closed by churn — closed with no claim —
                // are not the outage's to reopen and stay untouched.
                let mut claimed: Vec<ChannelId> = Vec::new();
                for ch in self.graph.edges().collect::<Vec<_>>() {
                    let (a, b) = self.graph.endpoints(ch).expect("dense edge ids");
                    if a != hub && b != hub {
                        continue;
                    }
                    if !self.graph.is_closed(ch) {
                        self.close_channel_now(now, ch);
                    } else if self.world.claims(ch) == 0 {
                        continue;
                    }
                    *self.world.claims_mut(ch) += 1;
                    claimed.push(ch);
                }
                let outage = self.world.outages.len() as u32;
                self.world.outages.push(claimed);
                self.events
                    .schedule_world_at(recover_at.max(now), Ev::WorldRecover(outage));
            }
            WorldEvent::ChannelClose { selector, .. } => {
                let open = self.graph.open_edge_count();
                if open > 0 {
                    let victim = self
                        .graph
                        .open_edges()
                        .nth((selector % open as u64) as usize)
                        .expect("open_edge_count counted it");
                    self.close_channel_now(now, victim);
                }
            }
            WorldEvent::ChannelOpen {
                a_sel,
                b_sel,
                funds_per_side,
                ..
            } => {
                let n = self.graph.node_count() as u64;
                if n < 2 {
                    // Nowhere to hang a channel; count the event and
                    // move on rather than divide by zero resolving the
                    // endpoint selectors.
                    self.stats.world_events_applied += 1;
                    return;
                }
                let a = a_sel % n;
                let mut b = b_sel % n;
                if b == a {
                    b = (b + 1) % n;
                }
                let (a, b) = (
                    NodeId::from_index(a as usize),
                    NodeId::from_index(b as usize),
                );
                self.graph.add_edge(a, b);
                self.funds.add_channel(a, b, funds_per_side, funds_per_side);
                self.queues.push((
                    WaitQueue::new(self.scheme.discipline, self.cfg.queue_capacity),
                    WaitQueue::new(self.scheme.discipline, self.cfg.queue_capacity),
                ));
                // Rebuild the shared endpoint table; the price table
                // adopts the same allocation and grows its own columns.
                let mut endpoints: Vec<(NodeId, NodeId)> = self.endpoints.to_vec();
                endpoints.push((a, b));
                self.endpoints = Arc::from(endpoints);
                self.prices.set_endpoints(Arc::clone(&self.endpoints));
            }
            WorldEvent::Rebalance { policy, .. } => match policy {
                RebalancePolicy::Equalize => {
                    // Open channels only, in ascending id order.
                    for i in 0..self.funds.len() {
                        let ch = ChannelId::from_index(i);
                        if !self.graph.is_closed(ch) {
                            self.funds.rebalance_equalize(ch).expect("dense channel id");
                        }
                    }
                }
            },
        }
        self.stats.world_events_applied += 1;
    }

    /// Releases a hub outage's claims, reopening each channel whose
    /// last claim this was (channels still claimed by an overlapping
    /// outage stay dark until that one recovers too).
    pub(super) fn on_world_recover(&mut self, outage: u32) {
        let channels = std::mem::take(&mut self.world.outages[outage as usize]);
        for &ch in &channels {
            let claims = self.world.claims_mut(ch);
            *claims -= 1;
            if *claims == 0 && self.graph.is_closed(ch) {
                self.graph.reopen_channel(ch).expect("closed by the outage");
            }
        }
        self.stats.world_events_applied += 1;
    }

    /// Closes `ch` and expires every *traveling* TU whose current path
    /// crosses it. Expiry goes through [`Engine::abort_tu`], so locked
    /// hops — on this channel and every other hop of the doomed TU —
    /// are refunded and queue residency is cleaned up. TUs that already
    /// reached their destination (`next_hop == hops`) are spared: their
    /// HTLCs resolved before the close, and the settlement walk-back
    /// completes over the tombstone — aborting them would refund hops
    /// whose locks have already settled.
    fn close_channel_now(&mut self, now: SimTime, ch: ChannelId) {
        self.graph
            .close_channel(ch)
            .expect("closing an open channel");
        let mut doomed = std::mem::take(&mut self.world.expire_scratch);
        doomed.clear();
        doomed.extend(
            self.tus
                .iter()
                .filter(|tu| tu.next_hop < tu.path().hops() && tu.path().channels().contains(&ch))
                .map(|tu| tu.id),
        );
        for &tu in &doomed {
            self.abort_tu(now, tu, false);
            self.stats.tus_expired_by_close += 1;
        }
        self.world.expire_scratch = doomed;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{payments_from_tuples, Engine, EngineConfig};
    use crate::channel::NetworkFunds;
    use crate::scheme::SchemeConfig;
    use crate::world::{RebalancePolicy, WorldEvent};
    use pcn_sim::SimRng;
    use pcn_types::{Amount, ChannelId, NodeId, SimDuration, SimTime};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn line(k: usize) -> pcn_graph::Graph {
        let mut g = pcn_graph::Graph::new(k);
        for i in 0..k - 1 {
            g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
        }
        g
    }

    /// Drives an engine with a timeline to completion in place (the
    /// real [`Engine::begin`] startup), so funds and graph stay
    /// inspectable afterwards.
    fn drive(engine: &mut Engine, payments: Vec<crate::tu::Payment>) {
        engine.begin(payments);
        while let Some((now, ev)) = engine.events.pop() {
            engine.handle(now, ev);
        }
    }

    /// Closing a channel mid-flight expires the TU crossing it and
    /// refunds every hop it had locked: value is conserved, nothing
    /// stays locked on the closed channel, and the payment fails
    /// instead of leaking.
    #[test]
    fn channel_close_refunds_in_flight_tus() {
        let g = line(4);
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let grand = funds.grand_total();
        // Close the *last* hop at 50 ms: the TU (hop delay 40 ms) has
        // locked hops 0 and 1 by then and is en route to hop 2.
        let timeline = vec![WorldEvent::ChannelClose {
            at: SimTime::from_micros(50_000),
            selector: 2, // channels 0,1,2 all open → picks id 2
        }];
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::shortest_path(),
            EngineConfig::default(),
            SimRng::seed(1),
        )
        .with_timeline(timeline);
        let payments = payments_from_tuples(&[(0, 0, 3, 4)], SimDuration::from_secs(3));
        drive(&mut engine, payments);
        assert_eq!(engine.stats.world_events_applied, 1);
        assert_eq!(engine.stats.tus_expired_by_close, 1);
        assert_eq!(engine.stats.completed, 0);
        assert_eq!(engine.stats.failed, 1);
        // Every lock was refunded; total value is conserved.
        for i in 0..3u32 {
            let ch = ChannelId::new(i);
            let (a, b) = engine.graph.endpoints(ch).unwrap();
            assert!(engine.funds.locked(ch, a).is_zero(), "lock left on {ch:?}");
            assert!(engine.funds.locked(ch, b).is_zero(), "lock left on {ch:?}");
        }
        assert_eq!(engine.funds.grand_total(), grand);
        assert!(engine.funds.verify_conservation());
        assert!(engine.graph.is_closed(ChannelId::new(2)));
    }

    /// A hub outage closes the hub's incident channels (payments through
    /// it fail while it is dark) and recovery reopens them (later
    /// payments succeed again). The topology epoch moves both times, so
    /// cached hub legs re-derive instead of serving the dead topology.
    #[test]
    fn hub_outage_darkens_and_recovery_restores() {
        let g = pcn_graph::star(4); // hub 0, leaves 1..3
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let assignment: std::collections::BTreeMap<NodeId, NodeId> =
            [(n(1), n(0)), (n(2), n(0)), (n(3), n(0))]
                .into_iter()
                .collect();
        let timeline = vec![WorldEvent::HubOutage {
            at: SimTime::from_micros(1_000_000),
            hub_rank: 0,
            recover_at: SimTime::from_micros(2_000_000),
        }];
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::splicer(assignment),
            EngineConfig::default(),
            SimRng::seed(2),
        )
        .with_timeline(timeline);
        let epoch_before = engine.graph.topology_epoch();
        // One payment per phase: before the outage, during, after.
        let payments = payments_from_tuples(
            &[(0, 1, 2, 1), (1_200, 1, 3, 1), (4_000, 2, 3, 1)],
            SimDuration::from_millis(700),
        );
        drive(&mut engine, payments);
        assert_eq!(
            engine.stats.world_events_applied, 2,
            "outage + recovery both count"
        );
        assert_eq!(engine.stats.completed, 2, "phases 1 and 3 succeed");
        assert_eq!(engine.stats.failed, 1, "the mid-outage payment dies");
        assert_eq!(engine.stats.unroutable, 1, "no plan while the hub is dark");
        // All three spokes reopened.
        assert_eq!(engine.graph.open_edge_count(), 3);
        assert!(
            engine.graph.topology_epoch() >= epoch_before + 6,
            "3 closures + 3 reopens must bump the epoch"
        );
        assert!(engine.funds.verify_conservation());
    }

    /// Overlapping outages on the same hub compose: the first recovery
    /// must not reopen channels a still-active outage claims; the hub
    /// stays dark until the *last* claim releases. Pure churn closes
    /// (no claim) are never reopened by a recovery.
    #[test]
    fn overlapping_outages_keep_the_hub_dark_until_the_last_recovery() {
        let g = pcn_graph::star(4); // hub 0
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let sec = |s: u64| SimTime::from_micros(s * 1_000_000);
        let timeline = vec![
            WorldEvent::HubOutage {
                at: sec(1),
                hub_rank: 0,
                recover_at: sec(3),
            },
            WorldEvent::HubOutage {
                at: sec(2),
                hub_rank: 0,
                recover_at: sec(5),
            },
        ];
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::shortest_path(),
            EngineConfig::default(),
            SimRng::seed(6),
        )
        .with_timeline(timeline);
        // One payment in the overlap window, one after the first
        // recovery (hub must STILL be dark), one after the second.
        let payments = payments_from_tuples(
            &[(2_200, 1, 2, 1), (3_500, 1, 3, 1), (5_500, 2, 3, 1)],
            SimDuration::from_millis(400),
        );
        drive(&mut engine, payments);
        assert_eq!(
            engine.stats.unroutable, 2,
            "both in-outage payments (incl. post-first-recovery) fail"
        );
        assert_eq!(engine.stats.completed, 1, "only the t=5.5s payment routes");
        assert_eq!(
            engine.graph.open_edge_count(),
            3,
            "all spokes reopen once the last claim releases"
        );
        assert_eq!(engine.stats.world_events_applied, 4);
    }

    /// ChannelOpen extends every dense side table (funds, queues,
    /// prices, endpoints) and the new channel is immediately routable.
    #[test]
    fn channel_open_grows_the_world() {
        // 0-1-2 line; a payment 0→2 after the event can use the new
        // direct 0-2 channel.
        let g = line(3);
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(1));
        let timeline = vec![WorldEvent::ChannelOpen {
            at: SimTime::from_micros(10_000),
            a_sel: 0,
            b_sel: 2,
            funds_per_side: Amount::from_tokens(50),
        }];
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::shortest_path(),
            EngineConfig::default(),
            SimRng::seed(3),
        )
        .with_timeline(timeline);
        // 5 tokens cannot cross the 1-token line, but fits the new
        // 50-token channel opened at 10 ms.
        let payments = payments_from_tuples(&[(20, 0, 2, 5)], SimDuration::from_secs(3));
        drive(&mut engine, payments);
        assert_eq!(engine.stats.world_events_applied, 1);
        assert_eq!(engine.graph.edge_count(), 3);
        assert_eq!(engine.queues.len(), 3);
        assert_eq!(engine.endpoints.len(), 3);
        assert_eq!(engine.endpoints[2], (n(0), n(2)));
        assert_eq!(engine.stats.completed, 1, "{}", engine.stats);
        let new_ch = ChannelId::new(2);
        assert_eq!(
            engine.funds.balance(new_ch, n(2)),
            Amount::from_tokens(55),
            "5 tokens crossed the freshly opened channel"
        );
        assert!(engine.funds.verify_conservation());
    }

    /// Rebalance resets drifted spendable balances on every open channel;
    /// closed tombstones keep theirs.
    #[test]
    fn rebalance_equalizes_open_channels() {
        let mut g = line(3);
        let drifted = ChannelId::new(0);
        let closed = g.add_edge(n(0), n(2));
        g.close_channel(closed).unwrap();
        let funds = NetworkFunds::from_graph(&g, |ch, side| {
            let tokens = match (ch == drifted, ch == closed, side == n(0)) {
                (true, _, true) => 10,
                (true, _, false) => 0,
                (_, true, true) => 7,
                (_, true, false) => 1,
                _ => 4,
            };
            Amount::from_tokens(tokens)
        });
        let timeline = vec![WorldEvent::Rebalance {
            at: SimTime::from_micros(1000),
            policy: RebalancePolicy::Equalize,
        }];
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::shortest_path(),
            EngineConfig::default(),
            SimRng::seed(4),
        )
        .with_timeline(timeline);
        drive(&mut engine, Vec::new());
        assert_eq!(engine.stats.world_events_applied, 1);
        assert_eq!(engine.funds.balance(drifted, n(0)), Amount::from_tokens(5));
        assert_eq!(engine.funds.balance(drifted, n(1)), Amount::from_tokens(5));
        let tokens = |ch, side| engine.funds.balance(ch, n(side)).to_tokens_f64();
        assert_eq!(
            (tokens(closed, 0), tokens(closed, 2)),
            (7.0, 1.0),
            "closed channels are not rebalanced"
        );
        let even = ChannelId::new(1);
        assert_eq!(
            (tokens(even, 1), tokens(even, 2)),
            (4.0, 4.0),
            "already-even channels move nothing"
        );
    }

    /// World events pop before protocol events at the same timestamp
    /// (the world lane), so a payment arriving at the exact instant its
    /// only channel closes must observe the closed world.
    #[test]
    fn world_events_apply_before_same_instant_arrivals() {
        let g = line(2);
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let timeline = vec![WorldEvent::ChannelClose {
            at: SimTime::ZERO,
            selector: 0,
        }];
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::shortest_path(),
            EngineConfig::default(),
            SimRng::seed(5),
        )
        .with_timeline(timeline);
        let payments = payments_from_tuples(&[(0, 0, 1, 1)], SimDuration::from_secs(3));
        drive(&mut engine, payments);
        assert_eq!(engine.stats.unroutable, 1, "the closure won the instant");
        assert_eq!(engine.stats.completed, 0);
    }
}
