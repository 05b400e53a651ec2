//! The periodic control plane: every τ the engine re-prices channels
//! (eqs. 21–25), expires and marks queued TUs, updates per-path rates
//! from freshly probed prices (eq. 26), and accounts hub epoch-state
//! synchronization overhead (§III-B).

use pcn_types::constants::QUEUE_DELAY_THRESHOLD;
use pcn_types::SimTime;

use super::{Engine, Ev, ETA, KAPPA, T_FEE};

impl Engine {
    pub(super) fn on_price_tick(&mut self, now: SimTime) {
        // Eqs. 21–22 per channel: n = locked + queued value per direction.
        let funds = &self.funds;
        let queues = &self.queues;
        let endpoints = &self.endpoints;
        self.prices.tick(
            KAPPA,
            ETA,
            |ch| {
                let (a, b) = endpoints[ch.index()];
                let q = &queues[ch.index()];
                let n_a = funds.locked(ch, a).to_tokens_f64() + q.0.queued_value().to_tokens_f64();
                let n_b = funds.locked(ch, b).to_tokens_f64() + q.1.queued_value().to_tokens_f64();
                (n_a, n_b)
            },
            |ch| funds.total(ch).to_tokens_f64(),
        );
        // Expire queued TUs whose transactions are past deadline, and mark
        // the ones waiting longer than T. The scratch buffers persist on
        // the engine: a quiet tick allocates nothing.
        let mut expired = std::mem::take(&mut self.scratch_expired);
        let mut to_mark = std::mem::take(&mut self.scratch_marked);
        expired.clear();
        to_mark.clear();
        for pair in self.queues.iter_mut() {
            for q in [&mut pair.0, &mut pair.1] {
                q.drain_expired_into(now, &mut expired);
                q.over_delay_into(now, QUEUE_DELAY_THRESHOLD, &mut to_mark);
            }
        }
        for e in &expired {
            self.abort_tu(now, e.tu, true);
        }
        for &tu_id in &to_mark {
            if let Some(tu) = self.tus.get_mut(tu_id) {
                if !tu.marked {
                    tu.marked = true;
                    self.stats.marked_tus += 1;
                }
            }
        }
        self.scratch_expired = expired;
        self.scratch_marked = to_mark;
        // Rate updates from freshly probed path prices (eq. 26), plus
        // probe overhead accounting.
        if self.scheme.rate_control {
            let mut prune = false;
            let mut prices = std::mem::take(&mut self.scratch_prices);
            for &tx in &self.active {
                let Some(state) = self.txs.get_mut(tx) else {
                    prune = true;
                    continue;
                };
                if state.resolved {
                    prune = true;
                    continue;
                }
                let Some(flow) = state.flow.as_mut() else {
                    continue;
                };
                let Some(rates) = flow.rates.as_mut() else {
                    continue;
                };
                prices.clear();
                prices.extend(flow.paths.iter().map(|p| self.prices.path_price(p, T_FEE)));
                rates.update(&prices);
                self.stats.overhead_msgs += flow.paths.iter().map(|p| p.hops() as u64).sum::<u64>();
            }
            self.scratch_prices = prices;
            if prune {
                let txs = &self.txs;
                self.active
                    .retain(|&tx| txs.get(tx).is_some_and(|s| !s.resolved));
            }
        }
        // Hub state synchronization (epoch exchange, §III-B).
        if self.hub_count > 1 {
            self.stats.overhead_msgs += (self.hub_count * (self.hub_count - 1)) as u64;
        }
        // Deadlock watchdog — armed only when a fault plan is installed.
        // Pure observation: no overhead messages, no scheduled events, so
        // the adversarial control plane is invisible beyond the faults
        // themselves.
        self.detect_deadlock();
        if now + self.cfg.update_interval <= self.horizon {
            self.events
                .schedule_after(self.cfg.update_interval, Ev::PriceTick);
        }
    }

    /// The deadlock detector: a stalled-run watchdog gated on a
    /// fully-drained-direction cycle over the open graph.
    ///
    /// If no lock or settle happened for a whole τ (the watchdog half),
    /// look for a cycle in the digraph of *drained directions* — an edge
    /// `u → v` wherever `u`'s side of open channel `(u, v)` holds less
    /// than one Min-TU of spendable funds, i.e. the direction no TU can
    /// traverse until the opposite flow refills it. A cycle of drained
    /// directions is Fig. 1's deadlock shape scaled up: every participant needs
    /// liquidity only the stalled cycle itself could provide. Detection
    /// latches (`RunStats::deadlocks_detected` counts distinct stall
    /// episodes, not ticks) and unlatches on the next forward progress.
    fn detect_deadlock(&mut self) {
        {
            let Some(fault) = self.fault.as_mut() else {
                return;
            };
            let progressed = fault.progress != fault.last_progress;
            fault.last_progress = fault.progress;
            if progressed {
                fault.latched = false;
                return;
            }
            if fault.latched {
                return;
            }
        }
        let n = self.graph.node_count();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for ch in self.graph.open_edges() {
            let (a, b) = self.endpoints[ch.index()];
            if self.funds.balance(ch, a) < self.cfg.min_tu {
                edges.push((a.raw(), b.raw()));
            }
            if self.funds.balance(ch, b) < self.cfg.min_tu {
                edges.push((b.raw(), a.raw()));
            }
        }
        if edges.is_empty() {
            return;
        }
        // CSR-lite over the drained digraph, then an iterative 3-colour
        // DFS: a grey→grey edge is a cycle.
        edges.sort_unstable();
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut colour = vec![0u8; n]; // 0 white, 1 grey (on stack), 2 black
        let mut stack: Vec<(u32, usize)> = Vec::new();
        let mut found = false;
        'starts: for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            colour[start] = 1;
            stack.push((start as u32, offsets[start]));
            while let Some(frame) = stack.last_mut() {
                let u = frame.0 as usize;
                if frame.1 == offsets[u + 1] {
                    colour[u] = 2;
                    stack.pop();
                    continue;
                }
                let v = edges[frame.1].1 as usize;
                frame.1 += 1;
                match colour[v] {
                    0 => {
                        colour[v] = 1;
                        stack.push((v as u32, offsets[v]));
                    }
                    1 => {
                        found = true;
                        break 'starts;
                    }
                    _ => {}
                }
            }
        }
        if found {
            self.stats.deadlocks_detected += 1;
            self.fault.as_mut().expect("checked above").latched = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{payments_from_tuples, Engine, EngineConfig};
    use crate::channel::NetworkFunds;
    use crate::scheme::SchemeConfig;
    use pcn_sim::SimRng;
    use pcn_types::{Amount, NodeId, SimDuration, SimTime};
    use std::collections::BTreeMap;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Price ticks self-schedule every τ until the horizon and then stop
    /// (this cadence drove the `run` loop invisibly in the monolith).
    #[test]
    fn price_tick_reschedules_until_horizon() {
        let mut g = pcn_graph::Graph::new(2);
        g.add_edge(n(0), n(1));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::spider(),
            EngineConfig::default(),
            SimRng::seed(1),
        );
        let tau = engine.cfg.update_interval;
        // Horizon fits exactly 5 further ticks after the first.
        engine.horizon = SimTime::ZERO + tau.saturating_mul(6);
        engine
            .events
            .schedule_after(tau, super::super::Ev::PriceTick);
        let mut ticks = 0;
        while let Some((now, ev)) = engine.events.pop() {
            assert!(
                matches!(ev, super::super::Ev::PriceTick),
                "only ticks are pending"
            );
            ticks += 1;
            engine.handle(now, ev);
        }
        assert_eq!(ticks, 6, "τ cadence must cover (0, horizon]");
        assert!(engine.events.is_empty());
    }

    /// Each tick on a multi-hub scheme accounts the pairwise epoch
    /// synchronization messages: hubs × (hubs − 1) per τ.
    #[test]
    fn hub_sync_overhead_counted_per_tick() {
        // Two hubs (4, 5) serving clients 0–3.
        let mut g = pcn_graph::Graph::new(6);
        g.add_edge(n(0), n(4));
        g.add_edge(n(1), n(4));
        g.add_edge(n(2), n(5));
        g.add_edge(n(3), n(5));
        g.add_edge(n(4), n(5));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let assignment: BTreeMap<NodeId, NodeId> =
            [(n(0), n(4)), (n(1), n(4)), (n(2), n(5)), (n(3), n(5))]
                .into_iter()
                .collect();
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::splicer(assignment),
            EngineConfig::default(),
            SimRng::seed(2),
        );
        assert_eq!(engine.hub_count, 2);
        let before = engine.stats.overhead_msgs;
        engine.on_price_tick(SimTime::ZERO);
        assert_eq!(engine.stats.overhead_msgs, before + 2, "2 hubs → 2 msgs/τ");
    }

    /// A tick expires queued TUs whose deadline has passed, aborting them
    /// through the refund path.
    #[test]
    fn tick_expires_overdue_queued_tus() {
        let mut g = pcn_graph::Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        // Second hop has no funds: the TU must queue there.
        let funds = NetworkFunds::from_graph(&g, |ch, side| {
            if ch.index() == 0 || side == n(2) {
                Amount::from_tokens(50)
            } else {
                Amount::ZERO
            }
        });
        let payments = payments_from_tuples(&[(0, 0, 2, 2)], SimDuration::from_millis(300));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::spider(),
            EngineConfig::default(),
            SimRng::seed(3),
        );
        engine.horizon = payments[0].deadline + engine.cfg.update_interval;
        engine.payments = payments.into();
        engine
            .events
            .schedule_at(SimTime::ZERO, super::super::Ev::Arrival);
        // Drive until something is queued on the dry direction.
        let queued_at = loop {
            let (now, ev) = engine.events.pop().expect("must queue before draining");
            engine.handle(now, ev);
            if engine.queues.iter().any(|q| q.0.len() + q.1.len() > 0) {
                break now;
            }
        };
        let aborted_before = engine.stats.aborted_tus;
        // Ticking after every deadline has passed must expire the entry.
        engine.on_price_tick(queued_at + SimDuration::from_secs(10));
        assert_eq!(engine.stats.aborted_tus, aborted_before + 1);
        assert!(engine.queues.iter().all(|q| q.0.len() + q.1.len() == 0));
    }
}
