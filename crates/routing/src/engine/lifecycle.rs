//! The TU lifecycle: injection, hop traversal, settlement and aborts.
//!
//! TUs leave a transaction's backlog (windowed, rate-paced for
//! congestion-controlled schemes; blasted otherwise), lock funds hop by
//! hop, queue on dry channel directions, settle backwards as the
//! acknowledgement returns, and refund every locked hop on abort. A
//! rate-controlled path with nothing to send parks until an
//! acknowledgement or an abort's refill wakes it (the park/wake rule in
//! the engine module docs).

use std::sync::Arc;

use pcn_types::constants::{MAX_TU, QUEUE_DELAY_THRESHOLD};
use pcn_types::{ChannelId, SimDuration, SimTime, TuId, TxId};

use crate::scheduler::WaitQueue;
use crate::tu::TransactionUnit;

use super::{nth_hop, Engine, EngineConfig, Ev, Injector, TxState, HOP_DELAY, MIN_POLL};

/// Sends the next backlog TU of an already-looked-up transaction. With
/// `path_override` the TU goes on the given path (rate-controlled
/// injection); otherwise round-robin. Returns false when the backlog is
/// empty or the window is closed.
///
/// A free function over the disjoint engine fields it touches, so
/// `on_inject` resolves its transaction exactly once.
fn try_send_tu(
    tus: &mut super::arena::TuArena,
    events: &mut pcn_sim::EventQueue<Ev>,
    state: &mut super::TxState,
    now: SimTime,
    tx: TxId,
    path_override: Option<usize>,
) -> bool {
    if state.resolved || state.backlog.is_empty() {
        return false;
    }
    let Some(flow) = state.flow.as_mut() else {
        return false;
    };
    let path_i = match path_override {
        Some(i) => i,
        None => {
            let i = state.next_path % flow.paths.len();
            state.next_path += 1;
            i
        }
    };
    if !flow.admits(path_i) {
        return false;
    }
    let amount = state.backlog.pop_front().expect("backlog non-empty");
    flow.outstanding[path_i] += 1;
    let plan = Arc::clone(&flow.paths);
    let deadline = state.payment.deadline;
    let id = tus.insert_with(|id| TransactionUnit {
        id,
        tx,
        amount,
        plan,
        flow_path: path_i,
        next_hop: 0,
        locked_hops: 0,
        marked: false,
        deadline,
        enqueued_at: None,
        retries: 0,
    });
    events.schedule_at(now, Ev::HopArrive(id));
    true
}

/// Wakes the parked paths of `state` that can send again: each gets one
/// `Inject`, in path order, at the first instant of its poll grid
/// strictly after `now`, or is `Done` when that instant is past the
/// deadline (see the module docs' park/wake rule).
fn wake_parked(
    events: &mut pcn_sim::EventQueue<Ev>,
    state: &mut TxState,
    now: SimTime,
    cfg: &EngineConfig,
) {
    if state.resolved || state.backlog.is_empty() {
        return;
    }
    let Some(flow) = state.flow.as_mut() else {
        return;
    };
    let poll = poll_interval(cfg);
    for i in 0..flow.injectors.len() {
        let Injector::Parked(parked_at) = flow.injectors[i] else {
            continue;
        };
        if !flow.admits(i) {
            continue;
        }
        let polls = now.saturating_since(parked_at).as_micros() / poll.as_micros() + 1;
        let at = parked_at + poll.saturating_mul(polls);
        flow.injectors[i] = if at <= state.payment.deadline {
            events.schedule_at(at, Ev::Inject(state.payment.id, i));
            Injector::Scheduled
        } else {
            Injector::Done
        };
    }
}

/// The spacing of a parked path's poll grid: max(τ/4, 10 ms).
fn poll_interval(cfg: &EngineConfig) -> SimDuration {
    cfg.update_interval.div(4).max(MIN_POLL)
}

impl Engine {
    /// Sends the next backlog TU; see [`try_send_tu`].
    pub(super) fn send_next_tu(
        &mut self,
        now: SimTime,
        tx: TxId,
        path_override: Option<usize>,
    ) -> bool {
        let Some(state) = self.txs.get_mut(tx) else {
            return false;
        };
        try_send_tu(
            &mut self.tus,
            &mut self.events,
            state,
            now,
            tx,
            path_override,
        )
    }

    pub(super) fn on_inject(&mut self, now: SimTime, tx: TxId, path_i: usize) {
        let Some(state) = self.txs.get_mut(tx) else {
            return;
        };
        if state.resolved || state.flow.is_none() {
            return;
        }
        let sent = try_send_tu(
            &mut self.tus,
            &mut self.events,
            state,
            now,
            tx,
            Some(path_i),
        );
        let flow = state.flow.as_mut().expect("checked above");
        if !sent {
            // Window closed or backlog empty: only an acknowledgement or
            // an abort's refill can reopen the path, and each wakes it.
            flow.injectors[path_i] = Injector::Parked(now);
            return;
        }
        // The pacing rate is only consulted on an actual send; rates
        // change solely at price ticks, so reading it after the send is
        // identical to reading it before.
        let rates = flow
            .rates
            .as_ref()
            .expect("only rate-controlled flows schedule Inject");
        let gap =
            SimDuration::from_secs_f64(rates.injection_gap_secs(path_i, MAX_TU.to_tokens_f64()));
        // Keep injecting while the transaction can still make its
        // deadline (sending never resolves the transaction, so the
        // resolved check above still holds here).
        if now + gap <= state.payment.deadline {
            self.events.schedule_after(gap, Ev::Inject(tx, path_i));
        } else {
            flow.injectors[path_i] = Injector::Done;
        }
    }

    // ---- hop machinery ----------------------------------------------------

    pub(super) fn on_hop_arrive(&mut self, now: SimTime, tu_id: TuId) {
        let Some(tu) = self.tus.get(tu_id) else {
            return;
        };
        if tu.next_hop == tu.path().hops() {
            self.deliver(now, tu_id);
            return;
        }
        if now >= tu.deadline {
            self.abort_tu(now, tu_id, false);
            return;
        }
        let hop = tu.next_hop;
        let (from, ch, to) = nth_hop(tu.path(), hop);
        let amount = tu.amount;
        let (tx, retries) = (tu.tx, tu.retries);
        if self.graph.is_closed(ch) {
            // The channel closed under a stale plan (dynamic world):
            // funds would still lock — the tombstone keeps its state —
            // but traversing a closed channel is not a thing. Abort and
            // refund; the flow replans lazily via the epoch-staled cache.
            self.abort_tu(now, tu_id, false);
            return;
        }
        if let Some(fault) = &self.fault {
            if fault.plan.drops(ch, tx, hop, retries) {
                // A dropped forward is indistinguishable from a lost
                // message: nothing was locked at this hop yet, so the
                // ordinary abort/refund path unwinds the earlier hops.
                self.stats.faults_injected += 1;
                self.abort_tu(now, tu_id, false);
                return;
            }
        }
        match self.funds.lock(ch, from, amount) {
            Ok(()) => {
                self.prices.record_arrival(ch, from, amount.to_tokens_f64());
                self.stats.overhead_msgs += 1;
                let tu = self.tus.get_mut(tu_id).expect("present");
                tu.next_hop += 1;
                tu.locked_hops += 1;
                tu.enqueued_at = None;
                let delay = self.forward_delay(ch, to, tx, hop, retries);
                self.events.schedule_after(delay, Ev::HopArrive(tu_id));
            }
            Err(_) => {
                if self.scheme.congestion_control {
                    let dir = self.dir_of(ch, from);
                    let deadline = self.tus.get(tu_id).expect("present").deadline;
                    let q = self.queue_mut(ch, dir);
                    if q.push(tu_id, amount, deadline, now) {
                        self.tus.get_mut(tu_id).expect("present").enqueued_at = Some(now);
                    } else {
                        // Queue overflow (Algorithm 2's capacity bound).
                        self.abort_tu(now, tu_id, false);
                    }
                } else {
                    self.abort_tu(now, tu_id, false);
                }
            }
        }
    }

    /// The delay before the TU's forward message reaches the next node,
    /// given that hop `hop` over `ch` toward `to` just locked. Honest
    /// engines (`fault: None`) return `HOP_DELAY` untouched; an
    /// installed adversary may stretch it (griefer hold, channel jitter,
    /// rogue-hub stall/misorder). Every lock passes through here, so it
    /// doubles as the deadlock watchdog's progress bump.
    fn forward_delay(
        &mut self,
        ch: ChannelId,
        to: pcn_types::NodeId,
        tx: TxId,
        hop: usize,
        retries: u32,
    ) -> pcn_types::SimDuration {
        let Some(fault) = self.fault.as_mut() else {
            return HOP_DELAY;
        };
        fault.progress += 1;
        let plan = &fault.plan;
        if plan.is_griefer(tx) {
            // The griefer acquired the lock honestly and now sits on it:
            // liquidity stays pinned until the deadline → abort → refund
            // lifecycle reclaims it.
            self.stats.griefed_locks += 1;
            self.stats.faults_injected += 1;
            return plan.griefer_hold.max(HOP_DELAY);
        }
        let mut extra = plan.jitter(ch, tx, hop, retries);
        for &(node, behavior) in &fault.rogue_nodes {
            if node == to {
                extra += match behavior {
                    crate::fault::RogueBehavior::Stall => HOP_DELAY.saturating_mul(8),
                    crate::fault::RogueBehavior::Misorder => {
                        if plan.misorders(ch, tx, hop, retries) {
                            HOP_DELAY.saturating_mul(2)
                        } else {
                            pcn_types::SimDuration::ZERO
                        }
                    }
                };
            }
        }
        if extra.is_zero() {
            return HOP_DELAY;
        }
        self.stats.faults_injected += 1;
        if !plan.is_adversarial(tx) {
            // An honest TU got stalled — the degradation the
            // `expect_bounded_stall` knob bounds.
            self.stats.max_stall_us = self.stats.max_stall_us.max(extra.as_micros());
        }
        HOP_DELAY + extra
    }

    pub(super) fn deliver(&mut self, now: SimTime, tu_id: TuId) {
        let tu = self.tus.get(tu_id).expect("delivering a live TU");
        let hops = tu.path().hops();
        self.stats.delivered_tus += 1;
        // The acknowledgement walks back: the hop nearest the recipient
        // settles first.
        for i in (0..hops).rev() {
            let delay = HOP_DELAY.saturating_mul((hops - 1 - i) as u64);
            self.events
                .schedule_at(now + delay, Ev::SettleHop(tu_id, i));
        }
        self.stats.overhead_msgs += hops as u64; // ack messages
        let total_delay = HOP_DELAY.saturating_mul(hops as u64);
        self.events
            .schedule_at(now + total_delay, Ev::AckComplete(tu_id));
    }

    pub(super) fn on_settle_hop(&mut self, tu_id: TuId, hop: usize) {
        let Some(tu) = self.tus.get(tu_id) else {
            return;
        };
        let (from, ch, to) = nth_hop(tu.path(), hop);
        let amount = tu.amount;
        self.funds
            .settle(ch, from, amount)
            .expect("settling a locked hop");
        if let Some(fault) = self.fault.as_mut() {
            fault.progress += 1;
        }
        // Settling credits the reverse direction; queued reverse TUs may
        // now proceed.
        let rev_dir = self.dir_of(ch, to);
        self.schedule_drain(ch, rev_dir);
    }

    pub(super) fn on_ack_complete(&mut self, now: SimTime, tu_id: TuId) {
        let Some(tu) = self.tus.remove(tu_id) else {
            return;
        };
        let Some(state) = self.txs.get_mut(tu.tx) else {
            return;
        };
        state.delivered += tu.amount;
        if let Some(flow) = state.flow.as_mut() {
            flow.outstanding[tu.flow_path] = flow.outstanding[tu.flow_path].saturating_sub(1);
            if !tu.marked {
                flow.windows.on_unmarked_success(tu.flow_path);
            }
        }
        if !state.resolved && state.delivered >= state.payment.value {
            state.resolved = true;
            self.stats.completed += 1;
            self.stats.completed_value += state.payment.value;
            if !self
                .fault
                .as_ref()
                .is_some_and(|f| f.plan.is_adversarial(state.payment.id))
            {
                self.stats.honest_completed += 1;
            }
            self.stats
                .latency
                .record(now.saturating_since(state.payment.created).as_secs_f64());
            return;
        }
        wake_parked(&mut self.events, state, now, &self.cfg);
    }

    /// Aborts a TU: removes it from any queue, refunds locked hops and
    /// either retries, re-queues the value (rate-controlled schemes), or
    /// abandons it.
    pub(super) fn abort_tu(&mut self, now: SimTime, tu_id: TuId, already_dequeued: bool) {
        let Some(tu) = self.tus.remove(tu_id) else {
            return;
        };
        self.stats.aborted_tus += 1;
        if tu.enqueued_at.is_some() && !already_dequeued {
            let (from, ch, _) = nth_hop(tu.path(), tu.next_hop);
            let dir = self.dir_of(ch, from);
            self.queue_mut(ch, dir).remove(tu_id);
        }
        // Refund every locked hop (instant unwinding).
        for i in 0..tu.locked_hops {
            let (from, ch, _) = nth_hop(tu.path(), i);
            self.funds
                .refund(ch, from, tu.amount)
                .expect("refunding a locked hop");
            self.stats.overhead_msgs += 1;
            let dir = self.dir_of(ch, from);
            self.schedule_drain(ch, dir);
        }
        let Some(state) = self.txs.get_mut(tu.tx) else {
            return;
        };
        if let Some(flow) = state.flow.as_mut() {
            flow.outstanding[tu.flow_path] = flow.outstanding[tu.flow_path].saturating_sub(1);
            if tu.marked {
                flow.windows.on_marked_abort(tu.flow_path);
            }
        }
        if state.resolved {
            return;
        }
        if now >= state.payment.deadline {
            return; // The Deadline event settles the outcome.
        }
        if self.scheme.rate_control {
            // Value returns to the backlog; the injectors retry it.
            state.backlog.push_back(tu.amount);
            wake_parked(&mut self.events, state, now, &self.cfg);
        } else {
            let flow_len = state.flow.as_ref().map(|f| f.paths.len()).unwrap_or(0);
            if tu.retries < self.scheme.max_retries && flow_len > 1 {
                // Retry on the next path (Flash's alternate-path retry).
                let next_path = (tu.flow_path + 1) % flow_len;
                let flow = state.flow.as_mut().expect("flow_len > 0");
                flow.outstanding[next_path] += 1;
                let plan = Arc::clone(&flow.paths);
                let id = self.tus.insert_with(|id| TransactionUnit {
                    id,
                    tx: tu.tx,
                    amount: tu.amount,
                    plan,
                    flow_path: next_path,
                    next_hop: 0,
                    locked_hops: 0,
                    marked: false,
                    deadline: tu.deadline,
                    enqueued_at: None,
                    retries: tu.retries + 1,
                });
                self.events.schedule_at(now, Ev::HopArrive(id));
            } else {
                // Without rate control a lost TU sinks the transaction.
                self.fail_tx(tu.tx);
            }
        }
    }

    pub(super) fn fail_tx(&mut self, tx: TxId) {
        if let Some(state) = self.txs.get_mut(tx) {
            if !state.resolved {
                state.resolved = true;
                self.stats.failed += 1;
            }
        }
    }

    pub(super) fn on_deadline(&mut self, tx: TxId) {
        self.fail_tx(tx);
    }

    // ---- queues ------------------------------------------------------------

    pub(super) fn dir_of(&self, ch: ChannelId, from: pcn_types::NodeId) -> bool {
        self.endpoints[ch.index()].0 == from
    }

    /// Schedules a drain of a direction whose balance just rose, unless
    /// its queue is empty (see the module docs' drain rule).
    fn schedule_drain(&mut self, ch: ChannelId, dir_from_a: bool) {
        let (a_to_b, b_to_a) = &self.queues[ch.index()];
        let queue = if dir_from_a { a_to_b } else { b_to_a };
        if !queue.is_empty() {
            self.events
                .schedule_at(self.events.now(), Ev::QueueDrain(ch.raw(), dir_from_a));
        }
    }

    pub(super) fn queue_mut(&mut self, ch: ChannelId, dir_from_a: bool) -> &mut WaitQueue {
        let pair = &mut self.queues[ch.index()];
        if dir_from_a {
            &mut pair.0
        } else {
            &mut pair.1
        }
    }

    pub(super) fn drain_queue(&mut self, now: SimTime, ch: ChannelId, dir_from_a: bool) {
        loop {
            let from = if dir_from_a {
                self.endpoints[ch.index()].0
            } else {
                self.endpoints[ch.index()].1
            };
            let available = self.funds.balance(ch, from);
            let Some(entry) = self.queue_mut(ch, dir_from_a).pop_eligible(available) else {
                break;
            };
            let tu_id = entry.tu;
            let Some(tu) = self.tus.get_mut(tu_id) else {
                continue;
            };
            let waited = now.saturating_since(entry.enqueued_at);
            if waited > QUEUE_DELAY_THRESHOLD && !tu.marked {
                tu.marked = true;
                self.stats.marked_tus += 1;
            }
            if now >= tu.deadline {
                self.abort_tu(now, tu_id, true);
                continue;
            }
            tu.enqueued_at = None;
            let hop = tu.next_hop;
            let (_, _, to) = nth_hop(tu.path(), hop);
            let (tx, retries) = (tu.tx, tu.retries);
            self.funds
                .lock(ch, from, entry.amount)
                .expect("pop_eligible guarantees funds");
            self.prices
                .record_arrival(ch, from, entry.amount.to_tokens_f64());
            self.stats.overhead_msgs += 1;
            let tu = self.tus.get_mut(tu_id).expect("present");
            tu.next_hop += 1;
            tu.locked_hops += 1;
            let delay = self.forward_delay(ch, to, tx, hop, retries);
            self.events.schedule_after(delay, Ev::HopArrive(tu_id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{payments_from_tuples, Engine, EngineConfig, Ev, Injector};
    use crate::channel::NetworkFunds;
    use crate::scheme::SchemeConfig;
    use pcn_sim::SimRng;
    use pcn_types::{Amount, NodeId, SimDuration, SimTime, TxId};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Spider over `g` whose channels into node `dry` hold funds only on
    /// `dry`'s side: every TU queues at its last hop and waits there
    /// until the deadline expires it.
    fn dry_last_hop_engine(g: pcn_graph::Graph, dry: u32) -> Engine {
        let funds = NetworkFunds::from_graph(&g, |ch, side| {
            let (a, b) = g.endpoints(ch).expect("dense edge ids");
            if (a != n(dry) && b != n(dry)) || side == n(dry) {
                Amount::from_tokens(50)
            } else {
                Amount::ZERO
            }
        });
        Engine::new(
            g,
            funds,
            SchemeConfig::spider(),
            EngineConfig::default(),
            SimRng::seed(3),
        )
    }

    /// A path with nothing to send parks instead of polling. The world
    /// of `control::tests::tick_expires_overdue_queued_tus`: one 2-token
    /// TU waits on a dry hop until its 300 ms deadline. The path pops
    /// one `Inject` for the TU it sends and one more, 80 ms later, that
    /// finds the backlog empty and parks it. Nothing wakes it (no
    /// acknowledgement, no refill before the deadline), where a path
    /// re-polling every max(τ/4, 10 ms) = 50 ms would pop four more.
    #[test]
    fn a_path_with_nothing_to_send_parks_instead_of_polling() {
        let mut g = pcn_graph::Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let mut engine = dry_last_hop_engine(g, 2);
        engine.begin(payments_from_tuples(
            &[(0, 0, 2, 2)],
            SimDuration::from_millis(300),
        ));
        let mut injects = Vec::new();
        while let Some((now, ev)) = engine.events.pop() {
            if matches!(ev, Ev::Inject(..)) {
                injects.push(now);
            }
            engine.handle(now, ev);
        }
        assert_eq!(
            (engine.stats.aborted_tus, engine.stats.failed),
            (1, 1),
            "the queued TU expires and the payment fails"
        );
        let state = engine.txs.get(TxId::new(0)).expect("admitted");
        assert!(state.backlog.is_empty(), "the one TU was sent");
        assert_eq!(injects.len(), 2, "one send, one park: {injects:?}");
        let flow = state.flow.as_ref().expect("planned");
        assert_eq!(flow.injectors, [Injector::Parked(injects[1])]);
    }

    /// A mid-run abort refills the backlog and wakes each parked path
    /// that admits exactly once, in path order, at the first instant of
    /// its poll grid strictly after the abort. The refund lands on a
    /// direction with an empty queue, so it schedules no `QueueDrain`:
    /// the two `Inject`s are all the abort schedules.
    #[test]
    fn an_abort_wakes_each_parked_path_once_on_its_poll_grid() {
        // Two disjoint routes 0-1-3 and 0-2-3, both dry at their last hop.
        let mut g = pcn_graph::Graph::new(4);
        for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            g.add_edge(n(a), n(b));
        }
        let mut engine = dry_last_hop_engine(g, 3);
        // Two 4-token TUs: each path sends one, then parks 80 ms later.
        engine.begin(payments_from_tuples(
            &[(0, 0, 3, 8)],
            SimDuration::from_secs(3),
        ));
        let tx = TxId::new(0);
        let parked_at = |engine: &Engine| -> Vec<Option<SimTime>> {
            let flow = engine.txs.get(tx).and_then(|s| s.flow.as_ref());
            flow.map_or(Vec::new(), |f| {
                f.injectors
                    .iter()
                    .map(|i| match i {
                        Injector::Parked(at) => Some(*at),
                        _ => None,
                    })
                    .collect()
            })
        };
        // Run past both parks to the 200 ms price tick, off the grid.
        while engine
            .events
            .peek_time()
            .is_some_and(|t| t <= SimTime::from_micros(250_000))
        {
            let (now, ev) = engine.events.pop().expect("peeked");
            engine.handle(now, ev);
        }
        let parks = parked_at(&engine);
        assert_eq!(parks.len(), 2, "both routes planned");
        assert!(parks.iter().all(Option::is_some), "{parks:?}");
        assert_eq!(engine.tus.len(), 2, "both TUs wait on their dry hop");
        let now = engine.events.now();
        let victim = engine
            .tus
            .iter()
            .find(|tu| tu.flow_path == 0)
            .expect("path 0's TU")
            .id;
        let pending = engine.events.len();
        engine.abort_tu(now, victim, false);
        assert_eq!(engine.events.len(), pending + 2, "two wakes, no drain");
        let poll = super::poll_interval(&engine.cfg);
        let expected: Vec<(SimTime, usize)> = parks
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let p = p.expect("parked");
                let polls = (now - p).as_micros() / poll.as_micros() + 1;
                let at = p + poll.saturating_mul(polls);
                assert!(at > now && at <= now + poll, "{at:?} after {now:?}");
                (at, i)
            })
            .collect();
        let mut woken = Vec::new();
        while let Some((at, ev)) = engine.events.pop() {
            if let Ev::Inject(id, i) = ev {
                assert_eq!(id, tx);
                woken.push((at, i));
            }
        }
        assert_eq!(woken, expected);
    }

    /// A TU that times out mid-path must refund every hop it locked: at
    /// the end of the run no channel direction retains locked funds and
    /// conservation holds (the refund loop was untestable inside the
    /// monolith — it sat in a 70-line abort handler).
    #[test]
    fn timeout_refunds_all_locked_hops() {
        let mut g = pcn_graph::Graph::new(4);
        let chans: Vec<_> = (0..3)
            .map(|i| g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1)))
            .collect();
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let grand = funds.grand_total();
        // Deadline between the second and third hop (hops fire ~0/40/80 ms):
        // the TU locks two hops, then hits its deadline en route and must
        // unwind both locks.
        let payments = payments_from_tuples(&[(0, 0, 3, 4)], SimDuration::from_millis(60));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::shortest_path(),
            EngineConfig::default(),
            SimRng::seed(1),
        );
        // Drive the loop in place (instead of the consuming `run`) so the
        // funds object stays inspectable afterwards.
        engine.horizon = payments
            .last()
            .map(|p| p.deadline + engine.cfg.update_interval)
            .unwrap();
        engine.payments = payments.into();
        let at = engine.payments.front().unwrap().created;
        engine.events.schedule_at(at, super::super::Ev::Arrival);
        while let Some((now, ev)) = engine.events.pop() {
            engine.handle(now, ev);
        }
        assert_eq!(engine.stats.completed, 0);
        assert_eq!(engine.stats.failed, 1);
        assert!(engine.stats.aborted_tus >= 1, "{}", engine.stats);
        for &ch in &chans {
            let (a, b) = engine.graph.endpoints(ch).unwrap();
            assert!(engine.funds.locked(ch, a).is_zero(), "lock left on {ch:?}");
            assert!(engine.funds.locked(ch, b).is_zero(), "lock left on {ch:?}");
        }
        assert_eq!(engine.funds.grand_total(), grand);
        assert!(engine.funds.verify_conservation());
    }

    /// Rate-controlled aborts return the TU's value to the backlog
    /// instead of failing the transaction.
    #[test]
    fn rate_controlled_abort_requeues_value() {
        let mut g = pcn_graph::Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
        let payments = payments_from_tuples(&[(0, 0, 2, 8)], SimDuration::from_secs(3));
        let mut engine = Engine::new(
            g,
            funds,
            SchemeConfig::spider(),
            EngineConfig::default(),
            SimRng::seed(2),
        );
        engine.horizon = payments[0].deadline + engine.cfg.update_interval;
        engine.payments = payments.into();
        let at = engine.payments.front().unwrap().created;
        engine.events.schedule_at(at, super::super::Ev::Arrival);
        // Drive until the flow exists and a TU is in flight.
        while engine.tus.is_empty() {
            let (now, ev) = engine.events.pop().expect("events pending");
            engine.handle(now, ev);
        }
        let tu_id = engine.tus.iter().next().unwrap().id;
        let tx = engine.tus.get(tu_id).unwrap().tx;
        let backlog_before = engine.txs.get(tx).unwrap().backlog.len();
        let amount = engine.tus.get(tu_id).unwrap().amount;
        let now = engine.events.now();
        engine.abort_tu(now, tu_id, false);
        let state = engine.txs.get(tx).unwrap();
        assert!(
            !state.resolved,
            "rate-controlled abort must not fail the tx"
        );
        assert_eq!(state.backlog.len(), backlog_before + 1);
        assert_eq!(*state.backlog.back().unwrap(), amount);
        assert_eq!(engine.stats.aborted_tus, 1);
    }

    /// Without rate control and no retry budget, a lost TU sinks its
    /// transaction immediately.
    #[test]
    fn uncontrolled_abort_fails_transaction() {
        let mut g = pcn_graph::Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let funds = NetworkFunds::uniform(&g, Amount::from_tokens(1));
        // 5 tokens through 1-token channels: first hop lock fails.
        let payments = payments_from_tuples(&[(0, 0, 2, 5)], SimDuration::from_secs(3));
        let stats = Engine::new(
            g,
            funds,
            SchemeConfig::shortest_path(),
            EngineConfig::default(),
            SimRng::seed(3),
        )
        .run(payments);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.failed, 1);
    }
}
