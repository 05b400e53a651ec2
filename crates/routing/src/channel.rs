//! The payment-channel state machine.
//!
//! Each undirected channel `(a, b)` holds a *spendable* balance per
//! direction plus a *locked* (HTLC in-flight) balance per direction.
//! Forwarding value `v` over `a → b` locks `v` out of `spendable(a→b)`;
//! on acknowledgement the lock **settles** and `v` appears in
//! `spendable(b→a)` (the funds changed owner); on failure the lock is
//! **refunded** back into `spendable(a→b)`.
//!
//! Conservation invariant (checked in debug builds on every mutation and
//! exposed via [`NetworkFunds::verify_conservation`]):
//! `spendable(a→b) + spendable(b→a) + locked(a→b) + locked(b→a) = total`.

use pcn_graph::{Graph, WidthOrder};
use pcn_types::{Amount, ChannelId, NodeId, PcnError, Result};

/// State of one channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelState {
    a: NodeId,
    b: NodeId,
    /// spendable in direction a→b (owned by `a`)
    bal_ab: Amount,
    /// spendable in direction b→a (owned by `b`)
    bal_ba: Amount,
    locked_ab: Amount,
    locked_ba: Amount,
    total: Amount,
}

impl ChannelState {
    /// Creates a channel between `a` and `b` funded with `fund_a`/`fund_b`
    /// on the respective sides.
    pub fn new(a: NodeId, b: NodeId, fund_a: Amount, fund_b: Amount) -> ChannelState {
        ChannelState {
            a,
            b,
            bal_ab: fund_a,
            bal_ba: fund_b,
            locked_ab: Amount::ZERO,
            locked_ba: Amount::ZERO,
            total: fund_a + fund_b,
        }
    }

    /// Endpoints in creation order.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Total funds in the channel (constant for its lifetime).
    pub fn total(&self) -> Amount {
        self.total
    }

    fn is_ab(&self, from: NodeId) -> Result<bool> {
        if from == self.a {
            Ok(true)
        } else if from == self.b {
            Ok(false)
        } else {
            Err(PcnError::UnknownNode(from))
        }
    }

    /// Spendable balance in direction `from → other`.
    pub fn spendable(&self, from: NodeId) -> Amount {
        match self.is_ab(from) {
            Ok(true) => self.bal_ab,
            Ok(false) => self.bal_ba,
            Err(_) => Amount::ZERO,
        }
    }

    /// Locked (in-flight) value in direction `from → other`.
    pub fn locked(&self, from: NodeId) -> Amount {
        match self.is_ab(from) {
            Ok(true) => self.locked_ab,
            Ok(false) => self.locked_ba,
            Err(_) => Amount::ZERO,
        }
    }

    fn check(&self) {
        debug_assert_eq!(
            self.bal_ab + self.bal_ba + self.locked_ab + self.locked_ba,
            self.total,
            "channel conservation violated"
        );
    }

    /// Locks `amount` for forwarding in direction `from → other`.
    ///
    /// # Errors
    ///
    /// [`PcnError::InsufficientFunds`]-shaped error when the spendable
    /// balance is too low (the caller owns the channel id and fills it in),
    /// [`PcnError::UnknownNode`] when `from` is not an endpoint.
    pub fn lock(&mut self, from: NodeId, amount: Amount) -> Result<()> {
        let ab = self.is_ab(from)?;
        let (bal, locked) = if ab {
            (&mut self.bal_ab, &mut self.locked_ab)
        } else {
            (&mut self.bal_ba, &mut self.locked_ba)
        };
        match bal.checked_sub(amount) {
            Some(rest) => {
                *bal = rest;
                *locked += amount;
                self.check();
                Ok(())
            }
            None => Err(PcnError::InsufficientFunds {
                channel: ChannelId::new(u32::MAX), // rewritten by NetworkFunds
                requested: amount,
                available: *bal,
            }),
        }
    }

    /// Settles a previously locked `amount`: funds move to the other side.
    ///
    /// # Errors
    ///
    /// Fails when more than the locked value would settle.
    pub fn settle(&mut self, from: NodeId, amount: Amount) -> Result<()> {
        let ab = self.is_ab(from)?;
        let (locked, other_bal) = if ab {
            (&mut self.locked_ab, &mut self.bal_ba)
        } else {
            (&mut self.locked_ba, &mut self.bal_ab)
        };
        match locked.checked_sub(amount) {
            Some(rest) => {
                *locked = rest;
                *other_bal += amount;
                self.check();
                Ok(())
            }
            None => Err(PcnError::InvalidDemand(format!(
                "settle {amount} exceeds locked {locked}"
            ))),
        }
    }

    /// Refunds a previously locked `amount` back to the sender side.
    ///
    /// # Errors
    ///
    /// Fails when more than the locked value would be refunded.
    pub fn refund(&mut self, from: NodeId, amount: Amount) -> Result<()> {
        let ab = self.is_ab(from)?;
        let (locked, bal) = if ab {
            (&mut self.locked_ab, &mut self.bal_ab)
        } else {
            (&mut self.locked_ba, &mut self.bal_ba)
        };
        match locked.checked_sub(amount) {
            Some(rest) => {
                *locked = rest;
                *bal += amount;
                self.check();
                Ok(())
            }
            None => Err(PcnError::InvalidDemand(format!(
                "refund {amount} exceeds locked {locked}"
            ))),
        }
    }
}

/// All channel states of a PCN instance, indexed by [`ChannelId`].
///
/// Beside the states, the funds keep the **capacity order**: every
/// channel id sorted by `(total desc, id asc)`, with its endpoints and
/// its total in tokens, and each node's channels in the same order
/// ([`NetworkFunds::capacity_order`]). The capacity-view EDW search
/// walks it instead of keeping a heap (see
/// [`pcn_graph::edge_disjoint_widest_paths_static_in`]). It costs 52
/// bytes per channel — 20 for the sorted order and the width column, 32
/// for the per-node incidence lists (a 16-byte entry at each end) — and
/// 4 bytes per node. A total never changes once its channel opens, so
/// the order never goes stale; [`NetworkFunds::from_graph`] builds it,
/// [`NetworkFunds::add_channel`] inserts into it, and closed channels
/// stay in it (the search skips them).
#[derive(Clone, Debug, Default)]
pub struct NetworkFunds {
    channels: Vec<ChannelState>,
    /// See [`NetworkFunds::capacity_order`].
    order: WidthOrder,
}

impl NetworkFunds {
    /// Builds channel states for every edge of `g` with per-side funds
    /// supplied by `fund`.
    pub fn from_graph<F>(g: &Graph, mut fund: F) -> NetworkFunds
    where
        F: FnMut(ChannelId, NodeId) -> Amount,
    {
        let channels: Vec<ChannelState> = g
            .edges()
            .map(|id| {
                let (a, b) = g.endpoints(id).expect("edge ids are dense");
                ChannelState::new(a, b, fund(id, a), fund(id, b))
            })
            .collect();
        let order =
            WidthOrder::from_channels(channels.iter().map(|c| (c.a, c.b, c.total.to_tokens_f64())));
        NetworkFunds { channels, order }
    }

    /// Uniform funding: every side of every channel gets `per_side`.
    pub fn uniform(g: &Graph, per_side: Amount) -> NetworkFunds {
        NetworkFunds::from_graph(g, |_, _| per_side)
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether there are no channels.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    fn get(&self, id: ChannelId) -> Result<&ChannelState> {
        self.channels
            .get(id.index())
            .ok_or(PcnError::UnknownChannel(id))
    }

    fn get_mut(&mut self, id: ChannelId) -> Result<&mut ChannelState> {
        self.channels
            .get_mut(id.index())
            .ok_or(PcnError::UnknownChannel(id))
    }

    /// Spendable balance of `id` in direction `from → other`.
    pub fn balance(&self, id: ChannelId, from: NodeId) -> Amount {
        self.get(id).map_or(Amount::ZERO, |c| c.spendable(from))
    }

    /// Locked value of `id` in direction `from → other`.
    pub fn locked(&self, id: ChannelId, from: NodeId) -> Amount {
        self.get(id).map_or(Amount::ZERO, |c| c.locked(from))
    }

    /// Total funds of channel `id`.
    pub fn total(&self, id: ChannelId) -> Amount {
        self.get(id).map_or(Amount::ZERO, ChannelState::total)
    }

    /// Every channel sorted by `(total desc, id asc)`, each with its
    /// endpoints and its total as `to_tokens_f64` — the width the
    /// capacity view gives it — and every node's channels in that order
    /// ([`WidthOrder::incident`]). `to_tokens_f64` is strictly increasing
    /// on totals below 2^53 millitokens, so sorting by width sorts by
    /// total.
    pub fn capacity_order(&self) -> &WidthOrder {
        &self.order
    }

    /// Locks `amount` on `id` in direction `from → other`.
    ///
    /// # Errors
    ///
    /// [`PcnError::InsufficientFunds`] (with the channel id filled in) or
    /// [`PcnError::UnknownChannel`]/[`PcnError::UnknownNode`].
    pub fn lock(&mut self, id: ChannelId, from: NodeId, amount: Amount) -> Result<()> {
        self.get_mut(id)?.lock(from, amount).map_err(|e| match e {
            PcnError::InsufficientFunds {
                requested,
                available,
                ..
            } => PcnError::InsufficientFunds {
                channel: id,
                requested,
                available,
            },
            other => other,
        })
    }

    /// Settles `amount` on `id` in direction `from → other`.
    ///
    /// # Errors
    ///
    /// See [`ChannelState::settle`].
    pub fn settle(&mut self, id: ChannelId, from: NodeId, amount: Amount) -> Result<()> {
        self.get_mut(id)?.settle(from, amount)
    }

    /// Refunds `amount` on `id` in direction `from → other`.
    ///
    /// # Errors
    ///
    /// See [`ChannelState::refund`].
    pub fn refund(&mut self, id: ChannelId, from: NodeId, amount: Amount) -> Result<()> {
        self.get_mut(id)?.refund(from, amount)
    }

    /// Appends the state for a channel opened mid-run (the next dense
    /// id, matching the graph's `add_edge`), funded with
    /// `fund_a`/`fund_b` on the respective sides. Injects new value into
    /// the network — callers tracking conservation should account
    /// `fund_a + fund_b` against [`NetworkFunds::grand_total`]. The
    /// channel takes its place in [`NetworkFunds::capacity_order`].
    pub fn add_channel(&mut self, a: NodeId, b: NodeId, fund_a: Amount, fund_b: Amount) {
        let state = ChannelState::new(a, b, fund_a, fund_b);
        self.order.push(a, b, state.total.to_tokens_f64());
        self.channels.push(state);
    }

    /// Resets channel `id`'s *spendable* liquidity to an even split
    /// between its directions (any odd millitoken goes to the `a` side);
    /// locked in-flight value is untouched, so conservation holds by
    /// construction.
    ///
    /// # Errors
    ///
    /// [`PcnError::UnknownChannel`] for a bad id.
    pub fn rebalance_equalize(&mut self, id: ChannelId) -> Result<()> {
        let c = self.get_mut(id)?;
        let spendable = c.bal_ab + c.bal_ba;
        let half = Amount::from_millitokens(spendable.millitokens() / 2);
        c.bal_ab = spendable - half;
        c.bal_ba = half;
        c.check();
        Ok(())
    }

    /// Whether the `from` side of `id` has (almost) no spendable funds —
    /// the local-deadlock symptom of Fig. 1.
    pub fn is_drained(&self, id: ChannelId, from: NodeId) -> bool {
        self.balance(id, from) < Amount::from_millitokens(1)
    }

    /// Verifies the conservation invariant on every channel.
    pub fn verify_conservation(&self) -> bool {
        self.channels
            .iter()
            .all(|c| c.bal_ab + c.bal_ba + c.locked_ab + c.locked_ba == c.total)
    }

    /// Sum of all channel totals (for sanity checks).
    pub fn grand_total(&self) -> Amount {
        self.channels.iter().map(|c| c.total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn funds() -> (NetworkFunds, ChannelId) {
        let mut g = Graph::new(2);
        let ch = g.add_edge(n(0), n(1));
        (NetworkFunds::uniform(&g, Amount::from_tokens(10)), ch)
    }

    #[test]
    fn lock_settle_moves_funds() {
        let (mut f, ch) = funds();
        f.lock(ch, n(0), Amount::from_tokens(4)).unwrap();
        assert_eq!(f.balance(ch, n(0)), Amount::from_tokens(6));
        assert_eq!(f.locked(ch, n(0)), Amount::from_tokens(4));
        f.settle(ch, n(0), Amount::from_tokens(4)).unwrap();
        assert_eq!(f.locked(ch, n(0)), Amount::ZERO);
        assert_eq!(f.balance(ch, n(1)), Amount::from_tokens(14));
        assert!(f.verify_conservation());
    }

    #[test]
    fn lock_refund_restores() {
        let (mut f, ch) = funds();
        f.lock(ch, n(1), Amount::from_tokens(3)).unwrap();
        f.refund(ch, n(1), Amount::from_tokens(3)).unwrap();
        assert_eq!(f.balance(ch, n(1)), Amount::from_tokens(10));
        assert!(f.verify_conservation());
    }

    #[test]
    fn insufficient_funds_error_carries_details() {
        let (mut f, ch) = funds();
        let err = f.lock(ch, n(0), Amount::from_tokens(11)).unwrap_err();
        match err {
            PcnError::InsufficientFunds {
                channel,
                requested,
                available,
            } => {
                assert_eq!(channel, ch);
                assert_eq!(requested, Amount::from_tokens(11));
                assert_eq!(available, Amount::from_tokens(10));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn partial_settle_and_refund() {
        let (mut f, ch) = funds();
        f.lock(ch, n(0), Amount::from_tokens(5)).unwrap();
        f.settle(ch, n(0), Amount::from_tokens(2)).unwrap();
        f.refund(ch, n(0), Amount::from_tokens(3)).unwrap();
        assert_eq!(f.balance(ch, n(0)), Amount::from_tokens(8));
        assert_eq!(f.balance(ch, n(1)), Amount::from_tokens(12));
        assert!(f.verify_conservation());
    }

    #[test]
    fn over_settle_rejected() {
        let (mut f, ch) = funds();
        f.lock(ch, n(0), Amount::from_tokens(1)).unwrap();
        assert!(f.settle(ch, n(0), Amount::from_tokens(2)).is_err());
        assert!(f.refund(ch, n(0), Amount::from_tokens(2)).is_err());
        assert!(f.verify_conservation());
    }

    #[test]
    fn non_endpoint_rejected() {
        let (mut f, ch) = funds();
        assert!(matches!(
            f.lock(ch, n(9), Amount::from_tokens(1)),
            Err(PcnError::UnknownNode(_))
        ));
        assert!(matches!(
            f.lock(ChannelId::new(42), n(0), Amount::from_tokens(1)),
            Err(PcnError::UnknownChannel(_))
        ));
    }

    #[test]
    fn add_channel_extends_the_dense_table() {
        let (mut f, ch) = funds();
        assert_eq!(f.len(), 1);
        f.add_channel(n(0), n(1), Amount::from_tokens(3), Amount::from_tokens(7));
        assert_eq!(f.len(), 2);
        let new = ChannelId::new(1);
        assert_eq!(f.balance(new, n(0)), Amount::from_tokens(3));
        assert_eq!(f.balance(new, n(1)), Amount::from_tokens(7));
        assert_eq!(f.total(new), Amount::from_tokens(10));
        // The pre-existing channel is untouched.
        assert_eq!(f.total(ch), Amount::from_tokens(20));
        f.lock(new, n(1), Amount::from_tokens(2)).unwrap();
        assert_eq!(f.balance(new, n(1)), Amount::from_tokens(5));
        assert_eq!(f.balance(ch, n(1)), Amount::from_tokens(10));
        assert!(f.verify_conservation());
    }

    /// After `from_graph` and a run of `add_channel` calls — totals
    /// equal to existing ones, a parallel channel, a new widest and a
    /// zero total — the capacity order lists every channel exactly once,
    /// sorted by (total desc, id asc), with its endpoints' width.
    #[test]
    fn capacity_order_lists_every_channel_by_total_then_id() {
        let mut g = Graph::new(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(n(a), n(b));
        }
        let tokens = [5, 9, 5, 7];
        let mut f = NetworkFunds::from_graph(&g, |id, _| Amount::from_tokens(tokens[id.index()]));
        for (a, b, t) in [
            (0, 2, 5),
            (1, 0, 7),
            (1, 3, 12),
            (2, 0, 1),
            (1, 2, 0),
            (3, 2, 9),
            (4, 1, 5),
        ] {
            f.add_channel(n(a), n(b), Amount::from_tokens(t), Amount::from_tokens(t));
        }
        let order = f.capacity_order();
        let listed: Vec<ChannelId> = order.channels().collect();
        let mut want: Vec<ChannelId> = (0..f.len()).map(ChannelId::from_index).collect();
        want.sort_by_key(|&c| (std::cmp::Reverse(f.total(c)), c));
        assert_eq!(listed, want);
        for &c in &listed {
            assert_eq!(order.width(c), Some(f.total(c).to_tokens_f64()));
        }
        // Every node lists its own channels in the same order, each with
        // its width and the other end: the ones `from_graph` built and
        // the ones `add_channel` inserted. Node 4 joins only through
        // `add_channel`; node 5 touches no channel.
        for v in (0..6).map(n) {
            let want: Vec<(f64, ChannelId, NodeId)> = listed
                .iter()
                .filter_map(|&c| {
                    let (a, b) = f.get(c).unwrap().endpoints();
                    let other = if a == v { b } else { a };
                    (a == v || b == v).then(|| (f.total(c).to_tokens_f64(), c, other))
                })
                .collect();
            assert_eq!(order.incident(v), want.as_slice(), "node {v}");
        }
    }

    #[test]
    fn rebalance_equalize_splits_spendable_only() {
        let (mut f, ch) = funds();
        // Drift the channel: move 6 tokens 0→1, lock 2 more in flight.
        f.lock(ch, n(0), Amount::from_tokens(6)).unwrap();
        f.settle(ch, n(0), Amount::from_tokens(6)).unwrap();
        f.lock(ch, n(1), Amount::from_tokens(2)).unwrap();
        assert_eq!(f.balance(ch, n(0)), Amount::from_tokens(4));
        assert_eq!(f.balance(ch, n(1)), Amount::from_tokens(14));
        f.rebalance_equalize(ch).unwrap();
        // Spendable 18 splits 9/9; the 2 locked tokens stay locked.
        assert_eq!(f.balance(ch, n(0)), Amount::from_tokens(9));
        assert_eq!(f.balance(ch, n(1)), Amount::from_tokens(9));
        assert_eq!(f.locked(ch, n(1)), Amount::from_tokens(2));
        assert!(f.verify_conservation());
        // Already balanced: a second pass moves nothing.
        f.rebalance_equalize(ch).unwrap();
        assert_eq!(f.balance(ch, n(0)), Amount::from_tokens(9));
        assert_eq!(f.balance(ch, n(1)), Amount::from_tokens(9));
        assert_eq!(f.locked(ch, n(1)), Amount::from_tokens(2));
        // An odd spendable total leaves the extra millitoken on the a side.
        f.lock(ch, n(0), Amount::from_millitokens(1)).unwrap();
        f.rebalance_equalize(ch).unwrap();
        assert_eq!(
            f.balance(ch, n(0)) - f.balance(ch, n(1)),
            Amount::from_millitokens(1)
        );
        assert!(f.rebalance_equalize(ChannelId::new(9)).is_err());
    }

    #[test]
    fn drain_detection() {
        let (mut f, ch) = funds();
        assert!(!f.is_drained(ch, n(0)));
        f.lock(ch, n(0), Amount::from_tokens(10)).unwrap();
        f.settle(ch, n(0), Amount::from_tokens(10)).unwrap();
        assert!(f.is_drained(ch, n(0)));
    }

    #[test]
    fn asymmetric_funding() {
        let mut g = Graph::new(2);
        let ch = g.add_edge(n(0), n(1));
        let f = NetworkFunds::from_graph(&g, |_, side| {
            if side == n(0) {
                Amount::from_tokens(3)
            } else {
                Amount::from_tokens(7)
            }
        });
        assert_eq!(f.balance(ch, n(0)), Amount::from_tokens(3));
        assert_eq!(f.balance(ch, n(1)), Amount::from_tokens(7));
        assert_eq!(f.total(ch), Amount::from_tokens(10));
        assert_eq!(f.grand_total(), Amount::from_tokens(10));
    }

    #[test]
    fn conservation_under_random_ops() {
        use pcn_sim::SimRng;
        let mut g = Graph::new(4);
        let chans: Vec<ChannelId> = (0..4)
            .map(|i| g.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % 4)))
            .collect();
        let mut f = NetworkFunds::uniform(&g, Amount::from_tokens(20));
        let mut rng = SimRng::seed(3);
        let grand = f.grand_total();
        for _ in 0..2000 {
            let ch = chans[rng.index(4)];
            // Channel i connects node i and node (i+1) % 4.
            let side = if rng.chance(0.5) {
                NodeId::from_index(ch.index())
            } else {
                NodeId::from_index((ch.index() + 1) % 4)
            };
            let amt = Amount::from_millitokens(rng.range(1, 3_000));
            match rng.index(3) {
                0 => {
                    let _ = f.lock(ch, side, amt);
                }
                1 => {
                    let locked = f.locked(ch, side);
                    let _ = f.settle(ch, side, amt.min(locked));
                }
                _ => {
                    let locked = f.locked(ch, side);
                    let _ = f.refund(ch, side, amt.min(locked));
                }
            }
            assert!(f.verify_conservation());
            assert_eq!(f.grand_total(), grand);
        }
    }
}
