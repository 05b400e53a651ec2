//! Routing prices: the distributed rate-control signals of §IV-D.
//!
//! Every channel carries a capacity price λ (eq. 21, one per channel) and
//! an imbalance price µ per direction (eq. 22). Probes sum the per-channel
//! routing price ξ (eq. 23) along a path into the path price ϱ (eq. 25);
//! the forwarding fee (eq. 24) is a fixed fraction of ξ.

use std::sync::Arc;

use pcn_graph::Path;
use pcn_types::{ChannelId, NodeId};

/// Price state of a single channel `(a, b)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChannelPrices {
    /// Capacity price λ_ab (shared by both directions).
    pub lambda: f64,
    /// Imbalance price µ in the a→b direction.
    pub mu_ab: f64,
    /// Imbalance price µ in the b→a direction.
    pub mu_ba: f64,
}

impl ChannelPrices {
    /// Eq. 21: `λ ← λ + κ(n_a + n_b − c_ab)`, floored at zero.
    ///
    /// `n_a`/`n_b` are the funds required to sustain the current rates on
    /// the two directions (in tokens) and `c_ab` is the channel's total
    /// funds.
    pub fn update_lambda(&mut self, kappa: f64, n_a: f64, n_b: f64, c_ab: f64) {
        self.lambda = (self.lambda + kappa * (n_a + n_b - c_ab)).max(0.0);
    }

    /// Eq. 22: `µ_ab ← µ_ab + η(m_a − m_b)` and symmetrically for µ_ba,
    /// floored at zero. `m_a`/`m_b` are the values (tokens) that arrived
    /// in each direction over the last update interval.
    pub fn update_mu(&mut self, eta: f64, m_a: f64, m_b: f64) {
        self.mu_ab = (self.mu_ab + eta * (m_a - m_b)).max(0.0);
        self.mu_ba = (self.mu_ba + eta * (m_b - m_a)).max(0.0);
    }

    /// Eq. 23: routing price in the given direction,
    /// `ξ = 2λ + µ_fwd − µ_rev` (floored at zero — a negative price would
    /// subsidize congestion).
    pub fn xi(&self, a_to_b: bool) -> f64 {
        let raw = if a_to_b {
            2.0 * self.lambda + self.mu_ab - self.mu_ba
        } else {
            2.0 * self.lambda + self.mu_ba - self.mu_ab
        };
        raw.max(0.0)
    }

    /// Eq. 24: forwarding fee `fee = T_fee · ξ`.
    pub fn fee(&self, t_fee: f64, a_to_b: bool) -> f64 {
        t_fee * self.xi(a_to_b)
    }
}

/// Price table for the whole network plus the per-interval arrival
/// accumulators `m_a`/`m_b`.
#[derive(Clone, Debug, Default)]
pub struct PriceTable {
    prices: Vec<ChannelPrices>,
    /// Value arrived per direction since the last tick (tokens): `[i].0`
    /// is the a→b direction of channel i.
    arrived: Vec<(f64, f64)>,
    /// Channel endpoint table (a, b) shared with the owner (the engine
    /// passes its own table by `Arc`, so construction clones nothing).
    endpoints: Arc<[(NodeId, NodeId)]>,
}

impl PriceTable {
    /// Creates a zeroed table for `endpoints[i] = (a, b)` per channel.
    /// Accepts a `Vec` (owned) or a shared `Arc` slice.
    pub fn new(endpoints: impl Into<Arc<[(NodeId, NodeId)]>>) -> PriceTable {
        let endpoints = endpoints.into();
        PriceTable {
            prices: vec![ChannelPrices::default(); endpoints.len()],
            arrived: vec![(0.0, 0.0); endpoints.len()],
            endpoints,
        }
    }

    /// Adopts a grown endpoint table (a dynamic world opened channels
    /// mid-run): new channels start with zeroed prices and accumulators,
    /// existing channels keep their state. The caller passes the same
    /// `Arc` it shares with the engine, so the tables stay one
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the new table is shorter than the current one or
    /// disagrees on an existing channel's endpoints (channel ids are
    /// dense and never re-ordered).
    pub fn set_endpoints(&mut self, endpoints: Arc<[(NodeId, NodeId)]>) {
        assert!(
            endpoints.len() >= self.endpoints.len(),
            "endpoint tables only grow"
        );
        assert!(
            endpoints
                .iter()
                .zip(self.endpoints.iter())
                .all(|(new, old)| new == old),
            "existing channel endpoints must be unchanged"
        );
        self.prices
            .resize(endpoints.len(), ChannelPrices::default());
        self.arrived.resize(endpoints.len(), (0.0, 0.0));
        self.endpoints = endpoints;
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.prices.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }

    /// Records that `tokens` arrived on channel `ch` in direction
    /// `from → other` (feeds eq. 22 at the next tick).
    pub fn record_arrival(&mut self, ch: ChannelId, from: NodeId, tokens: f64) {
        let i = ch.index();
        if i >= self.prices.len() {
            return;
        }
        if self.endpoints[i].0 == from {
            self.arrived[i].0 += tokens;
        } else {
            self.arrived[i].1 += tokens;
        }
    }

    /// Runs the eq. 21/22 updates for every channel. `required` yields the
    /// funds needed per direction (n_a, n_b) and `capacity` the channel
    /// total c_ab.
    pub fn tick<FR, FC>(&mut self, kappa: f64, eta: f64, mut required: FR, mut capacity: FC)
    where
        FR: FnMut(ChannelId) -> (f64, f64),
        FC: FnMut(ChannelId) -> f64,
    {
        for i in 0..self.prices.len() {
            let ch = ChannelId::from_index(i);
            let (n_a, n_b) = required(ch);
            self.prices[i].update_lambda(kappa, n_a, n_b, capacity(ch));
            let (m_a, m_b) = self.arrived[i];
            self.prices[i].update_mu(eta, m_a, m_b);
            self.arrived[i] = (0.0, 0.0);
        }
    }

    /// Routing price ξ of channel `ch` in direction `from → other`
    /// (eq. 23).
    pub fn xi(&self, ch: ChannelId, from: NodeId) -> f64 {
        let i = ch.index();
        if i >= self.prices.len() {
            return 0.0;
        }
        self.prices[i].xi(self.endpoints[i].0 == from)
    }

    /// Eq. 25: total path price `ϱ_p = (1 + T_fee)·Σ ξ` measured by a
    /// probe walking `path`.
    pub fn path_price(&self, path: &Path, t_fee: f64) -> f64 {
        let sum: f64 = path
            .hops_iter()
            .map(|(from, ch, _)| self.xi(ch, from))
            .sum();
        (1.0 + t_fee) * sum
    }

    /// Direct access for diagnostics.
    pub fn channel(&self, ch: ChannelId) -> Option<&ChannelPrices> {
        self.prices.get(ch.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn lambda_rises_on_overdemand_and_floors_at_zero() {
        let mut p = ChannelPrices::default();
        p.update_lambda(0.1, 8.0, 7.0, 10.0); // demand 15 > cap 10
        assert!((p.lambda - 0.5).abs() < 1e-12);
        p.update_lambda(0.1, 1.0, 1.0, 10.0); // under capacity → falls
        assert!((p.lambda - 0.0).abs() < 1e-12); // floored
    }

    #[test]
    fn mu_tracks_direction_imbalance() {
        let mut p = ChannelPrices::default();
        p.update_mu(0.2, 10.0, 4.0);
        assert!((p.mu_ab - 1.2).abs() < 1e-12);
        assert_eq!(p.mu_ba, 0.0);
        // Reverse imbalance decays µ_ab and grows µ_ba.
        p.update_mu(0.2, 0.0, 6.0);
        assert!((p.mu_ab - 0.0).abs() < 1e-12);
        assert!((p.mu_ba - 1.2).abs() < 1e-12);
    }

    #[test]
    fn xi_asymmetric_between_directions() {
        let p = ChannelPrices {
            lambda: 1.0,
            mu_ab: 3.0,
            mu_ba: 0.5,
        };
        assert!((p.xi(true) - (2.0 + 3.0 - 0.5)).abs() < 1e-12);
        // Raw reverse price would be 2 + 0.5 − 3 = −0.5; floored at zero.
        assert_eq!(p.xi(false), 0.0);
        // fee is a fraction of xi
        assert!((p.fee(0.1, true) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn xi_never_negative() {
        let p = ChannelPrices {
            lambda: 0.0,
            mu_ab: 0.0,
            mu_ba: 9.0,
        };
        assert_eq!(p.xi(true), 0.0);
    }

    #[test]
    fn table_tick_and_path_price() {
        let mut g = pcn_graph::Graph::new(3);
        let c0 = g.add_edge(n(0), n(1));
        let c1 = g.add_edge(n(1), n(2));
        let endpoints = vec![(n(0), n(1)), (n(1), n(2))];
        let mut table = PriceTable::new(endpoints);
        // Push arrivals only in the 0→1 and 1→2 directions.
        table.record_arrival(c0, n(0), 10.0);
        table.record_arrival(c1, n(1), 6.0);
        table.tick(0.1, 0.5, |_| (12.0, 0.0), |_| 10.0);
        // λ = 0.1·(12−10) = 0.2 per channel; µ_fwd = 0.5·arrivals.
        let path = Path::new(vec![n(0), n(1), n(2)], vec![c0, c1]);
        let xi0 = table.xi(c0, n(0));
        let xi1 = table.xi(c1, n(1));
        assert!((xi0 - (0.4 + 5.0)).abs() < 1e-12);
        assert!((xi1 - (0.4 + 3.0)).abs() < 1e-12);
        let rho = table.path_price(&path, 0.1);
        assert!((rho - 1.1 * (xi0 + xi1)).abs() < 1e-12);
        // Reverse direction is cheap (imbalance favours it).
        assert!(table.xi(c0, n(1)) < xi0);
        // Arrivals reset after tick.
        table.tick(0.1, 0.5, |_| (0.0, 0.0), |_| 10.0);
        let xi0_after = table.xi(c0, n(0));
        assert!(xi0_after <= xi0);
    }

    #[test]
    fn set_endpoints_grows_preserving_existing_prices() {
        let mut table = PriceTable::new(vec![(n(0), n(1))]);
        table.record_arrival(ChannelId::new(0), n(0), 10.0);
        table.tick(0.1, 0.5, |_| (12.0, 0.0), |_| 10.0);
        let xi_before = table.xi(ChannelId::new(0), n(0));
        assert!(xi_before > 0.0);
        let grown: Arc<[(NodeId, NodeId)]> = vec![(n(0), n(1)), (n(1), n(2))].into();
        table.set_endpoints(grown);
        assert_eq!(table.len(), 2);
        assert_eq!(table.xi(ChannelId::new(0), n(0)), xi_before);
        assert_eq!(table.xi(ChannelId::new(1), n(1)), 0.0, "new channel zeroed");
        table.record_arrival(ChannelId::new(1), n(2), 4.0);
        table.tick(0.1, 0.5, |_| (0.0, 0.0), |_| 10.0);
        assert!(table.xi(ChannelId::new(1), n(2)) > 0.0);
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn set_endpoints_rejects_shrink() {
        let mut table = PriceTable::new(vec![(n(0), n(1))]);
        table.set_endpoints(Vec::new().into());
    }

    #[test]
    fn out_of_range_channels_are_harmless() {
        let mut table = PriceTable::new(vec![(n(0), n(1))]);
        table.record_arrival(ChannelId::new(9), n(0), 5.0);
        assert_eq!(table.xi(ChannelId::new(9), n(0)), 0.0);
        assert!(table.channel(ChannelId::new(9)).is_none());
    }
}
