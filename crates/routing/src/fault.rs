//! Deterministic adversarial fault injection: the engine half of the
//! threat model.
//!
//! A [`FaultPlan`] is pure data describing *who misbehaves and how* —
//! griefer payments that acquire hop locks and stall, adversarial
//! circular-demand payments tuned against the deadlock-freedom claim,
//! channels that drop or delay TUs, rogue hubs that stall or misorder
//! forwarded traffic. The workload layer materializes a plan once per
//! scenario (from the dedicated `"adversary"` RNG fork); the engine
//! evaluates it at hop-event boundaries, so every injected fault rides
//! the existing abort/refund/timeout lifecycle — there is no separate
//! code path that could leak value.
//!
//! Per-event fault decisions are **pure hash functions** of
//! `(plan salt, payment id, hop index, retry count, channel id)`, never
//! the engine RNG: cached and uncached runs therefore agree bit-for-bit
//! on each intervention, and an empty plan is byte-identical to an
//! honest run (it draws nothing and the engine short-circuits it
//! entirely).

use pcn_types::{ChannelId, SimDuration, TxId};

/// SplitMix64 finalizer: the same deterministic mixer the seed-derivation
/// layer uses, applied here to (salt, id, hop, retry) tuples.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to the unit interval `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// Domain-separation tags: each decision family hashes in its own tag so
// e.g. a channel being drop-faulty is independent of it being
// delay-faulty under the same salt.
const DOM_DROP_CHANNEL: u64 = 0xD0;
const DOM_DELAY_CHANNEL: u64 = 0xDE;
const DOM_DROP: u64 = 0x0D;
const DOM_JITTER: u64 = 0x1A;
const DOM_MISORDER: u64 = 0x31;
const DOM_WORKFLOW: u64 = 0x3F;

/// How a rogue hub mishandles the TUs it forwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RogueBehavior {
    /// Every forward through the hub is held for several hop delays —
    /// a hub that is alive (channels stay open) but unresponsive.
    Stall,
    /// A deterministic half of the forwards are held two extra hop
    /// delays, so TUs overtake each other downstream of the hub.
    Misorder,
}

/// A materialized fault plan: the adversary's complete script for one
/// run, resolved to payment ids and probability knobs.
///
/// Built by the workload layer (`AdversarySpec::materialize`) and carried
/// alongside the payment trace like the world-event timeline; install it
/// with `Engine::with_faults`. The
/// [`FaultPlan::default`] plan is empty and injects nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Salt for every per-event hash decision, drawn once from the
    /// `"adversary"` RNG fork at materialization (0 for empty plans,
    /// which never consult it).
    pub salt: u64,
    /// Payment ids sourced by griefer clients (sorted ascending): their
    /// TUs acquire hop locks normally and then stall for
    /// [`FaultPlan::griefer_hold`], pinning liquidity until the refund
    /// path reclaims it at the deadline.
    pub griefer_txs: Vec<TxId>,
    /// How long a griefed lock is held before the TU moves again
    /// (typically longer than the transaction timeout).
    pub griefer_hold: SimDuration,
    /// Payment ids of the adversarial circular-demand ring (sorted
    /// ascending). They route and settle like honest payments — the
    /// attack is their one-directional circulation — but are excluded
    /// from the honest-traffic counters.
    pub ring_txs: Vec<TxId>,
    /// Fraction of channels that drop-fault (per-channel hash decision).
    pub drop_channel_frac: f64,
    /// Per-forward drop probability on a drop-faulty channel.
    pub drop_prob: f64,
    /// Fraction of channels that delay-fault.
    pub delay_channel_frac: f64,
    /// Maximum extra forwarding delay on a delay-faulty channel; the
    /// actual jitter is a per-forward hash fraction of it.
    pub delay_jitter: SimDuration,
    /// Rogue hubs as `(rank, behavior)`: the rank indexes the scheme's
    /// hub set modulo its size (like `WorldEvent::HubOutage`), so one
    /// plan addresses hubs across every scheme's topology. Flat schemes
    /// have no hub set and ignore these.
    pub rogue_hubs: Vec<(usize, RogueBehavior)>,
}

impl FaultPlan {
    /// Whether this plan injects nothing. The engine never installs an
    /// empty plan, keeping honest runs byte-identical to pre-fault-layer
    /// behaviour.
    pub fn is_empty(&self) -> bool {
        self.griefer_txs.is_empty()
            && self.ring_txs.is_empty()
            && (self.drop_channel_frac <= 0.0 || self.drop_prob <= 0.0)
            && (self.delay_channel_frac <= 0.0 || self.delay_jitter.is_zero())
            && self.rogue_hubs.is_empty()
    }

    /// Whether `tx` is a griefer payment.
    pub fn is_griefer(&self, tx: TxId) -> bool {
        self.griefer_txs.binary_search(&tx).is_ok()
    }

    /// Whether `tx` belongs to the adversarial circular-demand ring.
    pub fn is_ring(&self, tx: TxId) -> bool {
        self.ring_txs.binary_search(&tx).is_ok()
    }

    /// Whether `tx` is adversary-originated traffic (griefer or ring) —
    /// the complement of the honest traffic the `honest_*` counters
    /// track.
    pub fn is_adversarial(&self, tx: TxId) -> bool {
        self.is_griefer(tx) || self.is_ring(tx)
    }

    /// Whether channel `ch` is drop-faulty (a pure per-channel hash, so
    /// the faulty set is fixed for the whole run).
    pub fn drop_channel(&self, ch: ChannelId) -> bool {
        self.drop_channel_frac > 0.0
            && unit(mix(self.salt ^ DOM_DROP_CHANNEL ^ (ch.raw() as u64))) < self.drop_channel_frac
    }

    /// Whether channel `ch` is delay-faulty.
    pub fn delay_channel(&self, ch: ChannelId) -> bool {
        self.delay_channel_frac > 0.0
            && unit(mix(self.salt ^ DOM_DELAY_CHANNEL ^ (ch.raw() as u64)))
                < self.delay_channel_frac
    }

    /// Whether this forward of `tx` over drop-faulty channel `ch` is
    /// dropped. Retries re-roll (a dropped TU's retry may survive).
    pub fn drops(&self, ch: ChannelId, tx: TxId, hop: usize, retries: u32) -> bool {
        self.drop_channel(ch)
            && unit(mix(self.salt
                ^ DOM_DROP
                ^ forward_key(tx, hop, retries, ch)))
                < self.drop_prob
    }

    /// Extra forwarding delay injected on delay-faulty channel `ch` for
    /// this forward (zero when the channel is clean).
    pub fn jitter(&self, ch: ChannelId, tx: TxId, hop: usize, retries: u32) -> SimDuration {
        if !self.delay_channel(ch) {
            return SimDuration::ZERO;
        }
        let f = unit(mix(self.salt
            ^ DOM_JITTER
            ^ forward_key(tx, hop, retries, ch)));
        SimDuration::from_micros((self.delay_jitter.as_micros() as f64 * f) as u64)
    }

    /// [`RogueBehavior::Misorder`] coin for one forward: a deterministic
    /// half of the forwards through a misordering hub are held back.
    pub fn misorders(&self, ch: ChannelId, tx: TxId, hop: usize, retries: u32) -> bool {
        mix(self.salt ^ DOM_MISORDER ^ forward_key(tx, hop, retries, ch)) & 1 == 1
    }
}

/// Packs one forward's identity — payment, hop, retry attempt, channel —
/// into a single hash input. Keyed by the *payment* id (dense, stable),
/// never the TU slot handle (slots recycle), so decisions survive every
/// cache configuration of the same run.
fn forward_key(tx: TxId, hop: usize, retries: u32, ch: ChannelId) -> u64 {
    mix(tx.raw())
        ^ (hop as u64).rotate_left(24)
        ^ (retries as u64).rotate_left(40)
        ^ (ch.raw() as u64).rotate_left(8)
}

/// The one fault mechanism shared by the discrete-event engine and the
/// crypto-layer `PaymentWorkflow` (splicer-core) — anything that can
/// decide whether a sealed TU is lost in transit.
///
/// A blanket impl keeps the historical `FnMut(usize) -> bool` drop
/// closures working unchanged; `&FaultPlan` implements it so a
/// scenario's plan drives the workflow directly (hash of the plan salt
/// and TU index against [`FaultPlan::drop_prob`] — the workflow has no
/// channel identity, so the channel-fraction gate does not apply).
pub trait TuDropFilter {
    /// Whether the TU at `tu_index` is dropped in transit.
    fn drops_tu(&mut self, tu_index: usize) -> bool;
}

impl<F: FnMut(usize) -> bool> TuDropFilter for F {
    fn drops_tu(&mut self, tu_index: usize) -> bool {
        self(tu_index)
    }
}

impl TuDropFilter for &FaultPlan {
    fn drops_tu(&mut self, tu_index: usize) -> bool {
        self.drop_prob > 0.0
            && unit(mix(self.salt ^ DOM_WORKFLOW ^ (tu_index as u64))) < self.drop_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for i in 0..64u64 {
            let ch = ChannelId::new(i as u32);
            let tx = TxId::new(i);
            assert!(!plan.drop_channel(ch));
            assert!(!plan.delay_channel(ch));
            assert!(!plan.drops(ch, tx, 0, 0));
            assert!(plan.jitter(ch, tx, 0, 0).is_zero());
            assert!(!plan.is_adversarial(tx));
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_the_key() {
        let plan = FaultPlan {
            salt: 0xfeed,
            drop_channel_frac: 0.5,
            drop_prob: 0.5,
            delay_channel_frac: 0.5,
            delay_jitter: SimDuration::from_millis(20),
            ..FaultPlan::default()
        };
        for i in 0..128u64 {
            let ch = ChannelId::new((i % 16) as u32);
            let tx = TxId::new(i);
            assert_eq!(plan.drops(ch, tx, 1, 0), plan.drops(ch, tx, 1, 0));
            assert_eq!(plan.jitter(ch, tx, 1, 0), plan.jitter(ch, tx, 1, 0));
        }
        // Distinct retries re-roll: at p=0.5 over 128 keys, both outcomes
        // must occur.
        let ch = ChannelId::new(3);
        let differs = (0..128u64)
            .any(|i| plan.drops(ch, TxId::new(i), 1, 0) != plan.drops(ch, TxId::new(i), 1, 1));
        assert!(differs, "retry attempts must re-roll the drop coin");
    }

    #[test]
    fn channel_fractions_select_a_proportional_subset() {
        let plan = FaultPlan {
            salt: 7,
            drop_channel_frac: 0.3,
            drop_prob: 1.0,
            ..FaultPlan::default()
        };
        let faulty = (0..1000u32)
            .filter(|&c| plan.drop_channel(ChannelId::new(c)))
            .count();
        assert!(
            (200..400).contains(&faulty),
            "~30% of 1000 channels should be drop-faulty, got {faulty}"
        );
    }

    #[test]
    fn membership_uses_binary_search_over_sorted_ids() {
        let plan = FaultPlan {
            griefer_txs: vec![TxId::new(2), TxId::new(5), TxId::new(9)],
            ring_txs: vec![TxId::new(11)],
            ..FaultPlan::default()
        };
        assert!(plan.is_griefer(TxId::new(5)));
        assert!(!plan.is_griefer(TxId::new(4)));
        assert!(plan.is_ring(TxId::new(11)));
        assert!(plan.is_adversarial(TxId::new(2)));
        assert!(plan.is_adversarial(TxId::new(11)));
        assert!(!plan.is_adversarial(TxId::new(0)));
        assert!(!plan.is_empty());
    }

    #[test]
    fn drop_filter_blanket_and_plan_impls_agree_on_shape() {
        let mut closure = |idx: usize| idx == 2;
        assert!(!closure.drops_tu(1));
        assert!(closure.drops_tu(2));

        let plan = FaultPlan {
            salt: 3,
            drop_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut filter = &plan;
        assert!(filter.drops_tu(0), "p=1.0 drops every TU");
        let clean = FaultPlan::default();
        let mut filter = &clean;
        assert!(!filter.drops_tu(0), "the empty plan drops nothing");
    }
}
