//! Shared vocabulary types for the Splicer payment-channel-network (PCN)
//! reproduction.
//!
//! This crate defines the identifiers, fixed-point token amounts, simulated
//! time units, and error types used by every other crate in the workspace.
//! It has no dependencies so that substrate crates (graph, crypto, solver,
//! simulator) can share a common language without pulling in each other.
//!
//! # Examples
//!
//! ```
//! use pcn_types::{Amount, NodeId, SimTime};
//!
//! let alice = NodeId::new(0);
//! let five_tokens = Amount::from_tokens(5);
//! let t = SimTime::ZERO + pcn_types::SimDuration::from_millis(200);
//! assert_eq!(five_tokens.millitokens(), 5_000);
//! assert!(t > SimTime::ZERO);
//! assert_ne!(alice, NodeId::new(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amount;
mod error;
mod ids;
mod time;

pub use amount::Amount;
pub use error::{PcnError, Result};
pub use ids::{ChannelId, NodeId, TuId, TxId};
pub use time::{SimDuration, SimTime};

/// Default protocol constants from the paper's evaluation setup (§V-A).
pub mod constants {
    use super::{Amount, SimDuration};

    /// Minimum transaction-unit value (paper: 1 token).
    pub const MIN_TU: Amount = Amount::from_tokens(1);
    /// Maximum transaction-unit value (paper: 4 tokens).
    pub const MAX_TU: Amount = Amount::from_tokens(4);
    /// Number of multi-paths `k` used by Splicer (paper: 5).
    pub const DEFAULT_PATHS: usize = 5;
    /// Transaction timeout (paper: 3 seconds).
    pub const TX_TIMEOUT: SimDuration = SimDuration::from_millis(3_000);
    /// Price/probe update interval τ (paper: 200 ms).
    pub const UPDATE_INTERVAL: SimDuration = SimDuration::from_millis(200);
    /// Queueing-delay marking threshold T (paper: 400 ms).
    pub const QUEUE_DELAY_THRESHOLD: SimDuration = SimDuration::from_millis(400);
    /// Per-channel queue size bound (paper: 8000 tokens).
    pub const QUEUE_CAPACITY: Amount = Amount::from_tokens(8_000);
    /// Window decrease factor β (paper: 10).
    pub const WINDOW_BETA: f64 = 10.0;
    /// Window increase factor γ (paper: 0.1).
    pub const WINDOW_GAMMA: f64 = 0.1;
    /// Minimum channel size in the fitted Lightning distribution (tokens).
    pub const MIN_CHANNEL_TOKENS: u64 = 10;
    /// Median channel size in the fitted Lightning distribution (tokens).
    pub const MEDIAN_CHANNEL_TOKENS: u64 = 152;
    /// Mean channel size in the fitted Lightning distribution (tokens).
    pub const MEAN_CHANNEL_TOKENS: u64 = 403;
}

#[cfg(test)]
mod tests {
    use super::constants::*;
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(MIN_TU, Amount::from_tokens(1));
        assert_eq!(MAX_TU, Amount::from_tokens(4));
        assert_eq!(DEFAULT_PATHS, 5);
        assert_eq!(TX_TIMEOUT.as_millis(), 3_000);
        assert_eq!(UPDATE_INTERVAL.as_millis(), 200);
        assert_eq!(QUEUE_DELAY_THRESHOLD.as_millis(), 400);
        assert_eq!(QUEUE_CAPACITY.tokens_floor(), 8_000);
    }
}
