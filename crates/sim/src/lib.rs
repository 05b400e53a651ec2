//! Deterministic discrete-event simulation core.
//!
//! Replaces the paper's MATLAB + LND-testnet substrate (§V-A) with a
//! single-threaded, bit-reproducible discrete-event engine:
//!
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking; the heart of every experiment run.
//! * [`SimRng`] — a seeded RNG wrapper with labelled forking, so each
//!   subsystem (topology, workload, routing jitter) draws from an
//!   independent, reproducible stream.
//! * [`dist`] — sampling distributions (exponential, normal, log-normal,
//!   Zipf) implemented from first principles.
//! * [`metrics`] — the latency histogram every run records.
//!
//! # Examples
//!
//! ```
//! use pcn_sim::EventQueue;
//! use pcn_types::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule_after(SimDuration::from_millis(10), Ev::Pong);
//! q.schedule_after(SimDuration::from_millis(5), Ev::Ping);
//! assert_eq!(q.pop(), Some((SimTime::from_micros(5_000), Ev::Ping)));
//! assert_eq!(q.pop(), Some((SimTime::from_micros(10_000), Ev::Pong)));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
mod event;
pub mod metrics;
mod rng;

pub use event::{EventQueue, Lane};
pub use rng::SimRng;
