//! Splicer, end to end: the paper's system assembled from the workspace
//! substrates.
//!
//! The crate glues together the pipeline of Figs. 4–6:
//!
//! 1. [`voting`] — the community multiwinner vote electing the smooth-node
//!    *candidate list* (trust model, §III-B), balancing **excellence**
//!    (connectivity, funds, proximity to clients) and **diversity**
//!    (geographic spread).
//! 2. [`pcn_placement`] — the placement optimization choosing the *actual
//!    PCHs* from the candidates and assigning every client (§IV-B/C).
//! 3. [`pcn_workload::topology`] — the multi-star rewiring (Fig. 2b,
//!    including "the removal of redundant payment channels" of Fig. 4).
//! 4. [`workflow`] — the encrypted payment workflow of §III-A (KMG key
//!    issuance, envelope encryption of demands, TU-level unlinkability,
//!    acknowledgement aggregation).
//! 5. [`pcn_routing`] — the deadlock-free rate-based routing protocol
//!    (§IV-D) executed by the discrete-event engine.
//!
//! [`system`] exposes one-call builders for Splicer and every baseline
//! (Spider, Flash, Landmark, A2L), all replaying the *same* payment trace
//! on the *same* world — the apples-to-apples comparison behind Figs. 7–8.
//!
//! # Quickstart
//!
//! ```
//! use splicer_core::system::SystemBuilder;
//! use pcn_workload::{Scenario, ScenarioParams};
//!
//! let scenario = Scenario::build(ScenarioParams::tiny());
//! let report = SystemBuilder::new(scenario).build_splicer().unwrap().run();
//! assert_eq!(report.scheme, "Splicer");
//! assert!(report.stats.tsr() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod schemes;
pub mod system;
pub mod voting;
pub mod workflow;

pub use system::{PreparedRun, RunReport, SystemBuilder};
