//! The parallel scenario harness: the third layer of the experiment
//! stack.
//!
//! The stack separates *what a world looks like* from *what to run on
//! it* from *how to execute at scale*:
//!
//! 1. `pcn-workload` — the [`ScenarioBuilder`](pcn_workload::ScenarioBuilder)
//!    DSL produces pure-data [`ScenarioSpec`](pcn_workload::ScenarioSpec)s.
//! 2. `splicer-core` — `SystemBuilder` turns a materialized scenario into
//!    prepared scheme runs.
//! 3. this crate — [`run_spec`] executes one spec and checks its
//!    expectations; [`ExperimentGrid`] cartesian-expands parameter axes ×
//!    schemes into cells and fans them across worker threads.
//!
//! Every cell is described by pure data ([`CellSpec`]), so results are
//! independent of worker count and scheduling: a 4-worker grid run, a
//! serial run, and a standalone [`ExperimentGrid::run_cell`] all produce
//! bit-identical [`RunStats`](pcn_routing::RunStats) for the same cell.
//!
//! Cells carry the engine's path-cache counters
//! (`RunStats::path_cache`: hits/misses/evictions plus invalidations
//! split by cause — topology, and footprint, which is always 0) and the
//! dynamic-world counters (`world_events_applied`,
//! `tus_expired_by_close`), so cache effectiveness and timeline
//! activity are visible per grid cell; [`RunTuning::path_cache`]
//! toggles the cache for A/B cells (semantics-preserving either way),
//! [`SchemeTuning`] overrides routing choices on *any* scheme's cell,
//! baselines included, and [`ExperimentGrid::sweep_churn_rate`] sweeps
//! the dynamic-world churn axis across schemes.
//!
//! Adversarial worlds ride the same machinery: a base whose
//! `ScenarioParams::adversary` carries a fault spec runs it in every
//! cell, cells surface `faults_injected` / `griefed_locks` /
//! `deadlocks_detected` /
//! [`honest_tsr`](pcn_routing::RunStats::honest_tsr) through their
//! stats, and the grid's [`ExperimentGrid::expectations`] (the
//! `Expectations` that the spec-level `expect_value_conserved`,
//! `expect_honest_min_tsr`, `expect_bounded_stall` and
//! `expect_no_deadlock` knobs fill) are checked on every cell after the
//! run.
//!
//! ```
//! use pcn_harness::ExperimentGrid;
//! use pcn_workload::{ScenarioParams, SchemeChoice};
//!
//! let grid = ExperimentGrid::new(ScenarioParams::tiny())
//!     .schemes([SchemeChoice::Spider])
//!     .sweep_channel_scale(&[1.0, 2.0]);
//! let results = grid.run(2);
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.stats.generated > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod run;

pub use grid::{derive_seed, CellResult, CellSpec, ExperimentGrid, Overrides, Variant};
pub use run::{run_spec, run_spec_tuned, RunTuning, SchemeTuning, SpecOutcome};
