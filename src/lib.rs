//! Reproduction of Splicer (ICDCS 2023). The root crate re-exports the
//! public API of `splicer-core`; see the `examples/` directory for runs
//! and ROADMAP.md for the architecture.

#![forbid(unsafe_code)]

pub use splicer_core::*;
