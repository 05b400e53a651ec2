//! Diagnostic: full stats breakdown per scheme on one configuration.
//!
//! Usage: `cargo run --release -p splicer-bench --bin probe -- [channel_scale] [--workers N]`

use pcn_harness::ExperimentGrid;
use splicer_bench::{HarnessOpts, Scale};

fn main() {
    let (opts, rest) = HarnessOpts::from_args();
    let scale: f64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let mut p = opts.params(Scale::Small);
    p.channel_scale = scale;
    let grid = ExperimentGrid::new(p).sweep_channel_scale(&[scale]);
    for r in grid.run(opts.workers) {
        println!("{:12} {} hubs={:?}", r.scheme, r.stats, r.placement_hubs);
    }
}
