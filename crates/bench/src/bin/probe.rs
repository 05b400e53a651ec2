//! Diagnostic: full stats breakdown per scheme on one configuration.
//!
//! Usage: `cargo run --release -p splicer-bench --bin probe -- [channel_scale] [--workers N]`

use splicer_bench::{probe_grid, HarnessOpts};

fn main() {
    let (opts, rest) = HarnessOpts::from_args();
    let scale: f64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    for r in probe_grid(&opts, scale).run(opts.workers) {
        println!("{:12} {} hubs={:?}", r.scheme, r.stats, r.placement_hubs);
    }
}
