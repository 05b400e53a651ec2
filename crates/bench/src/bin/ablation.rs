//! Ablation study: which of Splicer's mechanisms buys what.
//!
//! Usage: `cargo run --release -p splicer-bench --bin ablation -- [--quick] [--seed N] [--workers N]`
//!
//! Starting from full Splicer, each row disables one mechanism:
//! * no rate control (eq. 26 off — TUs blast immediately),
//! * no congestion control (no queues/windows — Lightning-style instant
//!   failure on empty channels),
//! * stale knowledge (capacity-only path selection instead of the
//!   epoch-fresh balance view),
//! * single path (k = 1 instead of 5).
//!
//! The five variants form one grid ([`splicer_bench::ablation_grid`])
//! and run in parallel.

use splicer_bench::{ablation_grid, HarnessOpts};

fn main() {
    let (opts, _) = HarnessOpts::from_args();
    println!("# Ablation: Splicer minus one mechanism at a time");
    println!("(small scale, capacity-stressed: channel scale 0.5)\n");
    let results = ablation_grid(&opts).run(opts.workers);

    println!("| variant | TSR | throughput | latency (s) | aborted TUs |");
    println!("|---|---|---|---|---|");
    for r in &results {
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {} |",
            r.label,
            r.stats.tsr(),
            r.stats.normalized_throughput(),
            r.stats.avg_latency_secs(),
            r.stats.aborted_tus,
        );
    }
}
