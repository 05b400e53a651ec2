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
        let s = &r.stats;
        println!(
            "{:12} tsr={:.3} thr={:.3} lat={:.3}s gen={} done={} fail={} unroutable={} \
             tus: del={} abort={} marked={} drained={} hubs={:?} \
             cache={}h/{}m/{}i[{}t/{}fp]/{}e ({:.0}% hit) world={}ev/{}exp \
             adv={}f/{}g/{}dl honest={:.3} planner={}gd/{}lr/{}ns pps={:.0}",
            r.scheme,
            s.tsr(),
            s.normalized_throughput(),
            s.avg_latency_secs(),
            s.generated,
            s.completed,
            s.failed,
            s.unroutable,
            s.delivered_tus,
            s.aborted_tus,
            s.marked_tus,
            s.drained_directions_end,
            r.placement_hubs,
            s.path_cache.hits,
            s.path_cache.misses,
            s.path_cache.invalidations(),
            s.path_cache.inv_topology,
            s.path_cache.inv_footprint,
            s.path_cache.evictions,
            100.0 * s.path_cache.hit_rate(),
            s.world_events_applied,
            s.tus_expired_by_close,
            s.faults_injected,
            s.griefed_locks,
            s.deadlocks_detected,
            s.honest_tsr(),
            s.goal_directed_plans,
            s.landmark_rebuilds,
            s.nodes_settled,
            s.payments_per_sec(),
        );
    }
}
