//! Correctness checks, the semantic digest, and the metrics a run
//! reports.

use pcn_routing::RunStats;

use crate::trace::total;
use crate::workload::{Round, RunRecord, Timing, REPLAYED, SCHEMES};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Why a run's output cannot be trusted, if it cannot.
pub fn check(run: &RunRecord) -> Result<(), String> {
    let s = &run.stats;
    let mut why = Vec::new();
    if !s.is_consistent() {
        why.push("inconsistent run statistics".to_string());
    }
    if s.conservation_violations != 0 {
        why.push(format!(
            "{} value-conservation violations",
            s.conservation_violations
        ));
    }
    if s.generated != run.expected {
        why.push(format!(
            "generated {} of {} trace payments",
            s.generated, run.expected
        ));
    }
    why.extend(run.violations.iter().cloned());
    if why.is_empty() {
        Ok(())
    } else {
        Err(why.join("; "))
    }
}

/// FNV-1a over every run's label and semantic payload (cache and
/// planner counters and the wall clock zeroed), in run order. Equal
/// digests on two commits mean bit-identical simulated output.
pub fn digest(runs: &[RunRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for run in runs {
        let payload = run
            .stats
            .without_cache_counters()
            .without_planner_counters();
        for b in format!("{}|{payload:?}\n", run.label).bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn merged(round: &Round) -> RunStats {
    let stats: Vec<RunStats> = round.runs.iter().map(|r| r.stats.clone()).collect();
    RunStats::merge(&stats)
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// End-to-end metrics from the untraced rounds: host times are medians
/// over `timings`, simulated outcomes come from the `first` round (every
/// round reproduces it, which the digest checks).
pub fn end_to_end(first: &Round, timings: &[Timing], peak_rss_mb: f64) -> Vec<Metric> {
    let sum = merged(first);
    let median_of = |f: fn(&Timing) -> f64| median(timings.iter().map(f).collect());
    vec![
        metric("wall_s", "s", median_of(|t| t.wall_s)),
        metric("setup_s", "s", median_of(|t| t.setup_s)),
        metric("payments_per_s", "1/s", median_of(|t| t.payments_per_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("tsr", "ratio", sum.tsr()),
        metric("norm_throughput", "ratio", sum.normalized_throughput()),
        metric("sim_latency_s", "sim_s", sum.avg_latency_secs()),
    ]
}

/// Per-layer metrics from the traced round; `untraced` is a warm round
/// run beside it on the same inputs, for the tracing overhead.
pub fn per_layer(untraced: &Round, traced: &Round) -> Vec<Metric> {
    let spans = &traced.spans;
    let s = merged(traced);
    let cache = s.path_cache;
    let scheme_index = |key: &str| {
        SCHEMES
            .iter()
            .position(|&(_, k)| k == key)
            .expect("a compared scheme")
    };
    let engine_s: Vec<f64> = (0..SCHEMES.len()).map(|i| traced.engine_s(i)).collect();
    let solve_s = total(spans, "placement.solve");
    let grid_s = total(spans, "harness.grid");
    let cell_secs: f64 = traced.runs.iter().map(|r| r.stats.wall_secs).sum();
    let query_us: Vec<f64> = REPLAYED
        .iter()
        .zip(traced.probe.queries)
        .map(|((_, key), n)| {
            ratio(
                total(spans, &format!("planner.replay.{key}")) * 1e6,
                n as f64,
            )
        })
        .collect();
    let spider = scheme_index("spider");
    let spider_computes: u64 = traced
        .runs
        .iter()
        .filter(|r| r.scheme == spider)
        .map(|r| r.stats.path_cache.misses + r.stats.path_cache.invalidations())
        .sum();

    let mut out = vec![
        metric("workload.build_s", "s", total(spans, "workload.build")),
        metric("workload.payments", "count", traced.payments as f64),
        metric("placement.solve_s", "s", solve_s),
        metric(
            "placement.hubs",
            "count",
            ratio(traced.probe.hubs as f64, traced.probe.solves as f64),
        ),
        metric(
            "core.assemble_s",
            "s",
            (traced.setup_s() - total(spans, "workload.build") - solve_s).max(0.0),
        ),
        metric("harness.grid_s", "s", grid_s),
        metric(
            "harness.efficiency",
            "ratio",
            ratio(cell_secs, grid_s * traced.workers as f64),
        ),
    ];
    for (i, &(_, key)) in SCHEMES.iter().enumerate() {
        out.push(metric(format!("engine.run_s.{key}"), "s", engine_s[i]));
    }
    out.extend([
        metric("lifecycle.tus_delivered", "count", s.delivered_tus as f64),
        metric("lifecycle.tus_aborted", "count", s.aborted_tus as f64),
        metric("lifecycle.tus_marked", "count", s.marked_tus as f64),
        metric("lifecycle.overhead_msgs", "count", s.overhead_msgs as f64),
        metric(
            "lifecycle.delivered_ratio",
            "ratio",
            ratio(
                s.delivered_tus as f64,
                (s.delivered_tus + s.aborted_tus) as f64,
            ),
        ),
        metric("cache.hits", "count", cache.hits as f64),
        metric(
            "cache.computes",
            "count",
            (cache.misses + cache.invalidations()) as f64,
        ),
        metric("cache.hit_rate", "ratio", cache.hit_rate()),
        metric("cache.inv_topology", "count", cache.inv_topology as f64),
        metric("cache.inv_footprint", "count", cache.inv_footprint as f64),
        metric("cache.evictions", "count", cache.evictions as f64),
        metric("graph.nodes_settled", "count", s.nodes_settled as f64),
        metric(
            "graph.goal_directed_plans",
            "count",
            s.goal_directed_plans as f64,
        ),
        metric("graph.compactions", "count", s.graph_compactions as f64),
    ]);
    for ((_, key), us) in REPLAYED.iter().zip(&query_us) {
        out.push(metric(format!("planner.query_us.{key}"), "us", *us));
    }
    out.extend([
        metric(
            "planner.share_est.spider",
            "ratio",
            ratio(
                spider_computes as f64 * query_us[0] * 1e-6,
                engine_s[spider],
            ),
        ),
        metric(
            "world.events_applied",
            "count",
            s.world_events_applied as f64,
        ),
        metric("world.tus_expired", "count", s.tus_expired_by_close as f64),
        metric("trace.overhead_s", "s", traced.wall_s() - untraced.wall_s()),
    ]);
    out
}
