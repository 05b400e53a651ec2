//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every `fig*`/`table*` binary in `src/bin` drives the same machinery:
//! describe the sweep as a `pcn-harness` [`ExperimentGrid`], fan the
//! cells across worker threads, and print the series the paper plots.
//! All schemes within a sweep point replay the identical payment trace
//! (each variant builds one world that its scheme cells share), so the
//! comparison stays apples-to-apples while cells run in parallel.
//! Absolute numbers differ from the paper (different hardware, a
//! simulator instead of LND); the *shapes* are the reproduction target,
//! and `tests/determinism.rs` asserts the Fig. 7(a) ones on the quick
//! grid.

#![forbid(unsafe_code)]

use pcn_harness::{CellResult, ExperimentGrid};
use pcn_types::SimDuration;
use pcn_workload::ScenarioParams;

/// One measured point of a sweep.
#[derive(Clone, Debug)]
pub struct Point {
    /// Scheme name.
    pub scheme: String,
    /// Sweep x value.
    pub x: f64,
    /// Transaction success ratio.
    pub tsr: f64,
    /// Normalized throughput.
    pub throughput: f64,
    /// Mean completion latency (seconds).
    pub latency: f64,
    /// Overhead (messages × hops).
    pub overhead: u64,
    /// Drained channel directions at end (deadlock symptom).
    pub drained: usize,
}

impl Point {
    /// Builds a point from a grid cell result.
    pub fn from_cell(c: &CellResult) -> Point {
        Point {
            scheme: c.scheme.clone(),
            x: c.x,
            tsr: c.stats.tsr(),
            throughput: c.stats.normalized_throughput(),
            latency: c.stats.avg_latency_secs(),
            overhead: c.stats.overhead_msgs,
            drained: c.stats.drained_directions_end,
        }
    }
}

/// Which scale a figure runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 100-node network (Fig. 7).
    Small,
    /// 3000-node network (Fig. 8).
    Large,
}

/// Harness-wide run options.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Reduce durations/sweep points for a fast smoke run (`--quick`).
    pub quick: bool,
    /// Root seed.
    pub seed: u64,
    /// Worker threads for grid execution (`--workers N`).
    pub workers: usize,
}

impl HarnessOpts {
    /// Parses `--quick`, `--seed N` and `--workers N` from the raw CLI
    /// args, returning the remaining positional args.
    pub fn from_args() -> (HarnessOpts, Vec<String>) {
        let mut opts = HarnessOpts {
            quick: false,
            seed: 1,
            workers: default_workers(),
        };
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs a number");
                }
                "--workers" => {
                    opts.workers = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&w| w > 0)
                        .expect("--workers needs a positive number");
                }
                _ => rest.push(a),
            }
        }
        (opts, rest)
    }

    /// Scenario parameters for a scale under these options.
    pub fn params(&self, scale: Scale) -> ScenarioParams {
        let mut p = match scale {
            Scale::Small => ScenarioParams::small(),
            Scale::Large => ScenarioParams::large(),
        };
        p.seed = self.seed;
        if self.quick {
            p.duration = SimDuration::from_secs(15);
            if scale == Scale::Large {
                p.nodes = 600;
                p.candidate_count = 20;
                p.arrivals_per_sec = 40.0;
            }
        } else if scale == Scale::Large {
            // Full large scale is expensive; keep the trace bounded.
            p.duration = SimDuration::from_secs(30);
            p.arrivals_per_sec = 60.0;
        }
        p
    }
}

/// Worker-thread default: the machine's parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs a grid and maps its cells to plot points.
pub fn run_grid(grid: &ExperimentGrid, workers: usize) -> Vec<Point> {
    grid.run(workers).iter().map(Point::from_cell).collect()
}

/// Prints a sweep as a markdown table, one row per x value, one column per
/// scheme, using the selected metric.
pub fn print_series(
    title: &str,
    xlabel: &str,
    points: &[Point],
    metric: fn(&Point) -> f64,
    unit: &str,
) {
    println!("\n## {title}\n");
    let mut schemes: Vec<String> = Vec::new();
    for p in points {
        if !schemes.contains(&p.scheme) {
            schemes.push(p.scheme.clone());
        }
    }
    let mut xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    print!("| {xlabel} |");
    for s in &schemes {
        print!(" {s} |");
    }
    println!();
    print!("|---|");
    for _ in &schemes {
        print!("---|");
    }
    println!();
    for &x in &xs {
        print!("| {x} |");
        for s in &schemes {
            let v = points
                .iter()
                .find(|p| p.x == x && &p.scheme == s)
                .map(&metric)
                .unwrap_or(f64::NAN);
            print!(" {v:.3}{unit} |");
        }
        println!();
    }
}

/// CSV dump for downstream plotting.
pub fn print_csv(points: &[Point]) {
    println!("\nscheme,x,tsr,throughput,latency_s,overhead_msgs,drained");
    for p in points {
        println!(
            "{},{},{:.4},{:.4},{:.4},{},{}",
            p.scheme, p.x, p.tsr, p.throughput, p.latency, p.overhead, p.drained
        );
    }
}

/// The Fig. 7/8 driver shared by the `fig7` and `fig8` binaries.
pub mod figures {
    use super::*;

    /// Runs the requested panel(s) of Fig. 7 (small) or Fig. 8 (large).
    pub fn run(scale: Scale, opts: &HarnessOpts, which: &str) {
        let label = match scale {
            Scale::Small => "Fig. 7 (small scale, 100 nodes)",
            Scale::Large => "Fig. 8 (large scale)",
        };
        println!("# {label}");

        if which == "a" || which == "all" {
            let scales: &[f64] = if opts.quick {
                &[0.5, 2.0, 8.0]
            } else {
                &[0.5, 1.0, 2.0, 4.0, 8.0]
            };
            let grid = ExperimentGrid::new(opts.params(scale)).sweep_channel_scale(scales);
            let pts = run_grid(&grid, opts.workers);
            print_series(
                "(a) Influence of the channel size — TSR",
                "channel scale",
                &pts,
                |p| p.tsr,
                "",
            );
            print_csv(&pts);
        }

        if which == "b" || which == "all" {
            let sizes: &[f64] = if opts.quick {
                &[4.0, 12.0, 32.0]
            } else {
                &[4.0, 8.0, 12.0, 20.0, 32.0]
            };
            let grid = ExperimentGrid::new(opts.params(scale)).sweep_mean_tx(sizes);
            let pts = run_grid(&grid, opts.workers);
            print_series(
                "(b) Influence of the transaction size — TSR",
                "mean tx (tokens)",
                &pts,
                |p| p.tsr,
                "",
            );
            print_csv(&pts);
        }

        if which == "c" || which == "d" || which == "all" {
            let taus: &[u64] = if opts.quick {
                &[100, 400, 800]
            } else {
                &[100, 200, 400, 600, 800]
            };
            let grid = ExperimentGrid::new(opts.params(scale)).sweep_tau_ms(taus);
            let pts = run_grid(&grid, opts.workers);
            if which != "d" {
                print_series(
                    "(c) Influence of the update time — TSR",
                    "τ (ms)",
                    &pts,
                    |p| p.tsr,
                    "",
                );
            }
            if which != "c" {
                print_series(
                    "(d) Normalized throughput",
                    "τ (ms)",
                    &pts,
                    |p| p.throughput,
                    "",
                );
            }
            print_csv(&pts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_workload::SchemeChoice;

    #[test]
    fn quick_params_shrink_scale() {
        let opts = HarnessOpts {
            quick: true,
            seed: 3,
            workers: 1,
        };
        let p = opts.params(Scale::Large);
        assert!(p.nodes < 3000);
        assert_eq!(p.seed, 3);
        let p = opts.params(Scale::Small);
        assert_eq!(p.nodes, 100);
    }

    #[test]
    fn point_from_cell_maps_metrics() {
        let grid = ExperimentGrid::new(ScenarioParams::tiny())
            .schemes([SchemeChoice::Spider])
            .sweep_channel_scale(&[2.5]);
        let cells = grid.run(1);
        let p = Point::from_cell(&cells[0]);
        assert_eq!(p.scheme, "Spider");
        assert_eq!(p.x, 2.5);
        assert!((p.tsr - cells[0].stats.tsr()).abs() < 1e-12);
    }
}
