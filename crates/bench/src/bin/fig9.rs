//! Regenerates Fig. 9: evaluation of smooth-node placement.
//!
//! Usage: `cargo run --release -p splicer-bench --bin fig9 -- [a|b|c|d|e|f|all] [--quick] [--seed N] [--workers N]`
//!
//! * `a` — average balance cost vs ω: approximation vs exhaustive optimum.
//! * `b` — management-vs-synchronization cost tradeoff (annotated ω, hubs).
//! * `c`/`d` — number of placed smooth nodes vs ω (small / large).
//! * `e`/`f` — average transaction delay vs total traffic overhead, with
//!   and without PCHs (small / large) — each an experiment grid over ω,
//!   run in parallel.
//!
//! Each world the chosen panels use (small, large) also reports, once,
//! how much of its candidate list the §III-B multiwinner election
//! reproduces (`SystemBuilder::voting_overlap`).

use pcn_harness::{ExperimentGrid, Overrides, RunTuning};
use pcn_placement::PlacementSolver;
use pcn_workload::{Scenario, SchemeChoice};
use splicer_bench::{HarnessOpts, Scale};
use splicer_core::SystemBuilder;

const OMEGAS: [f64; 7] = [0.01, 0.02, 0.04, 0.08, 0.2, 0.5, 1.0];

fn main() {
    let (opts, rest) = HarnessOpts::from_args();
    let which = rest
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let w = which.as_str();
    println!("# Fig. 9: evaluation of smooth node placement");

    if ["a", "b", "c", "all"].contains(&w) {
        let scenario = Scenario::build(opts.params(Scale::Small));
        print_election("small", &scenario);
        if w == "a" || w == "all" {
            println!("\n## (a) Balance cost vs ω (small scale)\n");
            println!("| ω | optimal C_B | approx C_B (double greedy) | MILP-path? |");
            println!("|---|---|---|---|");
            for &omega in &OMEGAS {
                let opt = SystemBuilder::new(scenario.clone())
                    .omega(omega)
                    .solver(PlacementSolver::Exhaustive)
                    .solve_placement()
                    .expect("feasible")
                    .1;
                let approx = SystemBuilder::new(scenario.clone())
                    .omega(omega)
                    .solver(PlacementSolver::DoubleGreedyRandomized)
                    .solve_placement()
                    .expect("feasible")
                    .1;
                println!(
                    "| {omega} | {:.3} | {:.3} | exhaustive ground truth |",
                    opt.balance_cost(),
                    approx.balance_cost()
                );
            }
        }
        if w == "b" || w == "all" {
            println!("\n## (b) Trade-off in costs (small scale)\n");
            println!("| ω | hubs | C_M (management) | C_S (synchronization) |");
            println!("|---|---|---|---|");
            for &omega in &OMEGAS {
                let plan = SystemBuilder::new(scenario.clone())
                    .omega(omega)
                    .solve_placement()
                    .expect("feasible")
                    .1;
                println!(
                    "| {omega} | {} | {:.3} | {:.3} |",
                    plan.num_hubs(),
                    plan.management_cost(),
                    plan.synchronization_cost()
                );
            }
        }
        if w == "c" || w == "all" {
            println!("\n## (c) Smooth nodes vs ω (small scale)\n");
            println!("| ω | smooth nodes |");
            println!("|---|---|");
            for &omega in &OMEGAS {
                let plan = SystemBuilder::new(scenario.clone())
                    .omega(omega)
                    .solve_placement()
                    .expect("feasible")
                    .1;
                println!("| {omega} | {} |", plan.num_hubs());
            }
        }
    }

    if w == "d" || w == "all" {
        let scenario = Scenario::build(opts.params(Scale::Large));
        print_election("large", &scenario);
        println!("\n## (d) Smooth nodes vs ω (large scale)\n");
        println!("| ω | smooth nodes |");
        println!("|---|---|");
        for &omega in &OMEGAS {
            let plan = SystemBuilder::new(scenario.clone())
                .omega(omega)
                .solve_placement()
                .expect("feasible")
                .1;
            println!("| {omega} | {} |", plan.num_hubs());
        }
    }

    for (panel, scale, world, title) in [
        (
            "e",
            Scale::Small,
            "small",
            "(e) Small-scale costs: delay vs overhead",
        ),
        (
            "f",
            Scale::Large,
            "large",
            "(f) Large-scale costs: delay vs overhead",
        ),
    ] {
        if w != panel && w != "all" {
            continue;
        }
        let params = opts.params(scale);
        if w == panel {
            // Under `all`, panels a–d have reported this world already.
            print_election(world, &Scenario::build(params.clone()));
        }
        println!("\n## {title}\n");
        println!("| configuration | avg tx delay (s) | total overhead (msgs) |");
        println!("|---|---|---|");
        // Without PCHs: source routing (Spider) — a single fixed point.
        let spider = ExperimentGrid::new(params.clone())
            .schemes([SchemeChoice::Spider])
            .variant("without PCHs", 0.0, Overrides::default())
            .run(opts.workers);
        println!(
            "| without PCHs (source routing) | {:.3} | {} |",
            spider[0].stats.avg_latency_secs(),
            spider[0].stats.overhead_msgs
        );
        let omegas: &[f64] = if opts.quick {
            &[0.02, 0.2, 1.0]
        } else {
            &OMEGAS
        };
        let mut grid = ExperimentGrid::new(params).schemes([SchemeChoice::Splicer]);
        for &omega in omegas {
            grid = grid.variant(
                format!("Splicer ω={omega}"),
                omega,
                Overrides {
                    tuning: RunTuning {
                        omega: Some(omega),
                        ..RunTuning::default()
                    },
                    ..Overrides::default()
                },
            );
        }
        for r in grid.run(opts.workers) {
            println!(
                "| {} ({} hubs) | {:.3} | {} |",
                r.label,
                r.placement_hubs.unwrap_or(0),
                r.stats.avg_latency_secs(),
                r.stats.overhead_msgs
            );
        }
    }
}

/// Prints the candidate election's overlap with `scenario`'s candidate
/// list, once for the named world.
fn print_election(world: &str, scenario: &Scenario) {
    let overlap = SystemBuilder::new(scenario.clone()).voting_overlap();
    println!("\n## Candidate election ({world} scale)\n");
    println!("elected nodes on the candidate list: {overlap:.3}");
}
