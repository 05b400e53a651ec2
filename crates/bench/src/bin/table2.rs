//! Regenerates Table II: the influence of routing choices on Splicer's TSR.
//!
//! Usage: `cargo run --release -p splicer-bench --bin table2 -- [--quick] [--seed N] [--workers N]`
//!
//! Three ablations at both scales: path type {KSP, Heuristic, EDW, EDS},
//! path count {1, 3, 5, 7} and queue scheduler {FIFO, LIFO, SPF, EDF}.
//! All twelve rows per scale form one experiment grid
//! ([`splicer_bench::table2_grid`]) and run in parallel.

use splicer_bench::{table2_grid, HarnessOpts, Scale};

fn main() {
    let (opts, _) = HarnessOpts::from_args();
    println!("# Table II: influence of routing choices on Splicer (TSR)");
    println!("(capacity-stressed configuration: channel scale 0.5, lean hub");
    println!("funding, ω = 0.01 — routing choices only differentiate when the");
    println!("hub backbone itself is a bottleneck)");
    for scale in [Scale::Small, Scale::Large] {
        let name = match scale {
            Scale::Small => "Small",
            Scale::Large => "Large",
        };
        let results = table2_grid(&opts, scale).run(opts.workers);
        let tsr_row = |range: std::ops::Range<usize>| {
            let mut row = String::from("|");
            for r in &results[range] {
                row.push_str(&format!(" {:.2}% |", r.stats.tsr() * 100.0));
            }
            row
        };

        println!("\n## {name} scale — path type\n");
        println!("| KSP | Heuristic | EDW | EDS |");
        println!("|---|---|---|---|");
        println!("{}", tsr_row(0..4));

        println!("\n## {name} scale — path number (EDW)\n");
        println!("| 1 | 3 | 5 | 7 |");
        println!("|---|---|---|---|");
        println!("{}", tsr_row(4..8));

        println!("\n## {name} scale — scheduling algorithm\n");
        println!("| FIFO | LIFO | SPF | EDF |");
        println!("|---|---|---|---|");
        println!("{}", tsr_row(8..12));
    }
}
