//! End-to-end simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <fig7_grid|fig8_large|churn_dynamic> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the workload repeats untraced rounds until `--seconds`
//! have passed (at least three) and reports the end-to-end metrics. With
//! `--trace 1` it runs an untraced warm-up round, a traced round and an
//! untraced round, and reports the per-layer metrics of the traced one,
//! writing the spans under `e2ebench/out/`. The last
//! line of standard output is one JSON object; the line before it names
//! the run (digest, host, build). See README.md for the workloads and
//! what each metric predicts.

#![forbid(unsafe_code)]

mod report;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{check, digest, end_to_end, peak_rss_mb, per_layer, Metric};
use trace::Tracer;
use workload::{run_round, Plan, Round, Timing, Workload};

/// Untraced rounds a run takes at least, so every host time is a median.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 40, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is one of {names:?}"))?,
        seed,
        seconds,
        trace,
    })
}

/// Commit of the checkout, read from `.git` without running git, so the
/// benchmark reads nothing outside its checkout.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Payments attempted and failed in `round`, and each failed run named.
/// A run that fails a check counts all of its payments as failed.
fn tally(round: &Round) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed, mut named) = (0, 0, Vec::new());
    for run in &round.runs {
        attempted += run.expected;
        if let Err(why) = check(run) {
            failed += run.expected;
            named.push(format!("{}: {why}", run.label));
        }
    }
    (attempted, failed, named)
}

/// Rounds folded in as they finish, so an untraced run keeps only its
/// first round's runs and its peak memory does not grow with the number
/// of rounds that fit in `--seconds`.
#[derive(Default)]
struct Outcome {
    timings: Vec<Timing>,
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn add(&mut self, round: &Round) {
        let i = self.timings.len();
        let timing = round.timing();
        eprintln!(
            "e2ebench: round {i}: wall {:.3} s, set-up {:.3} s",
            timing.wall_s, timing.setup_s
        );
        let (attempted, failed, named) = tally(round);
        self.attempted += attempted;
        self.failed += failed;
        self.problems
            .extend(named.into_iter().map(|n| format!("round {i}: {n}")));
        self.digests.push(digest(&round.runs));
        self.timings.push(timing);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = Plan::new(args.workload, args.seed, false, nproc.min(2));
    let mut tr = Tracer::default();
    let mut out = Outcome::default();
    let started = Instant::now();
    let first = run_round(&plan, &mut tr, false);
    let mut slowest = started.elapsed();
    out.add(&first);
    let metrics = if args.trace {
        // The first round only warms the process up: the overhead is the
        // traced round against the untraced round after it, both warm.
        let traced = run_round(&plan, &mut tr, true);
        out.add(&traced);
        let after = run_round(&plan, &mut tr, false);
        out.add(&after);
        per_layer(&after, &traced)
    } else {
        // Another round starts only if one more of the slowest so far
        // still ends within the budget, so a run overshoots `--seconds`
        // only to reach `MIN_ROUNDS`.
        let budget = Duration::from_secs(args.seconds);
        while out.timings.len() < MIN_ROUNDS || started.elapsed() + slowest <= budget {
            let t = Instant::now();
            out.add(&run_round(&plan, &mut tr, false));
            slowest = slowest.max(t.elapsed());
        }
        end_to_end(&first, &out.timings, peak_rss_mb())
    };

    let mut problems = std::mem::take(&mut out.problems);
    if out.digests.iter().any(|&d| d != out.digests[0]) {
        problems.push(format!("rounds disagree on the digest: {:x?}", out.digests));
    }
    let spans_file = args.trace.then(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans_{}_seed{}.jsonl",
                args.workload.name(),
                args.seed
            ))
    });
    if let Some(path) = &spans_file {
        if let Err(e) = tr.write_jsonl(path) {
            problems.push(format!("writing spans to {}: {e}", path.display()));
        }
    }
    for p in &problems {
        eprintln!("e2ebench: {p}");
    }
    let named: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"rounds\": {}, \"digest\": \"{:016x}\", \
         \"nproc\": {nproc}, \"harness_workers\": {}, \"profile\": {}, \"commit\": {}, \
         \"spans\": {}, \"problems\": [{}]}}",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        out.timings.len(),
        out.digests[0],
        plan.workers(),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&commit()),
        spans_file.map_or("null".into(), |p| json_str(&p.display().to_string())),
        named.join(", "),
    );
    println!(
        "{}",
        result_json(problems.is_empty(), out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Plan;

    fn tiny(w: Workload, seed: u64, workers: usize) -> Plan {
        Plan::new(w, seed, true, workers)
    }

    /// `(name, unit)` pairs declared in one section of BENCHMARK.json,
    /// which keeps one metric object per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let field = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        section
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        let spec = include_str!("../../BENCHMARK.json");
        let (head, layers) = spec.split_at(spec.find("\"per_layer\"").expect("per_layer"));
        let e2e = &head[head.find("\"end_to_end\"").expect("end_to_end")..];
        for w in Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
            let plan = tiny(w, 3, 2);
            let mut tr = Tracer::default();
            let untraced = run_round(&plan, &mut tr, false);
            let traced = run_round(&plan, &mut tr, true);
            for (emitted, want) in [
                (
                    end_to_end(&untraced, &[untraced.timing()], 1.0),
                    declared(e2e),
                ),
                (per_layer(&untraced, &traced), declared(layers)),
            ] {
                assert!(emitted.iter().all(|m| m.value.is_finite()), "{emitted:?}");
                let got: Vec<(String, String)> = emitted
                    .into_iter()
                    .map(|m| (m.name, m.unit.to_string()))
                    .collect();
                assert_eq!(got, want, "{}", w.name());
            }
        }
    }

    #[test]
    fn inconsistent_run_counts_all_its_payments_as_failed() {
        let mut tr = Tracer::default();
        let mut round = run_round(&tiny(Workload::Fig8Large, 3, 1), &mut tr, false);
        let (attempted, failed, named) = tally(&round);
        assert!(attempted > 0);
        assert_eq!(failed, 0, "{named:?}");
        let bad = &mut round.runs[1];
        bad.stats.completed = bad.stats.generated + 1;
        let (expected, label) = (bad.expected, bad.label.clone());
        let (again, failed, named) = tally(&round);
        assert_eq!(again, attempted);
        assert_eq!(failed, expected);
        assert_eq!(named.len(), 1);
        assert!(named[0].contains(&label), "{named:?}");
    }

    #[test]
    fn digest_repeats_across_runs_and_harness_workers() {
        let digest_of = |seed, workers| {
            let mut tr = Tracer::default();
            digest(&run_round(&tiny(Workload::Fig7Grid, seed, workers), &mut tr, false).runs)
        };
        let one = digest_of(3, 1);
        assert_eq!(one, digest_of(3, 1), "two runs");
        assert_eq!(one, digest_of(3, 2), "1 vs 2 harness workers");
        assert_ne!(one, digest_of(4, 2), "the seed reaches the inputs");
    }

    #[test]
    fn args_parse_with_defaults_and_reject_junk() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload churn_dynamic").expect("defaults");
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Workload::ChurnDynamic, 1, false)
        );
        let a = parse("--workload fig7_grid --seed 9 --seconds 5 --trace 1").expect("all");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 5, true));
        for junk in [
            "",
            "--workload nope",
            "--workload fig7_grid --trace 2",
            "--seed",
        ] {
            assert!(parse(junk).is_err(), "{junk}");
        }
    }
}
