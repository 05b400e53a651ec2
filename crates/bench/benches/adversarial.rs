//! Adversarial fault layer: cost when disabled, resilience when armed,
//! reported in `BENCH_adversarial.json`.
//!
//! Two guarded claims run before criterion times anything:
//!
//! * **Disabled overhead < 5%** — an engine built without ever calling
//!   `with_faults` and one handed the empty `FaultPlan` are the *same*
//!   execution (`with_faults` refuses to install an empty plan), so
//!   their stats must be bit-identical and their wall clocks must agree
//!   within 5% on the median of 63 interleaved pair ratios — the honest
//!   hot path pays nothing for the fault layer's existence.
//! * **Honest-traffic floor under griefing** — with 10% of the clients
//!   griefing (5 s holds, past the 3 s TU timeout), Splicer's honest
//!   traffic must keep a TSR above 0.75 (measured ≈ 0.97 on the pinned
//!   seed): griefers burn their own throughput, not the network's.
//!
//! The timed group then measures the honest engine, the empty-plan
//! engine (identical by construction), and a griefed run on the same
//! world, as payments/sec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pcn_harness::run_spec;
use pcn_routing::channel::NetworkFunds;
use pcn_routing::engine::{Engine, EngineConfig};
use pcn_routing::scheme::SchemeConfig;
use pcn_routing::tu::Payment;
use pcn_routing::FaultPlan;
use pcn_sim::SimRng;
use pcn_types::{Amount, NodeId, SimDuration, SimTime, TxId};
use pcn_workload::{ScenarioBuilder, SchemeChoice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 300;
const PAYMENTS: usize = 2_000;
const DURATION_SECS: u64 = 10;
const MAX_DISABLED_OVERHEAD: f64 = 0.05;
/// Timed pairs of the disabled-overhead guard, one run per arm each
/// (odd, so the median is one pair's ratio).
const TIMING_PAIRS: usize = 63;
const HONEST_TSR_FLOOR: f64 = 0.75;

fn world() -> (pcn_graph::Graph, NetworkFunds, Vec<Payment>) {
    let mut rng = StdRng::seed_from_u64(11);
    let g = pcn_graph::watts_strogatz(NODES, 6, 0.2, &mut rng);
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(30));
    let gap = SimDuration::from_micros(DURATION_SECS * 1_000_000 / PAYMENTS as u64);
    let timeout = SimDuration::from_secs(3);
    let payments = (0..PAYMENTS)
        .map(|i| {
            let a = rng.random_range(0..NODES);
            let mut b = rng.random_range(0..NODES);
            while b == a {
                b = rng.random_range(0..NODES);
            }
            let created = SimTime::ZERO + gap.saturating_mul(i as u64);
            Payment {
                id: TxId::new(i as u64),
                source: NodeId::from_index(a),
                dest: NodeId::from_index(b),
                value: Amount::from_tokens(8),
                created,
                deadline: created + timeout,
            }
        })
        .collect();
    (g, funds, payments)
}

/// Every 10th transaction griefs, holding its locks for 5 s — past the
/// 3 s TU timeout, so every griefed lock times out and refunds.
fn griefer_plan() -> FaultPlan {
    FaultPlan {
        salt: 0x5eed,
        griefer_txs: (0..PAYMENTS as u64).step_by(10).map(TxId::new).collect(),
        griefer_hold: SimDuration::from_secs(5),
        ..FaultPlan::default()
    }
}

fn run_once(
    g: &pcn_graph::Graph,
    funds: &NetworkFunds,
    payments: &[Payment],
    plan: Option<FaultPlan>,
) -> pcn_routing::RunStats {
    let engine = Engine::new(
        g.clone(),
        funds.clone(),
        SchemeConfig::shortest_path(),
        EngineConfig::default(),
        SimRng::seed(1),
    );
    let engine = match plan {
        Some(p) => engine.with_faults(p),
        None => engine,
    };
    engine.run(payments.to_vec())
}

/// Pre-timing guards; returns the measured disabled-layer overhead so
/// the committed baseline records it.
fn assert_fault_layer_is_free_when_off(
    g: &pcn_graph::Graph,
    funds: &NetworkFunds,
    payments: &[Payment],
) -> f64 {
    // Semantics first: no call ≡ empty plan, bit for bit.
    let no_call = run_once(g, funds, payments, None);
    let empty = run_once(g, funds, payments, Some(FaultPlan::default()));
    assert_eq!(no_call.generated, PAYMENTS as u64);
    assert!(no_call.is_consistent(), "bookkeeping drifted: {no_call}");
    assert_eq!(
        no_call, empty,
        "an empty FaultPlan must be the honest execution, bit for bit"
    );
    assert_eq!(empty.faults_injected, 0);
    // Wall clock: both arms run the same machine code, so the measured
    // gap is pure noise — the bar catches any future change that puts
    // real work on the None path. Each pair times one run of each arm
    // back to back, alternating which goes first, so drift, frequency
    // scaling and cache state hit both alike; the median pair ratio
    // ignores the pairs a stall landed in.
    let sample = |empty_plan: bool| {
        let start = Instant::now();
        black_box(run_once(
            g,
            funds,
            payments,
            empty_plan.then(FaultPlan::default),
        ));
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..TIMING_PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let base = sample(false);
                sample(true) / base
            } else {
                let off = sample(true);
                off / sample(false)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let (low, ratio, high) = (
        ratios[0],
        ratios[TIMING_PAIRS / 2],
        ratios[TIMING_PAIRS - 1],
    );
    let overhead = ratio - 1.0;
    let report = format!(
        "median empty-plan / no-call ratio {ratio:.3} over {TIMING_PAIRS} pairs \
         (range {low:.3}–{high:.3})"
    );
    eprintln!("disabled fault layer: {report}");
    assert!(
        overhead < MAX_DISABLED_OVERHEAD,
        "disabled fault layer costs {:.1}% (> {:.0}% bar): {report}",
        overhead * 100.0,
        MAX_DISABLED_OVERHEAD * 100.0
    );
    overhead
}

/// Returns Splicer's honest TSR under 10% griefers (asserted ≥ floor).
fn assert_honest_traffic_survives_griefing() -> f64 {
    let spec = ScenarioBuilder::tiny()
        .griefers(0.1, 5_000)
        .scheme(SchemeChoice::Splicer)
        .seed(7)
        .build();
    let outcome = run_spec(&spec);
    let s = &outcome.report.stats;
    assert!(
        s.griefed_locks > 0,
        "the griefer population must actually grief"
    );
    let honest = s.honest_tsr();
    assert!(
        honest >= HONEST_TSR_FLOOR,
        "honest TSR {honest:.3} under 10% griefers fell below the \
         {HONEST_TSR_FLOOR} floor"
    );
    honest
}

fn bench_adversarial(c: &mut Criterion) {
    let (g, funds, payments) = world();
    let overhead = assert_fault_layer_is_free_when_off(&g, &funds, &payments);
    let honest_tsr = assert_honest_traffic_survives_griefing();
    let mut group = c.benchmark_group("adversarial");
    group.sample_size(10);
    group.throughput(Throughput::Elements(PAYMENTS as u64));
    group.metadata("disabled_overhead_pct", format!("{:.2}", overhead * 100.0));
    group.metadata(
        "splicer_honest_tsr_10pct_griefers",
        format!("{honest_tsr:.3}"),
    );
    group.bench_function(format!("honest_{PAYMENTS}p_{NODES}n"), |b| {
        b.iter(|| black_box(run_once(&g, &funds, &payments, None)))
    });
    group.bench_function(format!("empty_plan_{PAYMENTS}p_{NODES}n"), |b| {
        b.iter(|| black_box(run_once(&g, &funds, &payments, Some(FaultPlan::default()))))
    });
    group.bench_function(format!("griefed_10pct_{PAYMENTS}p_{NODES}n"), |b| {
        b.iter(|| black_box(run_once(&g, &funds, &payments, Some(griefer_plan()))))
    });
    group.finish();
}

criterion_group!(benches, bench_adversarial);
criterion_main!(benches);
