//! The engine's per-event hot loop: full discrete-event runs on a
//! saturated hop-lock world, reported as payments/sec.
//!
//! Both regimes are **stress tests**, not headlines. Traffic concentrates
//! on a small pool of hotspot endpoint pairs (the
//! `ScenarioBuilder::hotspot` regime) over channels barely wider than one
//! max-size TU, so almost every hop lock contends — the "hot hop-lock
//! path" — and almost every payment fails. Each regime's TSR is recorded
//! in the baseline's `meta`. Path *planning* is served almost entirely by
//! the epoch-versioned cache, so the numbers measure the event loop
//! itself: TU state lookups, hop locks, queue pushes/drains, injection
//! pacing, settlement walks and the event scheduler. Two regimes over the
//! same world:
//!
//! * `spider_saturated` — rate-controlled Spider: windows, pacing,
//!   queues on dry directions and `QueueDrain` cascades.
//! * `blast_saturated`  — uncontrolled shortest-path blasting: the
//!   abort/refund unwinding path under the same load.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pcn_routing::channel::NetworkFunds;
use pcn_routing::engine::{Engine, EngineConfig};
use pcn_routing::scheme::SchemeConfig;
use pcn_routing::tu::Payment;
use pcn_sim::SimRng;
use pcn_types::{Amount, NodeId, SimDuration, SimTime, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const NODES: usize = 300;
const HOT_PAIRS: usize = 24;
const PAYMENTS: usize = 2_000;
const DURATION_SECS: u64 = 10;

fn world() -> (pcn_graph::Graph, NetworkFunds, Vec<Payment>) {
    let mut rng = StdRng::seed_from_u64(7);
    let g = pcn_graph::watts_strogatz(NODES, 6, 0.2, &mut rng);
    // Channels barely wider than one max-size TU: almost every hop lock
    // contends, queues build on dry directions and drains cascade.
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
    let pairs: Vec<(NodeId, NodeId)> = (0..HOT_PAIRS)
        .map(|_| {
            let a = rng.random_range(0..NODES);
            let mut b = rng.random_range(0..NODES);
            while b == a {
                b = rng.random_range(0..NODES);
            }
            (NodeId::from_index(a), NodeId::from_index(b))
        })
        .collect();
    let gap = SimDuration::from_micros(DURATION_SECS * 1_000_000 / PAYMENTS as u64);
    let timeout = SimDuration::from_secs(3);
    let payments = (0..PAYMENTS)
        .map(|i| {
            let (source, dest) = pairs[rng.random_range(0..HOT_PAIRS)];
            let created = SimTime::ZERO + gap.saturating_mul(i as u64);
            Payment {
                id: TxId::new(i as u64),
                source,
                dest,
                value: Amount::from_tokens(8),
                created,
                deadline: created + timeout,
            }
        })
        .collect();
    (g, funds, payments)
}

fn run_once(
    g: &pcn_graph::Graph,
    funds: &NetworkFunds,
    payments: &[Payment],
    scheme: SchemeConfig,
) -> pcn_routing::RunStats {
    Engine::new(
        g.clone(),
        funds.clone(),
        scheme,
        EngineConfig::default(),
        SimRng::seed(1),
    )
    .run(payments.to_vec())
}

fn bench_hot_loop(c: &mut Criterion) {
    let (g, funds, payments) = world();
    let mut group = c.benchmark_group("engine_hot_loop");
    group.sample_size(10);
    group.throughput(Throughput::Elements(PAYMENTS as u64));

    for (name, scheme) in [
        ("spider_saturated", SchemeConfig::spider()),
        ("blast_saturated", SchemeConfig::shortest_path()),
    ] {
        let tsr = run_once(&g, &funds, &payments, scheme.clone()).tsr();
        group.metadata(format!("{name}_tsr"), format!("{tsr:.3}"));
        group.bench_function(format!("{name}_{PAYMENTS}p_{NODES}n"), |b| {
            b.iter(|| black_box(run_once(&g, &funds, &payments, scheme.clone())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hot_loop);
criterion_main!(benches);
