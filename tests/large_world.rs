//! Large-world smoke test: a 100k-node, ~800k-channel hotspot world must
//! build and route end-to-end on the CSR graph core.
//!
//! `#[ignore]`d: this is a release-mode scale gate, not a unit test. CI
//! runs it explicitly via `cargo test --release -- --ignored large_world`.
//! The routing gate drives the [`Engine`] directly on a constructed
//! 2k-payment hotspot trace (the graph-scale question is the engine's
//! event loop and searches over the CSR adjacency, not harness
//! scaffolding, which would dominate the wall clock at this size).

use pcn_graph::{watts_strogatz, Graph};
use pcn_routing::channel::NetworkFunds;
use pcn_routing::engine::{Engine, EngineConfig};
use pcn_routing::scheme::{ComputeModel, SchemeConfig};
use pcn_routing::tu::Payment;
use pcn_sim::SimRng;
use pcn_types::{Amount, NodeId, SimDuration, SimTime, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 100_000;
const DEGREE: usize = 16;
const PAYMENTS: usize = 2_000;
const HOT_PAIRS: usize = 64;
const DURATION_SECS: u64 = 20;

/// WS(100k, 16) — ~800k channels.
fn large_graph() -> Graph {
    watts_strogatz(NODES, DEGREE, 0.3, &mut StdRng::seed_from_u64(7))
}

/// 2k payments over 20 s between 64 hotspot pairs.
fn hotspot_payments(rng: &mut StdRng) -> Vec<Payment> {
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
    let timeout = SimDuration::from_secs(5);
    (0..PAYMENTS)
        .map(|i| {
            let (source, dest) = pairs[rng.random_range(0..HOT_PAIRS)];
            let created = SimTime::ZERO + gap.saturating_mul(i as u64);
            Payment {
                id: TxId::new(i as u64),
                source,
                dest,
                value: Amount::from_tokens(4),
                created,
                deadline: created + timeout,
            }
        })
        .collect()
}

#[test]
#[ignore = "release-mode scale gate; run with --release -- --ignored"]
fn large_world_builds_within_memory_budget() {
    if cfg!(debug_assertions) {
        eprintln!("skipping 100k-node build in a debug binary");
        return;
    }
    let g = large_graph();
    assert_eq!(g.node_count(), NODES);
    assert!(
        g.edge_count() >= 790_000,
        "WS(100k, 16) should land near 800k channels, got {}",
        g.edge_count()
    );
    let stats = g.adjacency_stats();
    assert_eq!(
        stats.entry_bytes, 8,
        "CSR adjacency entries must stay 8 bytes"
    );
    // ≤ 16 bytes per neighbour entry, counting offsets against the total.
    let entries = stats.csr_entries + stats.delta_entries;
    let bytes = stats.entry_total_bytes() + stats.offset_bytes;
    assert!(
        bytes <= 16 * entries,
        "adjacency spends {bytes} bytes over {entries} entries"
    );
    // Fresh builds are pure CSR: nothing in the overlay, no tombstones.
    assert_eq!(stats.delta_entries, 0);
    assert_eq!(stats.flagged_entries, 0);
}

#[test]
#[ignore = "release-mode scale gate; run with --release -- --ignored"]
fn large_world_routes_end_to_end() {
    if cfg!(debug_assertions) {
        eprintln!("skipping 100k-node engine run in a debug binary");
        return;
    }
    let g = large_graph();
    // Each hotspot pair pushes ~125 tokens through one capacity-only
    // path over the run; channels need headroom for that cumulative
    // one-directional drain.
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(500));
    let payments = hotspot_payments(&mut StdRng::seed_from_u64(11));
    // Zero the simulated compute model: at 800k channels the paper's
    // client-compute cost (30 µs/edge, §III-C — the wall that motivates
    // hubs) exceeds any deadline; this gate checks that routing itself
    // works end to end at scale.
    let scheme = SchemeConfig {
        compute: ComputeModel {
            client_secs_per_edge: 0.0,
            hub_secs_per_edge: 0.0,
            crypto_overhead: SimDuration::ZERO,
        },
        ..SchemeConfig::shortest_path()
    };
    let stats =
        Engine::new(g, funds, scheme, EngineConfig::default(), SimRng::seed(1)).run(payments);
    assert_eq!(stats.generated, PAYMENTS as u64);
    assert!(stats.is_consistent(), "bookkeeping drifted: {stats}");
    assert!(
        stats.completed_value <= stats.generated_value,
        "value conservation: completed {} exceeds generated {}",
        stats.completed_value,
        stats.generated_value
    );
    assert!(
        stats.tsr() > 0.5,
        "a static 100k world should complete most payments, got {stats}"
    );
}
