//! Integration: the Fig. 1 deadlock phenomenon and global fund safety.

use pcn_routing::channel::NetworkFunds;
use pcn_routing::engine::{payments_from_tuples, Engine, EngineConfig};
use pcn_routing::SchemeConfig;
use pcn_sim::SimRng;
use pcn_types::{Amount, NodeId, SimDuration};

fn fig1_world() -> (pcn_graph::Graph, NetworkFunds) {
    let mut g = pcn_graph::Graph::new(3);
    g.add_edge(NodeId::new(0), NodeId::new(2)); // A–C
    g.add_edge(NodeId::new(2), NodeId::new(1)); // C–B
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
    (g, funds)
}

fn one_way_load() -> Vec<pcn_routing::tu::Payment> {
    let tuples: Vec<(u64, u32, u32, u64)> = (0..40).map(|i| (i * 400, 0, 1, 2)).collect();
    payments_from_tuples(&tuples, SimDuration::from_secs(3))
}

#[test]
fn naive_routing_deadlocks_the_relay() {
    let (g, funds) = fig1_world();
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::shortest_path(),
        EngineConfig::default(),
        SimRng::seed(1),
    )
    .run(one_way_load());
    assert!(stats.failed > 0, "one-way flow must exhaust C→B: {stats}");
    assert!(
        stats.drained_directions_end > 0,
        "a drained direction is the deadlock symptom"
    );
}

#[test]
fn rate_control_completes_at_least_as_much() {
    let (g, funds) = fig1_world();
    let naive = Engine::new(
        g.clone(),
        funds.clone(),
        SchemeConfig::shortest_path(),
        EngineConfig::default(),
        SimRng::seed(1),
    )
    .run(one_way_load());
    let spider = Engine::new(
        g,
        funds,
        SchemeConfig::spider(),
        EngineConfig::default(),
        SimRng::seed(1),
    )
    .run(one_way_load());
    assert!(spider.completed >= naive.completed);
}

#[test]
fn no_funds_are_created_or_destroyed() {
    // Heavier mixed workload on a ring; conservation is debug-asserted
    // inside the engine on every operation and at the end of the run, so
    // simply completing the run in a debug-profile test is the assertion.
    let mut g = pcn_graph::Graph::new(6);
    for i in 0..6u32 {
        g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 6));
    }
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(30));
    let tuples: Vec<(u64, u32, u32, u64)> = (0..120)
        .map(|i| (i * 80, (i % 6) as u32, ((i + 3) % 6) as u32, 1 + (i % 5)))
        .collect();
    let payments = payments_from_tuples(&tuples, SimDuration::from_secs(3));
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::spider(),
        EngineConfig::default(),
        SimRng::seed(4),
    )
    .run(payments);
    assert!(stats.is_consistent());
    assert_eq!(stats.generated, 120);
}

#[test]
fn dynamic_world_conserves_value_under_churn_and_outage() {
    // The dynamic-world conservation bar: under heavy traffic with
    // channels closing/opening every 500 ms, a hub outage and a
    // rebalance, every expired in-flight TU must refund its locked hops
    // (conservation is debug-asserted inside the engine on every
    // movement and at the end of the run) and the books must balance.
    // Per-channel lock hygiene for closures is pinned by the engine's
    // own `world` unit tests; this exercises the full mixed load.
    use pcn_routing::world::WorldEvent;
    use pcn_types::SimTime;

    let mut g = pcn_graph::Graph::new(8);
    for i in 0..8u32 {
        g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 8));
        g.add_edge(NodeId::new(i), NodeId::new((i + 3) % 8));
    }
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(12));
    let ms = |m: u64| SimTime::from_micros(m * 1000);
    let mut timeline = Vec::new();
    for k in 1..=16u64 {
        timeline.push(WorldEvent::ChannelClose {
            at: ms(k * 500),
            selector: k.wrapping_mul(0x9e3779b97f4a7c15),
        });
        timeline.push(WorldEvent::ChannelOpen {
            at: ms(k * 500),
            a_sel: k.wrapping_mul(31),
            b_sel: k.wrapping_mul(57) + 1,
            funds_per_side: Amount::from_tokens(12),
        });
    }
    timeline.push(WorldEvent::HubOutage {
        at: ms(2_000),
        hub_rank: 0,
        recover_at: ms(5_000),
    });
    timeline.push(WorldEvent::Rebalance { at: ms(4_000) });
    timeline.sort_by_key(WorldEvent::at);
    let events = timeline.len() as u64;
    let tuples: Vec<(u64, u32, u32, u64)> = (0..400)
        .map(|i| (i * 20, (i % 8) as u32, ((i + 4) % 8) as u32, 1 + (i % 6)))
        .collect();
    let payments = payments_from_tuples(&tuples, SimDuration::from_secs(3));
    for scheme in [SchemeConfig::spider(), SchemeConfig::shortest_path()] {
        let stats = Engine::new(
            g.clone(),
            funds.clone(),
            scheme.clone(),
            EngineConfig::default(),
            SimRng::seed(7),
        )
        .with_timeline(timeline.clone())
        .run(payments.clone());
        assert!(stats.is_consistent());
        assert_eq!(stats.generated, 400);
        assert_eq!(
            stats.world_events_applied,
            events + 1,
            "{}: every event plus the outage recovery must apply",
            scheme.name
        );
        assert!(
            stats.tus_expired_by_close > 0,
            "{}: 2 closures/sec under 20 ms arrivals must catch TUs in flight: {stats}",
            scheme.name
        );
    }
}

#[test]
fn queue_capacity_bounds_are_respected_under_overload() {
    // A 1-token channel bombarded with payments: queues must bound, TUs
    // must abort, and the run must still terminate cleanly.
    let mut g = pcn_graph::Graph::new(2);
    g.add_edge(NodeId::new(0), NodeId::new(1));
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(1));
    let tuples: Vec<(u64, u32, u32, u64)> = (0..200).map(|i| (i * 5, 0, 1, 2)).collect();
    let payments = payments_from_tuples(&tuples, SimDuration::from_secs(3));
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::spider(),
        EngineConfig::default(),
        SimRng::seed(5),
    )
    .run(payments);
    assert!(stats.failed > 0);
    assert!(stats.is_consistent());
}
