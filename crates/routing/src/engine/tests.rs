//! Whole-engine behavioural tests: every scheme end to end on small
//! topologies. Submodule-level unit tests live next to their layer
//! (`arrivals`, `lifecycle`, `control`).

use super::*;
use crate::scheme::SchemeConfig;
use std::collections::BTreeMap;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Line topology 0-1-2-3 with healthy funds.
fn line_setup() -> (Graph, NetworkFunds) {
    let mut g = Graph::new(4);
    for i in 0..3 {
        g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
    }
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
    (g, funds)
}

fn run_scheme(scheme: SchemeConfig, payments: Vec<Payment>) -> RunStats {
    let (g, funds) = line_setup();
    let engine = Engine::new(g, funds, scheme, EngineConfig::default(), SimRng::seed(1));
    engine.run(payments)
}

#[test]
fn single_payment_completes_spider() {
    let payments = payments_from_tuples(&[(0, 0, 3, 5)], SimDuration::from_secs(3));
    let stats = run_scheme(SchemeConfig::spider(), payments);
    assert_eq!(stats.generated, 1);
    assert_eq!(stats.completed, 1, "{stats}");
    assert_eq!(stats.completed_value, Amount::from_tokens(5));
    assert!(stats.avg_latency_secs() > 0.0);
    assert_eq!(stats.tsr(), 1.0);
}

#[test]
fn single_payment_completes_shortest_path() {
    let payments = payments_from_tuples(&[(0, 0, 3, 5)], SimDuration::from_secs(3));
    let stats = run_scheme(SchemeConfig::shortest_path(), payments);
    assert_eq!(stats.completed, 1, "{stats}");
}

#[test]
fn oversized_payment_fails_without_control() {
    // 300 tokens through 100-token channels: single-path schemes die.
    let payments = payments_from_tuples(&[(0, 0, 3, 300)], SimDuration::from_secs(3));
    let stats = run_scheme(SchemeConfig::shortest_path(), payments);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.failed, 1);
}

#[test]
fn funds_conserved_after_run() {
    let (g, funds) = line_setup();
    let grand = funds.grand_total();
    let payments = payments_from_tuples(
        &[(0, 0, 3, 5), (100, 3, 0, 4), (200, 1, 3, 6)],
        SimDuration::from_secs(3),
    );
    let engine = Engine::new(
        g,
        funds,
        SchemeConfig::spider(),
        EngineConfig::default(),
        SimRng::seed(2),
    );
    // run consumes the engine; conservation is debug-asserted inside,
    // and we re-check via stats consistency.
    let stats = engine.run(payments);
    assert!(stats.is_consistent());
    let _ = grand;
}

#[test]
fn unroutable_payment_counted() {
    let mut g = Graph::new(3);
    g.add_edge(n(0), n(1)); // node 2 isolated
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
    let payments = payments_from_tuples(&[(0, 0, 2, 1)], SimDuration::from_secs(3));
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::spider(),
        EngineConfig::default(),
        SimRng::seed(3),
    )
    .run(payments);
    assert_eq!(stats.unroutable, 1);
    assert_eq!(stats.failed, 1);
}

#[test]
fn splicer_hub_routing_on_multi_star() {
    // clients 0,1 → hub 4; clients 2,3 → hub 5; hubs linked.
    let mut g = Graph::new(6);
    g.add_edge(n(0), n(4));
    g.add_edge(n(1), n(4));
    g.add_edge(n(2), n(5));
    g.add_edge(n(3), n(5));
    g.add_edge(n(4), n(5));
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(100));
    let assignment: BTreeMap<NodeId, NodeId> =
        [(n(0), n(4)), (n(1), n(4)), (n(2), n(5)), (n(3), n(5))]
            .into_iter()
            .collect();
    let payments = payments_from_tuples(
        &[(0, 0, 2, 5), (50, 1, 3, 3), (100, 0, 1, 2)],
        SimDuration::from_secs(3),
    );
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::splicer(assignment),
        EngineConfig::default(),
        SimRng::seed(4),
    )
    .run(payments);
    assert_eq!(stats.completed, 3, "{stats}");
}

#[test]
fn a2l_star_routes_through_hub() {
    let g = pcn_graph::star(5); // hub 0
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(50));
    let payments = payments_from_tuples(&[(0, 1, 2, 5), (10, 3, 4, 5)], SimDuration::from_secs(3));
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::a2l(n(0), SimDuration::from_millis(5)),
        EngineConfig::default(),
        SimRng::seed(5),
    )
    .run(payments);
    assert_eq!(stats.completed, 2, "{stats}");
}

#[test]
fn a2l_hub_compute_queue_delays_under_load() {
    // Many simultaneous payments through one hub with heavy crypto:
    // the hub CPU serializes them past their deadlines.
    let g = pcn_graph::star(30);
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(1_000));
    let tuples: Vec<(u64, u32, u32, u64)> = (0..60)
        .map(|i| (i, 1 + (i as u32 % 29), 1 + ((i as u32 + 1) % 29), 2))
        .collect();
    let payments = payments_from_tuples(&tuples, SimDuration::from_secs(3));
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::a2l(n(0), SimDuration::from_millis(200)),
        EngineConfig::default(),
        SimRng::seed(6),
    )
    .run(payments);
    assert!(stats.failed > 0, "hub saturation must fail some: {stats}");
}

#[test]
fn landmark_routing_works() {
    let (g, funds) = line_setup();
    let payments = payments_from_tuples(&[(0, 0, 3, 4)], SimDuration::from_secs(3));
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::landmark(vec![n(1), n(2)]),
        EngineConfig::default(),
        SimRng::seed(7),
    )
    .run(payments);
    assert_eq!(stats.completed, 1, "{stats}");
}

#[test]
fn flash_elephant_and_mouse() {
    let mut g = Graph::new(4);
    g.add_edge(n(0), n(1));
    g.add_edge(n(1), n(3));
    g.add_edge(n(0), n(2));
    g.add_edge(n(2), n(3));
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(50));
    let payments =
        payments_from_tuples(&[(0, 0, 3, 60), (500, 0, 3, 2)], SimDuration::from_secs(3));
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::flash(Amount::from_tokens(20)),
        EngineConfig::default(),
        SimRng::seed(8),
    )
    .run(payments);
    // The 60-token elephant splits over both 50-token routes; the
    // mouse follows a precomputed path.
    assert_eq!(stats.completed, 2, "{stats}");
}

#[test]
fn deadlock_demo_naive_vs_rate_control() {
    // Fig. 1: A=0, C=2, B=1. A→B and C→B flows plus B→A, with C's
    // outbound funds tiny: naive routing drains C and collapses.
    let mut g = Graph::new(3);
    g.add_edge(n(0), n(2)); // A-C
    g.add_edge(n(2), n(1)); // C-B
    let funds = NetworkFunds::from_graph(&g, |_, _| Amount::from_tokens(10));
    let mut tuples = Vec::new();
    // Heavy one-directional load A→B (via C) for 20 seconds.
    for i in 0..40u64 {
        tuples.push((i * 250, 0u32, 1u32, 2u64));
    }
    let payments = payments_from_tuples(&tuples, SimDuration::from_secs(3));
    let naive = Engine::new(
        g.clone(),
        funds.clone(),
        SchemeConfig::shortest_path(),
        EngineConfig::default(),
        SimRng::seed(9),
    )
    .run(payments.clone());
    // One-way flow must exhaust the C→B direction under naive routing.
    assert!(naive.failed > 0, "naive should deadlock: {naive}");
    assert!(naive.drained_directions_end > 0);
    // Rate-controlled Spider queues and paces instead of failing
    // everything, completing at least as much.
    let spider = Engine::new(
        g,
        funds,
        SchemeConfig::spider(),
        EngineConfig::default(),
        SimRng::seed(9),
    )
    .run(payments);
    assert!(
        spider.completed >= naive.completed,
        "spider {spider} vs naive {naive}"
    );
}

#[test]
fn deterministic_across_runs() {
    let payments = payments_from_tuples(
        &[(0, 0, 3, 5), (100, 3, 0, 4), (150, 1, 2, 7)],
        SimDuration::from_secs(3),
    );
    let run = |seed| {
        let (g, funds) = line_setup();
        Engine::new(
            g,
            funds,
            SchemeConfig::spider(),
            EngineConfig::default(),
            SimRng::seed(seed),
        )
        .run(payments.clone())
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.overhead_msgs, b.overhead_msgs);
    assert_eq!(a.aborted_tus, b.aborted_tus);
}

/// Thread-local allocation counter installed as the test binary's global
/// allocator. Counting per-thread keeps concurrently running tests from
/// polluting each other's measurements.
#[allow(unsafe_code)]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    struct Counting;

    // SAFETY: pure pass-through to `System`; the only addition is a
    // non-allocating bump of a const-initialized thread-local counter.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
            unsafe { System.alloc(layout) }
        }

        // SAFETY: delegates to `System` under the caller's own contract
        // (ptr was allocated by this allocator with this layout).
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: same ptr/layout pair the caller guarantees.
            unsafe { System.dealloc(ptr, layout) }
        }

        // SAFETY: delegates to `System` under the caller's own contract.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            // SAFETY: same ptr/layout/new_size the caller guarantees.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    /// Allocations made by the current thread so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.with(|c| c.get())
    }
}

/// The per-event hot path performs **zero steady-state allocations**:
/// once every payment is admitted and its flow set up (admission
/// allocates by design — backlog, controllers, plan), the remaining TU
/// lifecycle — injection pacing, parks and wakes, hop locks, queue
/// pushes/drains, settlement walks, aborts/refunds, price ticks — runs
/// to completion without a single heap allocation, measured by a
/// counting global allocator.
///
/// Warm structures are pre-sized the way a long-running engine's would
/// be (the calendar ring warms naturally once it wraps, ~4.2 s of sim
/// time; this test's horizon is shorter, so it pre-warms explicitly).
#[test]
fn hot_loop_steady_state_is_allocation_free() {
    // Four disjoint saturated lines: 40-token payments split into 10 TUs
    // each through 10-token channels — hop locks contend, queues build
    // and drain, paths park and wake.
    const LINES: usize = 4;
    let mut g = Graph::new(4 * LINES);
    for line in 0..LINES {
        for i in 0..3 {
            g.add_edge(
                NodeId::from_index(4 * line + i),
                NodeId::from_index(4 * line + i + 1),
            );
        }
    }
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
    // All payments arrive in the first 200 ms from distinct endpoints;
    // their TU traffic then churns for ~5 s.
    let tuples: Vec<(u64, u32, u32, u64)> = (0..96 * LINES as u64)
        .map(|i| {
            let (s, d) = match (i / LINES as u64) % 4 {
                0 => (0, 3),
                1 => (3, 0),
                2 => (1, 3),
                _ => (2, 0),
            };
            let base = 4 * (i % LINES as u64) as u32;
            (i / LINES as u64 * 2, base + s, base + d, 40)
        })
        .collect();
    let payments = payments_from_tuples(&tuples, SimDuration::from_secs(5));
    let mut engine = Engine::new(
        g,
        funds,
        SchemeConfig::spider(),
        EngineConfig::default(),
        SimRng::seed(11),
    );
    // Start as `Engine::run` does, but drive the loop in place so the
    // measurement can start mid-run.
    engine.begin(payments);
    // Warmup: stop right after every admission (the last arrival is at
    // 190 ms, its route computation well under a millisecond), so flows,
    // queues and scratch buffers exist and the TU churn lies ahead.
    while engine
        .events
        .peek_time()
        .is_some_and(|t| t <= SimTime::from_micros(250_000))
    {
        let (now, ev) = engine.events.pop().expect("peeked");
        engine.handle(now, ev);
    }
    assert!(
        engine.payments.is_empty(),
        "warmup must cover every arrival"
    );
    assert!(!engine.tus.is_empty(), "warmup must leave TUs in flight");
    // Pre-size the growable structures to their steady-state extents,
    // as a long-lived engine's would already be (16 events per calendar
    // bucket for each line).
    engine.events.preallocate(16 * LINES);
    engine.stats.latency.reserve(16_384);
    engine.tus.reserve(16_384);
    engine.scratch_expired.reserve(4096);
    engine.scratch_marked.reserve(4096);
    engine.scratch_prices.reserve(64);
    for pair in engine.queues.iter_mut() {
        pair.0.reserve(256);
        pair.1.reserve(256);
    }
    let baseline = alloc_counter::allocations();
    let mut steady_events = 0u64;
    while let Some((now, ev)) = engine.events.pop() {
        engine.handle(now, ev);
        steady_events += 1;
    }
    let allocated = alloc_counter::allocations() - baseline;
    assert!(
        steady_events > 5_000,
        "must measure a real event volume, got {steady_events}"
    );
    assert_eq!(
        allocated, 0,
        "hot loop allocated {allocated} times over {steady_events} steady-state events"
    );
    // The run did real hop-lock work while being measured.
    assert!(engine.stats.completed + engine.stats.failed > 0);
    assert!(engine.stats.marked_tus > 0, "{}", engine.stats);
}

#[test]
#[cfg_attr(miri, ignore)]
fn steady_state_stays_allocation_free_with_goal_directed_planner() {
    // The same saturated-line measurement with a scheme that routes its
    // plans through the goal-directed accelerator (Direct + EDS:
    // bidirectional BFS searches). Warmup grows the accel scratch; the
    // measured window must then allocate nothing — the accelerator adds
    // no steady-state allocation sites.
    let mut g = Graph::new(4);
    for i in 0..3 {
        g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
    }
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
    let tuples: Vec<(u64, u32, u32, u64)> = (0..96)
        .map(|i| {
            let (s, d) = match i % 4 {
                0 => (0, 3),
                1 => (3, 0),
                2 => (1, 3),
                _ => (2, 0),
            };
            (i * 2, s, d, 40)
        })
        .collect();
    let payments = payments_from_tuples(&tuples, SimDuration::from_secs(5));
    let cfg = EngineConfig::default();
    assert!(cfg.use_goal_directed, "the accelerator must default on");
    // Arrivals end at ~190 ms; stop the warmup right after admission so
    // the measured window still sees real TU churn (the whole run
    // completes far faster than Spider's rate-limited one).
    let mut engine = Engine::new(
        g,
        funds,
        SchemeConfig::shortest_path(),
        cfg,
        SimRng::seed(11),
    );
    engine.horizon = payments.last().unwrap().deadline + engine.cfg.update_interval;
    engine.payments = payments.into();
    let at = engine.payments.front().unwrap().created;
    engine.events.schedule_at(at, Ev::Arrival);
    engine
        .events
        .schedule_after(engine.cfg.update_interval, Ev::PriceTick);
    while engine
        .events
        .peek_time()
        .is_some_and(|t| t <= SimTime::from_micros(250_000))
    {
        let (now, ev) = engine.events.pop().expect("peeked");
        engine.handle(now, ev);
    }
    assert!(engine.payments.is_empty());
    assert!(
        engine.stats.goal_directed_plans > 0,
        "warmup plans must exercise the accelerator"
    );
    engine.events.preallocate(16);
    engine.stats.latency.reserve(4096);
    engine.tus.reserve(4096);
    engine.scratch_expired.reserve(1024);
    engine.scratch_marked.reserve(1024);
    engine.scratch_prices.reserve(64);
    for pair in engine.queues.iter_mut() {
        pair.0.reserve(256);
        pair.1.reserve(256);
    }
    let baseline = alloc_counter::allocations();
    let mut steady_events = 0u64;
    while let Some((now, ev)) = engine.events.pop() {
        engine.handle(now, ev);
        steady_events += 1;
    }
    let allocated = alloc_counter::allocations() - baseline;
    // Without Spider's rate-control loop the line drains fast, so the
    // window is smaller than the Spider measurement above — but it still
    // spans live TU forwarding, price ticks and payment completion.
    assert!(
        steady_events > 100,
        "must measure a real event volume, got {steady_events}"
    );
    assert_eq!(
        allocated, 0,
        "goal-directed hot loop allocated {allocated} times over \
         {steady_events} steady-state events"
    );
    assert!(engine.stats.completed + engine.stats.failed > 0);
}

#[test]
fn marked_tus_counted_under_congestion() {
    // Narrow channel, many payments: queues build up past T.
    let mut g = Graph::new(3);
    g.add_edge(n(0), n(1));
    g.add_edge(n(1), n(2));
    let funds = NetworkFunds::uniform(&g, Amount::from_tokens(6));
    let tuples: Vec<(u64, u32, u32, u64)> = (0..30).map(|i| (i * 20, 0, 2, 4)).collect();
    let payments = payments_from_tuples(&tuples, SimDuration::from_secs(3));
    let stats = Engine::new(
        g,
        funds,
        SchemeConfig::spider(),
        EngineConfig::default(),
        SimRng::seed(10),
    )
    .run(payments);
    assert!(stats.marked_tus > 0, "{stats}");
    assert!(stats.is_consistent());
}
