//! Property-based tests (proptest) over the core invariants, spanning
//! crates: channel conservation, TU splitting, Shamir round trips, path
//! algorithm sanity, CSR/reference adjacency equivalence, Lemma-1
//! optimality and event-queue backend equivalence.

use pcn_crypto::{shamir, Fp};
use pcn_graph::{edge_disjoint_widest_paths, Graph};
use pcn_placement::assignment::{balance_cost_for, optimal_assignment};
use pcn_placement::PlacementInstance;
use pcn_routing::channel::NetworkFunds;
use pcn_routing::tu::split_demand;
use pcn_sim::EventQueue;
use pcn_types::{Amount, NodeId, SimDuration};
use proptest::prelude::*;

proptest! {
    /// The calendar queue and the reference `BinaryHeap` queue pop
    /// identical `(time, event)` sequences for arbitrary interleavings
    /// of schedules and pops — including heavy timestamp duplication
    /// (delay 0 and a few repeated constants dominate the generator,
    /// exactly the engine's profile), sub-bucket jitter, and far-future
    /// outliers that overflow the calendar ring and must migrate back.
    /// The heap is the test oracle for the engine's calendar queue: one
    /// total order, `(time, lane, scheduling sequence)` — the
    /// world lane (dynamic-world timeline events) popping first at equal
    /// timestamps on both backends.
    #[test]
    fn event_queue_backends_pop_identical_sequences(
        ops in prop::collection::vec((0u8..4, 0u8..8, 0u64..20_000_000, 0u8..10), 1..400),
    ) {
        let mut cal = EventQueue::new();
        let mut heap = EventQueue::with_heap();
        for (i, (kind, dup, jitter, lane)) in ops.into_iter().enumerate() {
            if kind == 0 {
                prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek at op {}", i);
                prop_assert_eq!(cal.pop(), heap.pop(), "pop at op {}", i);
                prop_assert_eq!(cal.len(), heap.len());
                prop_assert_eq!(cal.now(), heap.now());
            } else {
                // Delays cluster on duplicated constants with occasional
                // arbitrary jitter (including beyond the ring horizon).
                let delay = match dup {
                    0 | 1 => 0,            // exactly `now` — the FIFO lane
                    2 | 3 => 40_000,       // one hop delay
                    4 => 200_000,          // the τ tick
                    5 => 3_000_000,        // a payment deadline
                    6 => jitter % 1_000,   // sub-bucket jitter
                    _ => jitter,           // anything up to 20 s (far heap)
                };
                if lane == 0 {
                    // A sparse sprinkling of world-lane events, landing
                    // on the same duplicated timestamps as the normal
                    // traffic they must overtake.
                    let at = cal.now() + SimDuration::from_micros(delay);
                    cal.schedule_world_at(at, i);
                    heap.schedule_world_at(at, i);
                } else {
                    cal.schedule_after(SimDuration::from_micros(delay), i);
                    heap.schedule_after(SimDuration::from_micros(delay), i);
                }
            }
        }
        // Drain both to the end: the full remaining order must agree.
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
    #[test]
    fn split_demand_partitions_exactly(millis in 1u64..5_000_000, max_mult in 1u64..10) {
        let value = Amount::from_millitokens(millis);
        let min_tu = Amount::from_tokens(1);
        let max_tu = Amount::from_tokens(max_mult.max(1));
        let parts = split_demand(value, min_tu, max_tu);
        prop_assert_eq!(parts.iter().copied().sum::<Amount>(), value);
        for p in &parts {
            prop_assert!(*p <= max_tu);
        }
        // At most one undersized part (the unavoidable tail).
        let undersized = parts.iter().filter(|p| **p < min_tu).count();
        prop_assert!(undersized <= 1, "{undersized} undersized parts");
    }

    #[test]
    fn channel_ops_conserve_funds(ops in prop::collection::vec((0u8..3, 0u64..5_000), 1..200)) {
        let mut g = Graph::new(2);
        let ch = g.add_edge(NodeId::new(0), NodeId::new(1));
        let mut funds = NetworkFunds::uniform(&g, Amount::from_tokens(10));
        let total = funds.grand_total();
        for (op, amt) in ops {
            let amt = Amount::from_millitokens(amt);
            let side = NodeId::new((amt.millitokens() % 2) as u32);
            match op {
                0 => { let _ = funds.lock(ch, side, amt); }
                1 => { let locked = funds.locked(ch, side); let _ = funds.settle(ch, side, amt.min(locked)); }
                _ => { let locked = funds.locked(ch, side); let _ = funds.refund(ch, side, amt.min(locked)); }
            }
            prop_assert!(funds.verify_conservation());
            prop_assert_eq!(funds.grand_total(), total);
        }
    }

    #[test]
    fn shamir_roundtrip(secret in 0u64..u64::MAX, threshold in 1usize..6, extra in 0usize..4, seed in 0u64..u64::MAX) {
        let n = threshold + extra;
        let shares = shamir::split(Fp::new(secret), threshold, n, seed);
        let got = shamir::reconstruct(&shares[..threshold]).unwrap();
        prop_assert_eq!(got, Fp::new(secret));
    }

    #[test]
    fn edw_paths_are_disjoint_and_valid(seed in 0u64..1_000, n in 4usize..20, k in 1usize..6) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = pcn_graph::watts_strogatz(n, 2, 0.3, &mut rng);
        let paths = edge_disjoint_widest_paths(
            &g,
            NodeId::new(0),
            NodeId::from_index(n - 1),
            k,
            |e| Some(1.0 + (e.id.index() % 13) as f64),
        );
        prop_assert!(paths.len() <= k);
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            prop_assert!(p.validate(&g).is_ok());
            for c in p.channels() {
                prop_assert!(seen.insert(*c), "channel reused");
            }
        }
    }

    /// The CSR [`Graph`] and the `Vec<Vec>` [`ReferenceGraph`] stay
    /// bit-identical — neighbour iteration order, degrees, and all six
    /// search families — under arbitrary interleavings of channel opens,
    /// closes, reopens, and explicit CSR compactions. This is the
    /// determinism contract of the adjacency layout swap: tombstone
    /// flagging must behave exactly like `retain`, the delta overlay
    /// exactly like `push`, and compaction must be invisible.
    #[test]
    fn csr_graph_matches_reference_under_churn(
        n in 3usize..16,
        edges in prop::collection::vec((0u32..16, 0u32..16), 1..40),
        ops in prop::collection::vec((0u8..4, 0u32..64), 0..60),
    ) {
        use pcn_graph::{
            bfs_hops, edge_disjoint_shortest_paths, k_shortest_paths, max_flow,
            shortest_path, widest_path, ReferenceGraph, Topology,
        };
        use pcn_types::ChannelId;
        let mut g = Graph::new(n);
        let mut r = ReferenceGraph::new(n);
        for (a, b) in edges {
            let (a, b) = (a as usize % n, b as usize % n);
            if a != b {
                let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                prop_assert_eq!(g.add_edge(a, b), r.add_edge(a, b));
            }
        }
        for (op, x) in ops {
            match op {
                0 => {
                    // Close a (possibly already closed / unknown) channel.
                    let id = ChannelId::new(x % (g.edge_count().max(1) as u32 + 2));
                    let (gr, rr) = (g.close_channel(id), r.close_channel(id));
                    prop_assert_eq!(gr.is_ok(), rr.is_ok());
                }
                1 => {
                    let id = ChannelId::new(x % (g.edge_count().max(1) as u32 + 2));
                    let (gr, rr) = (g.reopen_channel(id), r.reopen_channel(id));
                    prop_assert_eq!(gr.is_ok(), rr.is_ok());
                }
                2 => {
                    let (a, b) = ((x as usize) % n, (x as usize / n) % n);
                    if a != b {
                        let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                        prop_assert_eq!(g.add_edge(a, b), r.add_edge(a, b));
                    }
                }
                _ => g.compact(), // reference is always "compact"
            }
        }
        // Adjacency: same degrees, same neighbour order, entry for entry.
        for v in 0..n {
            let v = NodeId::from_index(v);
            prop_assert_eq!(g.degree(v), r.degree(v));
            let ge: Vec<_> = Topology::out_edges(&g, v).collect();
            let re: Vec<_> = r.out_edges(v).collect();
            prop_assert_eq!(ge, re, "iteration order at {}", v);
        }
        // All six search families, deterministic closures off the edge id.
        let cost = |e: pcn_graph::EdgeRef| Some(1.0 + (e.id.index() % 7) as f64);
        let width = |e: pcn_graph::EdgeRef| Some(1.0 + (e.id.index() % 5) as f64);
        let (s, t) = (NodeId::new(0), NodeId::from_index(n - 1));
        prop_assert_eq!(bfs_hops(&g, s), bfs_hops(&r, s));
        prop_assert_eq!(shortest_path(&g, s, t, cost), shortest_path(&r, s, t, cost));
        prop_assert_eq!(widest_path(&g, s, t, width), widest_path(&r, s, t, width));
        prop_assert_eq!(
            k_shortest_paths(&g, s, t, 3, cost),
            k_shortest_paths(&r, s, t, 3, cost)
        );
        prop_assert_eq!(
            edge_disjoint_shortest_paths(&g, s, t, 2, cost),
            edge_disjoint_shortest_paths(&r, s, t, 2, cost)
        );
        prop_assert_eq!(
            edge_disjoint_widest_paths(&g, s, t, 2, width),
            edge_disjoint_widest_paths(&r, s, t, 2, width)
        );
        let cap = |e: pcn_graph::EdgeRef| Some(1 + (e.id.index() as u64 % 5));
        let (gf, rf) = (max_flow(&g, s, t, cap), max_flow(&r, s, t, cap));
        prop_assert_eq!(gf.value, rf.value);
        prop_assert_eq!(gf.paths.len(), rf.paths.len());
    }

    /// The goal-directed search (bidirectional BFS under the unit-cost
    /// contract) stays bit-identical to the plain search — cost, node
    /// sequence and channel sequence — under arbitrary interleavings of
    /// channel opens, closes, reopens and explicit CSR compactions, with
    /// one long-lived workspace, random one-way arcs and random node and
    /// channel bans. The `Vec<Vec>` [`ReferenceGraph`] rides along as an
    /// independent oracle: for the plain search under weighted costs,
    /// and for both searches under the unit costs.
    #[test]
    fn accelerated_search_matches_reference(
        n in 3usize..16,
        edges in prop::collection::vec((0u32..16, 0u32..16), 1..40),
        ops in prop::collection::vec((0u8..4, 0u32..64), 0..60),
        queries in (
            prop::collection::vec((0u32..16, 0u32..16), 1..8),
            prop::collection::vec(0u8..8, 80..81),
        ),
    ) {
        use pcn_graph::{shortest_path, shortest_path_accel_in, EdgeRef, ReferenceGraph, SearchWorkspace};
        use pcn_types::ChannelId;
        let (pairs, states) = queries;
        let mut g = Graph::new(n);
        let mut r = ReferenceGraph::new(n);
        let mut ws = SearchWorkspace::new();
        let cost = |e: EdgeRef| Some(1.0 + (e.id.index() % 7) as f64);
        // Unit costs. `states[c % 64]` makes channel `c` banned, usable
        // only from the smaller id, only from the larger id, or both
        // ways; `states[64 + v] == 0` bans node `v`.
        let unit = |e: EdgeRef| {
            let node_ok = states[64 + e.from.index()] != 0 && states[64 + e.to.index()] != 0;
            let arc_ok = match states[e.id.index() % 64] {
                0 => false,
                1 => e.from < e.to,
                2 => e.from > e.to,
                _ => true,
            };
            (node_ok && arc_ok).then_some(1.0)
        };
        for (a, b) in edges {
            let (a, b) = (a as usize % n, b as usize % n);
            if a != b {
                let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                prop_assert_eq!(g.add_edge(a, b), r.add_edge(a, b));
            }
        }
        // Interleave churn with query rounds so the same workspace
        // crosses several topology epochs and compactions.
        for chunk in std::iter::once(&[][..]).chain(ops.chunks(10)) {
            for &(op, x) in chunk {
                match op {
                    0 => {
                        let id = ChannelId::new(x % (g.edge_count().max(1) as u32 + 2));
                        let (gr, rr) = (g.close_channel(id), r.close_channel(id));
                        prop_assert_eq!(gr.is_ok(), rr.is_ok());
                    }
                    1 => {
                        let id = ChannelId::new(x % (g.edge_count().max(1) as u32 + 2));
                        let (gr, rr) = (g.reopen_channel(id), r.reopen_channel(id));
                        prop_assert_eq!(gr.is_ok(), rr.is_ok());
                    }
                    2 => {
                        let (a, b) = ((x as usize) % n, (x as usize / n) % n);
                        if a != b {
                            let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                            prop_assert_eq!(g.add_edge(a, b), r.add_edge(a, b));
                        }
                    }
                    _ => g.compact(), // reference is always "compact"
                }
            }
            for &(ps, pt) in &pairs {
                let s = NodeId::from_index(ps as usize % n);
                let t = NodeId::from_index(pt as usize % n);
                let oracle = shortest_path(&r, s, t, cost);
                let plain = g.shortest_path_in(&mut ws, s, t, cost);
                prop_assert_eq!(&plain, &oracle, "plain search diverged from the oracle");
                let unit_oracle = shortest_path(&r, s, t, unit);
                let unit_plain = g.shortest_path_in(&mut ws, s, t, unit);
                let accel = shortest_path_accel_in(&g, &mut ws, s, t, unit);
                let accel_ref = shortest_path_accel_in(&r, &mut ws, s, t, unit);
                prop_assert_eq!(&unit_plain, &unit_oracle, "unit-cost plain search diverged");
                prop_assert_eq!(&accel, &unit_plain, "goal-directed search diverged");
                prop_assert_eq!(&accel_ref, &unit_plain, "goal-directed search on the reference diverged");
            }
        }
    }

    #[test]
    fn lemma1_no_single_client_improvement(seed in 0u64..500) {
        // Moving any single client off its Lemma-1 hub cannot reduce C_B.
        let mut state = seed.wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 997) as f64 / 100.0
        };
        let m = 4;
        let n = 4;
        let zeta: Vec<Vec<f64>> = (0..m).map(|_| (0..n).map(|_| next()).collect()).collect();
        let mut delta = vec![vec![0.0; n]; n];
        let mut eps = vec![vec![0.0; n]; n];
        for a in 0..n {
            for b in (a + 1)..n {
                let d = next();
                let e = next();
                delta[a][b] = d;
                delta[b][a] = d;
                eps[a][b] = e;
                eps[b][a] = e;
            }
        }
        let inst = PlacementInstance::from_matrices(
            (10..10 + m as u32).map(NodeId::new).collect(),
            (0..n as u32).map(NodeId::new).collect(),
            zeta, delta, eps, 0.3,
        ).unwrap();
        let placed = vec![true; n];
        let asg = optimal_assignment(&inst, &placed).unwrap();
        let best = balance_cost_for(&inst, &placed);
        for client in 0..m {
            for hub in 0..n {
                if hub == asg[client] { continue; }
                let mut alt = asg.clone();
                alt[client] = hub;
                let cost = inst.balance_cost(&placed, &alt);
                prop_assert!(cost >= best - 1e-9,
                    "client {client} → hub {hub} improved: {cost} < {best}");
            }
        }
    }
}

// ---- WaitQueue scheduling properties (Table II disciplines) ---------------

use pcn_routing::scheduler::{Discipline, WaitQueue};
use pcn_types::{SimTime, TuId};

/// Reference implementation of the discipline selection rule: the index
/// of the entry `pop_eligible` must serve next among `(seq, amount,
/// deadline)` mirrors restricted to `amount ≤ available`.
fn reference_pick(
    entries: &[(u64, Amount, SimTime)],
    discipline: Discipline,
    available: Amount,
) -> Option<usize> {
    entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.1 <= available)
        .min_by(|(_, a), (_, b)| match discipline {
            Discipline::Fifo => a.0.cmp(&b.0),
            Discipline::Lifo => b.0.cmp(&a.0),
            Discipline::Spf => a.1.cmp(&b.1).then(a.0.cmp(&b.0)),
            Discipline::Edf => a.2.cmp(&b.2).then(a.0.cmp(&b.0)),
        })
        .map(|(i, _)| i)
}

proptest! {
    #[test]
    fn wait_queue_accounting_survives_all_ops(
        ops in prop::collection::vec((0u8..6, 1u64..40, 0u64..800, 0u64..800), 1..120),
        disc_i in 0usize..4,
    ) {
        // Mirror the queue with a (tu, amount) multiset; queued_value and
        // len must track it through push/pop_eligible/remove/drain_expired.
        let discipline = Discipline::ALL[disc_i];
        let capacity = Amount::from_tokens(300);
        let mut q = WaitQueue::new(discipline, capacity);
        let mut mirror: Vec<(TuId, Amount)> = Vec::new();
        let mut next_tu = 0u64;
        for (op, amt, t1, t2) in ops {
            let amount = Amount::from_tokens(amt);
            match op {
                // Bias towards pushes so the queue actually fills.
                0..=2 => {
                    let tu = TuId::new(next_tu);
                    next_tu += 1;
                    let accepted = q.push(
                        tu,
                        amount,
                        SimTime::from_micros(t1),
                        SimTime::from_micros(t2.min(t1)),
                    );
                    prop_assert_eq!(
                        accepted,
                        mirror.iter().map(|e| e.1).sum::<Amount>() + amount <= capacity,
                        "push acceptance must be exactly the capacity bound"
                    );
                    if accepted {
                        mirror.push((tu, amount));
                    }
                }
                3 => {
                    let available = Amount::from_tokens(amt);
                    if let Some(entry) = q.pop_eligible(available) {
                        prop_assert!(entry.amount <= available, "ineligible entry served");
                        let pos = mirror.iter().position(|e| e.0 == entry.tu);
                        prop_assert!(pos.is_some(), "served a TU the mirror never queued");
                        mirror.remove(pos.unwrap());
                    }
                }
                4 => {
                    // Remove a (maybe present) TU.
                    let victim = TuId::new(t1 % next_tu.max(1));
                    let removed = q.remove(victim);
                    let pos = mirror.iter().position(|e| e.0 == victim);
                    prop_assert_eq!(removed.is_some(), pos.is_some());
                    if let Some(pos) = pos {
                        mirror.remove(pos);
                    }
                }
                _ => {
                    let now = SimTime::from_micros(t1);
                    for e in q.drain_expired(now) {
                        let pos = mirror.iter().position(|m| m.0 == e.tu);
                        prop_assert!(pos.is_some(), "expired a TU the mirror never queued");
                        mirror.remove(pos.unwrap());
                    }
                }
            }
            prop_assert_eq!(q.len(), mirror.len());
            prop_assert_eq!(
                q.queued_value(),
                mirror.iter().map(|e| e.1).sum::<Amount>(),
                "queued_value drifted from the live entries"
            );
        }
    }

    #[test]
    fn wait_queue_pop_matches_reference_discipline(
        batch in prop::collection::vec((1u64..30, 0u64..500, 0u64..500), 1..40),
        pops in prop::collection::vec(0u64..35, 1..60),
        disc_i in 0usize..4,
    ) {
        // Every pop under every discipline must serve exactly the entry
        // the reference rule picks (ties broken by arrival sequence).
        let discipline = Discipline::ALL[disc_i];
        let mut q = WaitQueue::new(discipline, Amount::from_tokens(u64::MAX / 2_000));
        let mut mirror: Vec<(u64, Amount, SimTime)> = Vec::new();
        let mut tu_of_seq: Vec<TuId> = Vec::new();
        for (seq, (amt, deadline, enq)) in batch.into_iter().enumerate() {
            let tu = TuId::new(seq as u64);
            let amount = Amount::from_tokens(amt);
            let deadline = SimTime::from_micros(deadline);
            prop_assert!(q.push(tu, amount, deadline, SimTime::from_micros(enq)));
            mirror.push((seq as u64, amount, deadline));
            tu_of_seq.push(tu);
        }
        for avail in pops {
            let available = Amount::from_tokens(avail);
            let expect = reference_pick(&mirror, discipline, available);
            let got = q.pop_eligible(available);
            match (expect, got) {
                (None, None) => {}
                (Some(i), Some(entry)) => {
                    prop_assert_eq!(entry.tu, tu_of_seq[mirror[i].0 as usize]);
                    prop_assert_eq!(entry.amount, mirror[i].1);
                    mirror.remove(i);
                }
                (expect, got) => {
                    prop_assert!(
                        false,
                        "{discipline:?}: reference {expect:?} vs queue {got:?}"
                    );
                }
            }
        }
    }
}
