//! Determinism regression: the same `ScenarioBuilder` spec must produce
//! identical `RunStats` run twice, the parallel harness must be
//! bit-identical to a single-threaded run of the same grid, and the
//! epoch-versioned path cache must be invisible in the semantic stats
//! (cache-enabled ≡ cache-disabled, bit for bit).

use pcn_harness::{run_spec, run_spec_tuned, ExperimentGrid, RunTuning, SchemeTuning};
use pcn_workload::{ScenarioBuilder, ScenarioParams, SchemeChoice};

fn tiny_spec(scheme: SchemeChoice) -> pcn_workload::ScenarioSpec {
    ScenarioBuilder::tiny().scheme(scheme).seed(11).build()
}

#[test]
fn same_spec_runs_identically_twice() {
    for scheme in [
        SchemeChoice::Splicer,
        SchemeChoice::Spider,
        SchemeChoice::Flash,
    ] {
        let a = run_spec(&tiny_spec(scheme));
        let b = run_spec(&tiny_spec(scheme));
        assert_eq!(
            a.report.stats,
            b.report.stats,
            "{} diverged across identical runs",
            scheme.name()
        );
    }
}

#[test]
fn four_worker_grid_matches_single_threaded_bit_for_bit() {
    let grid = ExperimentGrid::new(ScenarioParams::tiny())
        .schemes(SchemeChoice::COMPARED)
        .sweep_channel_scale(&[0.5, 2.0]);
    let serial = grid.run(1);
    let parallel = grid.run(4);
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), 10, "2 sweep points × 5 schemes");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.scheme, p.scheme);
        assert_eq!(s.label, p.label);
        assert_eq!(
            s.stats, p.stats,
            "cell {} ({} / {}) diverged between 1 and 4 workers",
            s.index, s.label, s.scheme
        );
    }
}

#[test]
fn spec_runs_match_grid_cells() {
    // A spec run on its own equals the same world inside a grid.
    let grid = ExperimentGrid::new(ScenarioParams::tiny())
        .schemes([SchemeChoice::Spider])
        .sweep_channel_scale(&[1.0]);
    let from_grid = &grid.run(2)[0];
    let spec = ScenarioBuilder::tiny()
        .channel_scale(1.0)
        .scheme(SchemeChoice::Spider)
        .build();
    let lone = run_spec(&spec);
    assert_eq!(lone.report.stats, from_grid.stats);
}

#[test]
fn path_cache_is_semantics_preserving() {
    // The acceptance bar for the epoch-versioned PathCache: an engine run
    // with the cache enabled produces bit-identical RunStats — success
    // rate, volume, latency histogram, deadlock flags, overhead — to a
    // cache-disabled run on the same seed. Only the diagnostic cache
    // counters may differ. Every scheme exercises a different plan class
    // (Direct, Hubs, FlashMaxFlow mice+elephants, Landmarks, SingleHub).
    for scheme in [
        SchemeChoice::Splicer,
        SchemeChoice::Spider,
        SchemeChoice::Flash,
        SchemeChoice::Landmark,
        SchemeChoice::A2L,
        SchemeChoice::ShortestPath,
    ] {
        let spec = tiny_spec(scheme);
        let with = |cache| {
            run_spec_tuned(
                &spec,
                &RunTuning {
                    path_cache: Some(cache),
                    ..RunTuning::default()
                },
                &SchemeTuning::default(),
            )
        };
        let cached = with(true);
        let uncached = with(false);
        assert_eq!(
            uncached.report.stats.path_cache.lookups(),
            0,
            "{}: the disabled cache must never be consulted",
            scheme.name()
        );
        assert_eq!(
            cached.report.stats.without_cache_counters(),
            uncached.report.stats.without_cache_counters(),
            "{}: cached run diverged from uncached run",
            scheme.name()
        );
    }
}

#[test]
fn capacity_cache_is_exact_under_funds_churn() {
    // Funds-churn regression for the topology-epoch path cache, which
    // holds capacity-only plans: hotspot traffic concentrates payments
    // so channels all over the network move funds constantly, and no
    // funds movement may change a cached plan. Two claims:
    //
    // (a) cache hits stay bit-identical to recomputation for all six
    //     schemes (cached ≡ uncached modulo the diagnostic counters),
    //     and
    // (b) Splicer sustains a nonzero steady-state hit rate under that
    //     traffic: its live-balance hub middles are computed on every
    //     plan and never looked up, while its topology-only access legs
    //     hit until the topology moves.
    for scheme in [
        SchemeChoice::Splicer,
        SchemeChoice::Spider,
        SchemeChoice::Flash,
        SchemeChoice::Landmark,
        SchemeChoice::A2L,
        SchemeChoice::ShortestPath,
    ] {
        let spec = ScenarioBuilder::tiny()
            .hotspot(0.5, 1.5)
            .scheme(scheme)
            .seed(23)
            .build();
        let with = |cache| {
            run_spec_tuned(
                &spec,
                &RunTuning {
                    path_cache: Some(cache),
                    ..RunTuning::default()
                },
                &SchemeTuning::default(),
            )
        };
        let cached = with(true);
        let uncached = with(false);
        assert_eq!(
            cached.report.stats.without_cache_counters(),
            uncached.report.stats.without_cache_counters(),
            "{}: cached run diverged from uncached run under funds churn",
            scheme.name()
        );
        let pc = cached.report.stats.path_cache;
        assert!(
            pc.lookups() > 0,
            "{}: churn scenario must exercise the cache",
            scheme.name()
        );
        if scheme == SchemeChoice::Splicer {
            assert!(
                pc.hits > 0 && pc.hit_rate() > 0.0,
                "Splicer live-view cells must sustain a nonzero hit rate \
                 under funds-moving traffic, got {pc:?}"
            );
        }
    }
}

/// A timeline mixing every dynamic-world ingredient: a rate surge and
/// lull, a rank-0 hub outage with recovery, steady channel churn, and a
/// mid-run liquidity rebalance — over the 10 s tiny world.
fn dynamic_spec(scheme: SchemeChoice) -> pcn_workload::ScenarioSpec {
    ScenarioBuilder::tiny()
        .timeline(|t| {
            t.rate_shift(2.0, 1.8)
                .rate_shift(7.0, 0.5)
                .hub_outage(3.0, 0, 6.0)
                .churn(0.7)
                .rebalance(5.0)
        })
        .scheme(scheme)
        .seed(17)
        .build()
}

#[test]
fn dynamic_world_is_semantics_preserving() {
    // A cache hit must stay bit-identical to recomputation *while the
    // topology itself moves*: for all six schemes, under the full mixed
    // timeline, (a) a cached run equals an uncached run modulo the
    // diagnostic counters, and (b) the timeline actually fired and
    // expired TUs somewhere.
    let mut any_expired = 0u64;
    for scheme in [
        SchemeChoice::Splicer,
        SchemeChoice::Spider,
        SchemeChoice::Flash,
        SchemeChoice::Landmark,
        SchemeChoice::A2L,
        SchemeChoice::ShortestPath,
    ] {
        let spec = dynamic_spec(scheme);
        let with = |tuning: RunTuning| run_spec_tuned(&spec, &tuning, &SchemeTuning::default());
        let cached = with(RunTuning {
            path_cache: Some(true),
            ..RunTuning::default()
        });
        let uncached = with(RunTuning {
            path_cache: Some(false),
            ..RunTuning::default()
        });
        assert!(
            cached.report.stats.world_events_applied > 0,
            "{}: the timeline must fire",
            scheme.name()
        );
        assert_eq!(
            cached.report.stats.without_cache_counters(),
            uncached.report.stats.without_cache_counters(),
            "{}: cached run diverged from uncached run under a moving topology",
            scheme.name()
        );
        assert!(
            cached.report.stats.path_cache.inv_topology > 0,
            "{}: mid-run topology movement must fire topology invalidations, got {:?}",
            scheme.name(),
            cached.report.stats.path_cache
        );
        any_expired += cached.report.stats.tus_expired_by_close;
    }
    assert!(
        any_expired > 0,
        "across six schemes, churn + outage must catch some TU in flight"
    );
}

/// Heavy-churn timeline tuned to push the graph's tombstones + delta
/// overlay across the CSR compaction watermark several times mid-run.
fn compacting_spec(scheme: SchemeChoice) -> pcn_workload::ScenarioSpec {
    ScenarioBuilder::tiny()
        .timeline(|t| t.churn(20.0))
        .scheme(scheme)
        .seed(31)
        .build()
}

#[test]
fn compaction_under_churn_is_semantics_preserving() {
    // The acceptance bar for the CSR adjacency core: when churn drives
    // the graph across its compaction watermark mid-run — O(V+E)
    // rebuilds that drop tombstones and merge the delta overlay — the
    // run must stay bit-identical in every configuration. For each
    // scheme: (a) compaction actually fired (the test would be vacuous
    // otherwise), and (b) cached ≡ uncached modulo the diagnostic
    // counters.
    for scheme in [
        SchemeChoice::Splicer,
        SchemeChoice::Spider,
        SchemeChoice::Flash,
        SchemeChoice::Landmark,
        SchemeChoice::A2L,
        SchemeChoice::ShortestPath,
    ] {
        let spec = compacting_spec(scheme);
        let with = |tuning: RunTuning| run_spec_tuned(&spec, &tuning, &SchemeTuning::default());
        let cached = with(RunTuning {
            path_cache: Some(true),
            ..RunTuning::default()
        });
        assert!(
            cached.report.stats.graph_compactions > 0,
            "{}: churn(20.0) must cross the compaction watermark, got {} compactions",
            scheme.name(),
            cached.report.stats.graph_compactions
        );
        let uncached = with(RunTuning {
            path_cache: Some(false),
            ..RunTuning::default()
        });
        assert_eq!(
            cached.report.stats.without_cache_counters(),
            uncached.report.stats.without_cache_counters(),
            "{}: cached run diverged from uncached run across compactions",
            scheme.name()
        );
    }
}

#[test]
fn compacting_grid_is_bit_identical_across_worker_counts() {
    // The compaction-crossing worlds slot bit-identical results for
    // 1, 2, 4 and 8 harness workers — watermark rebuilds are a pure
    // function of the mutation sequence, never of scheduling.
    let mut base = ScenarioParams::tiny();
    base.seed = 31;
    let grid = ExperimentGrid::new(base)
        .schemes(SchemeChoice::COMPARED)
        .sweep_churn_rate(&[20.0]);
    let serial = grid.run(1);
    assert_eq!(serial.len(), 5, "1 churn point × 5 schemes");
    assert!(
        serial.iter().all(|c| c.stats.graph_compactions > 0),
        "every cell must cross the compaction watermark"
    );
    for workers in [2, 4, 8] {
        let parallel = grid.run(workers);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.index, p.index);
            assert_eq!(
                s.stats, p.stats,
                "cell {} ({} / {}) diverged between 1 and {workers} workers",
                s.index, s.label, s.scheme
            );
        }
    }
}

#[test]
fn dynamic_world_grid_is_bit_identical_across_worker_counts() {
    // A churn-rate × scheme grid (the ISSUE's "sweep churn rates ×
    // schemes") must slot bit-identical results for 1, 2, 4 and 8
    // workers — dynamic worlds don't get to relax the harness contract.
    let mut base = ScenarioParams::tiny();
    base.seed = 29;
    base.timeline = pcn_workload::TimelineBuilder::default()
        .rate_shift(2.0, 1.5)
        .hub_outage(3.0, 0, 6.0)
        .build();
    let grid = ExperimentGrid::new(base)
        .schemes(SchemeChoice::COMPARED)
        .sweep_churn_rate(&[0.0, 1.0]);
    let serial = grid.run(1);
    assert_eq!(serial.len(), 10, "2 churn points × 5 schemes");
    assert!(
        serial.iter().all(|c| c.stats.world_events_applied > 0),
        "even the churn-0 point carries the base outage + rate shift"
    );
    for workers in [2, 4, 8] {
        let parallel = grid.run(workers);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.index, p.index);
            assert_eq!(
                s.stats, p.stats,
                "cell {} ({} / {}) diverged between 1 and {workers} workers",
                s.index, s.label, s.scheme
            );
        }
    }
    // Standalone re-runs reproduce grid cells, dynamic world included.
    let cells = grid.cells();
    let lone = ExperimentGrid::run_cell(&cells[7]);
    assert_eq!(lone.stats, serial[7].stats);
}

#[test]
fn goal_directed_is_semantics_preserving() {
    // The acceptance bar for goal-directed planning: flipping
    // `use_goal_directed` changes how plans are computed (bidirectional
    // BFS for the unit-cost searches, batched two-tree hub legs) but
    // not a single planned path. For all six schemes, cached and
    // uncached, a goal-directed run is bit-identical to a plain-search
    // run modulo the diagnostic cache counters and the
    // planner-observability counters (`goal_directed_plans` /
    // `nodes_settled`), which are *about* the toggle and so legitimately
    // differ across it.
    for scheme in [
        SchemeChoice::Splicer,
        SchemeChoice::Spider,
        SchemeChoice::Flash,
        SchemeChoice::Landmark,
        SchemeChoice::A2L,
        SchemeChoice::ShortestPath,
    ] {
        let spec = tiny_spec(scheme);
        let with = |tuning: RunTuning| run_spec_tuned(&spec, &tuning, &SchemeTuning::default());
        for cache in [true, false] {
            let on = with(RunTuning {
                path_cache: Some(cache),
                goal_directed: Some(true),
                ..RunTuning::default()
            });
            let off = with(RunTuning {
                path_cache: Some(cache),
                goal_directed: Some(false),
                ..RunTuning::default()
            });
            assert_eq!(
                on.report
                    .stats
                    .without_cache_counters()
                    .without_planner_counters(),
                off.report
                    .stats
                    .without_cache_counters()
                    .without_planner_counters(),
                "{} (cache={cache}): goal-directed planning changed the run",
                scheme.name()
            );
            assert_eq!(
                off.report.stats.goal_directed_plans,
                0,
                "{}: the disabled accelerator must never plan",
                scheme.name()
            );
            // Schemes whose plans run accelerable (unit-cost Dijkstra)
            // searches must actually route through the accelerator:
            // Flash mice pools, landmark hub legs, direct EDS selection.
            // Splicer/Spider plan with widest-path searches and A2L with
            // single-hub table lookups — nothing to accelerate there.
            if matches!(
                scheme,
                SchemeChoice::Flash | SchemeChoice::Landmark | SchemeChoice::ShortestPath
            ) {
                assert!(
                    on.report.stats.goal_directed_plans > 0,
                    "{}: goal-directed runs must actually use the accelerator",
                    scheme.name()
                );
            }
        }
    }
    // And the toggle survives a moving topology: under the mixed dynamic
    // timeline the topology moves mid-run, and the runs still agree.
    for scheme in [SchemeChoice::ShortestPath, SchemeChoice::Landmark] {
        let spec = dynamic_spec(scheme);
        let with = |tuning: RunTuning| run_spec_tuned(&spec, &tuning, &SchemeTuning::default());
        let on = with(RunTuning {
            goal_directed: Some(true),
            ..RunTuning::default()
        });
        let off = with(RunTuning {
            goal_directed: Some(false),
            ..RunTuning::default()
        });
        assert_eq!(
            on.report
                .stats
                .without_cache_counters()
                .without_planner_counters(),
            off.report
                .stats
                .without_cache_counters()
                .without_planner_counters(),
            "{} (dynamic): goal-directed planning changed the run",
            scheme.name()
        );
        assert!(
            on.report.stats.world_events_applied > 0,
            "{} (dynamic): the timeline must move the topology mid-run",
            scheme.name()
        );
    }
}

/// An adversarial world mixing every fault ingredient: griefers holding
/// locks past the TU timeout, a circular-demand ring, probabilistic
/// channel drops, delay jitter, and a stalling rogue hub — over the 10 s
/// tiny world.
fn adversarial_spec(scheme: SchemeChoice) -> pcn_workload::ScenarioSpec {
    ScenarioBuilder::tiny()
        .adversary(|a| {
            a.griefers(0.15, 4_000)
                .circular_demand(4, 1.5)
                .drop(0.15, 0.4)
                .delay(0.2, 30)
                .rogue_hub(0, pcn_workload::RogueBehavior::Stall)
        })
        .scheme(scheme)
        .seed(41)
        .build()
}

#[test]
fn adversarial_world_is_semantics_preserving() {
    // The determinism contract does not relax under attack: for all six
    // schemes, under the full fault mix, (a) the fault layer actually
    // fired (the test would be vacuous otherwise), and (b) cached ≡
    // uncached modulo the diagnostic cache counters — fault decisions
    // are pure hashes of the run's state, never of the cache.
    for scheme in [
        SchemeChoice::Splicer,
        SchemeChoice::Spider,
        SchemeChoice::Flash,
        SchemeChoice::Landmark,
        SchemeChoice::A2L,
        SchemeChoice::ShortestPath,
    ] {
        let spec = adversarial_spec(scheme);
        let with = |tuning: RunTuning| run_spec_tuned(&spec, &tuning, &SchemeTuning::default());
        let cached = with(RunTuning {
            path_cache: Some(true),
            ..RunTuning::default()
        });
        assert!(
            cached.report.stats.faults_injected > 0,
            "{}: the fault mix must fire",
            scheme.name()
        );
        assert!(
            cached.report.stats.griefed_locks > 0,
            "{}: griefers must show up in the stats",
            scheme.name()
        );
        let uncached = with(RunTuning {
            path_cache: Some(false),
            ..RunTuning::default()
        });
        assert_eq!(
            cached.report.stats.without_cache_counters(),
            uncached.report.stats.without_cache_counters(),
            "{}: cached run diverged from uncached run under attack",
            scheme.name()
        );
    }
}

#[test]
fn empty_adversary_spec_is_byte_identical_to_the_honest_run() {
    // `Engine::with_faults(FaultPlan::default())` installs nothing and
    // an empty `AdversarySpec` draws zero randomness, so chaining an
    // empty adversary must reproduce the honest run bit for bit —
    // every diagnostic counter included.
    for scheme in [SchemeChoice::Splicer, SchemeChoice::Spider] {
        let honest = run_spec(&tiny_spec(scheme));
        let empty_adv = run_spec(
            &ScenarioBuilder::tiny()
                .adversary(|a| a)
                .scheme(scheme)
                .seed(11)
                .build(),
        );
        assert_eq!(
            honest.report.stats,
            empty_adv.report.stats,
            "{}: an empty adversary spec perturbed the honest run",
            scheme.name()
        );
    }
}

/// FNV-1a over a string: a compact exact pin for a field too long to
/// print whole.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden line: every semantic `RunStats` field of one run. The
/// exhaustive destructure makes a new field a compile error here until
/// it is either printed or named as diagnostic.
fn golden_line(spec_name: &str, scheme: &str, stats: &pcn_routing::RunStats) -> String {
    let pcn_routing::RunStats {
        generated,
        generated_value,
        completed,
        completed_value,
        failed,
        latency,
        overhead_msgs,
        marked_tus,
        aborted_tus,
        delivered_tus,
        drained_directions_end,
        unroutable,
        world_events_applied,
        tus_expired_by_close,
        graph_compactions,
        faults_injected,
        griefed_locks,
        deadlocks_detected,
        honest_generated,
        honest_completed,
        max_stall_us,
        conservation_violations,
        goal_directed_plans,
        // Diagnostic: these differ between cached and uncached runs.
        nodes_settled: _,
        path_cache: _,
        wall_secs: _,
    } = stats;
    // The latency histogram stores every completion's latency: print its
    // shape, and pin the recorded values in order through a hash.
    let mut sorted = latency.clone();
    let (p50, p99) = (sorted.quantile(0.5), sorted.quantile(0.99));
    format!(
        "{spec_name}/{}: gen={generated} gen_value={generated_value:?} \
         done={completed} done_value={completed_value:?} fail={failed} \
         latency=[n={} mean={:?} p50={p50:?} p99={p99:?} max={:?} hash={:016x}] \
         overhead={overhead_msgs} marked={marked_tus} aborted={aborted_tus} \
         delivered={delivered_tus} drained={drained_directions_end} \
         unroutable={unroutable} world={world_events_applied} \
         expired={tus_expired_by_close} compactions={graph_compactions} \
         faults={faults_injected} griefed={griefed_locks} \
         deadlocks={deadlocks_detected} honest={honest_completed}/{honest_generated} \
         stall={max_stall_us} viol={conservation_violations} \
         gd={goal_directed_plans}",
        scheme,
        latency.count(),
        latency.mean(),
        latency.max(),
        fnv1a(&format!("{latency:?}")),
    )
}

#[test]
fn semantic_runs_match_golden() {
    // The pins above prove that configurations agree with each other;
    // this one pins the output itself. Each (spec, scheme) run's
    // semantic payload is printed exactly (floats via `{:?}`) and
    // compared with the committed text. A mismatch is a behaviour
    // change: explain it in CHANGES.md and commit the regenerated text
    // this test prints.
    let specs = [
        ("tiny", tiny_spec as fn(_) -> _),
        ("dynamic", dynamic_spec),
        ("compacting", compacting_spec),
        ("adversarial", adversarial_spec),
    ];
    let mut text = String::new();
    for (name, spec) in specs {
        for scheme in [
            SchemeChoice::Splicer,
            SchemeChoice::Spider,
            SchemeChoice::Flash,
            SchemeChoice::Landmark,
            SchemeChoice::A2L,
            SchemeChoice::ShortestPath,
        ] {
            let run = run_spec(&spec(scheme));
            text.push_str(&golden_line(name, scheme.name(), &run.report.stats));
            text.push('\n');
        }
    }
    assert_golden(
        "semantic_runs.txt",
        &text,
        include_str!("golden/semantic_runs.txt"),
    );
}

#[test]
fn fig7_quick_matches_golden_and_the_paper_claims() {
    // `fig7 a --quick`: `HarnessOpts::params(Scale::Small)` at seed 1
    // (the small world, 15 s of traffic) swept over three channel
    // scales, every compared scheme on each world. Each cell is pinned
    // like the semantic runs above; then the paper's three Fig. 7(a)
    // claims are asserted with margins below today's values.
    let mut params = ScenarioParams::small();
    params.seed = 1;
    params.duration = pcn_types::SimDuration::from_secs(15);
    let cells = ExperimentGrid::new(params)
        .sweep_channel_scale(&[0.5, 2.0, 8.0])
        .run(2);
    let mut text = String::new();
    for c in &cells {
        text.push_str(&golden_line(&format!("scale {}", c.x), &c.scheme, &c.stats));
        text.push('\n');
    }
    assert_golden(
        "fig7_quick.txt",
        &text,
        include_str!("golden/fig7_quick.txt"),
    );

    for scale in [0.5, 2.0, 8.0] {
        let at: Vec<_> = cells.iter().filter(|c| c.x == scale).collect();
        assert_eq!(at.len(), SchemeChoice::COMPARED.len(), "scale {scale}");
        let of = |name: &str| {
            at.iter()
                .find(|c| c.scheme == name)
                .unwrap_or_else(|| panic!("no {name} cell at scale {scale}"))
        };
        let (splicer, spider) = (of("Splicer"), of("Spider"));
        for c in &at {
            // Splicer leads every baseline where channels are scarce
            // (6.0 points at 0.5×, 4.3 at 2× today).
            if scale < 8.0 && c.scheme != "Splicer" {
                assert!(
                    splicer.stats.tsr() >= c.stats.tsr() + 0.03,
                    "scale {scale}: Splicer TSR {:.3} must lead {} ({:.3}) by 3 points",
                    splicer.stats.tsr(),
                    c.scheme,
                    c.stats.tsr()
                );
            }
            // With ample funds every scheme succeeds (lowest today:
            // Spider, 0.954).
            if scale == 8.0 {
                assert!(
                    c.stats.tsr() >= 0.93,
                    "scale 8: {} TSR {:.3} is below 0.93",
                    c.scheme,
                    c.stats.tsr()
                );
            }
            // Spider's per-path probing costs at least 4× the messages
            // of any other scheme (5.2× today at its thinnest).
            if c.scheme != "Spider" {
                assert!(
                    spider.stats.overhead_msgs >= 4 * c.stats.overhead_msgs,
                    "scale {scale}: Spider overhead {} must be ≥ 4× {}'s {}",
                    spider.stats.overhead_msgs,
                    c.scheme,
                    c.stats.overhead_msgs
                );
            }
        }
    }
}

/// Compares regenerated golden text with the committed file `name`
/// under `tests/golden/`. On a mismatch it prints the regenerated text
/// (run with `-- --nocapture` to see it) and names the first differing
/// line.
fn assert_golden(name: &str, text: &str, golden: &str) {
    if text != golden {
        let first_diff = text
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.lines().count().min(golden.lines().count()));
        println!("--- regenerated tests/golden/{name} ---\n{text}--- end ---");
        panic!(
            "output drifted from tests/golden/{name} at line {}; \
             the regenerated text is printed above",
            first_diff + 1
        );
    }
}

/// Channel ids of each path in order, paths in selection order.
fn paths_line(paths: &[pcn_graph::Path]) -> String {
    paths
        .iter()
        .map(|p| {
            p.channels()
                .iter()
                .map(|c| c.raw().to_string())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

#[test]
fn planner_paths_match_golden() {
    // `semantic_runs.txt` pins 24-node worlds, where widest-path and
    // Yen tie-breaks rarely matter. This pins the planner itself on a
    // 300-node world with heavy-tailed funds: 32 fixed pairs × every
    // `PathSelect` × both balance views × goal-directed off/on, one
    // line per query. Same regenerate-and-diff contract as
    // `semantic_runs_match_golden`. Goal-directed search must not change
    // a single path, so each `accel=true` line's paths are also asserted
    // equal to its `accel=false` twin. On `EDW CapacityOnly` lines
    // `select_paths_in` walks the capacity order; the heap EDW search
    // under the same capacity width must return the same paths (nothing
    // about it is written to the golden).
    use pcn_graph::{edge_disjoint_widest_paths_in, EdgeRef, SearchWorkspace};
    use pcn_routing::paths::{select_paths_in, BalanceView, PathSelect};
    use pcn_types::NodeId;
    use std::fmt::Write;

    let params = ScenarioBuilder::small().nodes(300).seed(3).build().params;
    let scenario = pcn_workload::Scenario::build(params);
    let (g, funds) = (&scenario.flat.graph, &scenario.flat.funds);
    let min_w = pcn_routing::EngineConfig::default().min_tu;
    let nodes = g.node_count();
    let mut ws = SearchWorkspace::new();
    ws.prepare_landmarks(g);
    let capacity_width = |e: EdgeRef| {
        let w = funds.total(e.id).to_tokens_f64();
        (w > 0.0 && w >= min_w.to_tokens_f64()).then_some(w)
    };
    let mut text = String::new();
    for i in 0..32 {
        let src = NodeId::from_index((i * 37 + 5) % nodes);
        let dst = NodeId::from_index((i * 113 + 151) % nodes);
        for strategy in PathSelect::ALL {
            for view in [BalanceView::Live, BalanceView::CapacityOnly] {
                let mut plain = Vec::new();
                for accel in [false, true] {
                    let paths = select_paths_in(
                        g, &mut ws, funds, src, dst, 4, strategy, view, min_w, accel,
                    );
                    let label = format!("{src}->{dst} {} {view:?} accel={accel}", strategy.name());
                    if accel {
                        assert_eq!(paths, plain, "goal-directed paths diverged: {label}");
                    } else {
                        plain = paths.clone();
                    }
                    writeln!(text, "{label}: {}", paths_line(&paths)).unwrap();
                    if (strategy, view) == (PathSelect::Edw, BalanceView::CapacityOnly) {
                        let heap =
                            edge_disjoint_widest_paths_in(g, &mut ws, src, dst, 4, capacity_width);
                        assert_eq!(heap, paths, "heap EDW diverged from the walk: {label}");
                    }
                }
            }
        }
    }
    assert_golden(
        "planner_paths.txt",
        &text,
        include_str!("golden/planner_paths.txt"),
    );
}
