//! The three workloads and one round of each.
//!
//! A round replays a fixed, pre-generated open-loop Poisson payment
//! trace per world in simulated time, for the five compared schemes.
//! Everything a round does is a function of the workload and the seed,
//! so every round of one run reproduces the same semantic output; the
//! caller checks that through the digest.

use std::collections::BTreeSet;
use std::hint::black_box;

use pcn_graph::SearchWorkspace;
use pcn_harness::{derive_seed, ExperimentGrid, Overrides};
use pcn_routing::paths::{select_paths_in, PathSelect};
use pcn_routing::RunStats;
use pcn_types::{NodeId, SimDuration};
use pcn_workload::{Expectations, Scenario, ScenarioBuilder, ScenarioParams, SchemeChoice};
use splicer_core::{PreparedRun, SystemBuilder};

use crate::trace::{total, total_prefixed, Span, Tracer};

/// The compared schemes in the paper's order, with their metric keys.
pub const SCHEMES: [(SchemeChoice, &str); 5] = [
    (SchemeChoice::Splicer, "splicer"),
    (SchemeChoice::Spider, "spider"),
    (SchemeChoice::Flash, "flash"),
    (SchemeChoice::Landmark, "landmark"),
    (SchemeChoice::A2L, "a2l"),
];

/// Schemes whose planning the replay probe times, with their metric keys.
pub const REPLAYED: [(SchemeChoice, &str); 2] = [
    (SchemeChoice::Spider, "spider"),
    (SchemeChoice::Flash, "flash"),
];

/// Root seeds one `fig7_grid` round sweeps: one seed's grid is too short
/// to time steadily, and with four topologies the simulated metrics
/// still varied across `--seed` by up to 12 %.
const FIG7_ROOT_SEEDS: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig7Grid,
    Fig8Large,
    ChurnDynamic,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig7Grid,
        Workload::Fig8Large,
        Workload::ChurnDynamic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Grid => "fig7_grid",
            Workload::Fig8Large => "fig8_large",
            Workload::ChurnDynamic => "churn_dynamic",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one round executes, resolved from workload, seed and size.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Every `(root seed, channel scale)` variant × the five schemes, as
    /// one `ExperimentGrid`.
    Grid {
        base: ScenarioParams,
        variants: Vec<(u64, f64)>,
        workers: usize,
    },
    /// One world; the five schemes are built and run one after another.
    Serial { params: ScenarioParams },
}

impl Plan {
    /// The workload at full size, or at the self-test's `tiny` size.
    pub fn new(workload: Workload, seed: u64, tiny: bool, workers: usize) -> Plan {
        match workload {
            Workload::Fig7Grid => {
                let (base, scales, seeds): (_, &[f64], _) = if tiny {
                    (ScenarioParams::tiny(), &[1.0, 4.0], 1)
                } else {
                    (
                        ScenarioParams::small(),
                        &[0.5, 1.0, 2.0, 4.0, 8.0],
                        FIG7_ROOT_SEEDS,
                    )
                };
                let variants = (0..seeds)
                    .flat_map(|i| scales.iter().map(move |&s| (derive_seed(seed, i), s)))
                    .collect();
                Plan::Grid {
                    base,
                    variants,
                    workers,
                }
            }
            Workload::Fig8Large => {
                let mut params = if tiny {
                    ScenarioParams::tiny()
                } else {
                    let mut p = ScenarioParams::large();
                    p.duration = SimDuration::from_secs(30);
                    p.arrivals_per_sec = 60.0;
                    p
                };
                params.seed = seed;
                Plan::Serial { params }
            }
            Workload::ChurnDynamic => {
                let builder = if tiny {
                    ScenarioBuilder::tiny()
                        .hotspot(0.6, 1.0)
                        .timeline(|t| t.churn(1.0).hub_outage(3.0, 1, 5.0).rebalance(7.0))
                } else {
                    ScenarioBuilder::small()
                        .nodes(500)
                        .candidates(15)
                        .hotspot(0.6, 1.0)
                        .arrivals_per_sec(40.0)
                        .duration_secs(120)
                        .timeline(|t| t.churn(2.0).hub_outage(50.0, 1, 60.0).rebalance(90.0))
                };
                Plan::Serial {
                    params: builder.seed(seed).build().params,
                }
            }
        }
    }

    /// Harness worker threads a round uses (serial rounds use one).
    pub fn workers(&self) -> usize {
        match self {
            Plan::Grid { workers, .. } => *workers,
            Plan::Serial { .. } => 1,
        }
    }
}

/// One engine run and what it must satisfy.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Names the run in failure reports and in the digest.
    pub label: String,
    /// Index into [`SCHEMES`].
    pub scheme: usize,
    pub stats: RunStats,
    /// Length of the payment trace the run replayed.
    pub expected: u64,
    /// Grid-cell expectation violations (serial runs have none).
    pub violations: Vec<String>,
}

/// Probe work a traced round adds on top of the untraced calls.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    pub solves: u64,
    pub hubs: u64,
    /// Distinct (source, dest) pairs replayed, per [`REPLAYED`] scheme.
    pub queries: [u64; 2],
}

/// Everything one round measured.
#[derive(Clone, Debug)]
pub struct Round {
    pub runs: Vec<RunRecord>,
    pub workers: usize,
    /// Payments in the traces of the worlds this round built.
    pub payments: u64,
    pub probe: Probe,
    /// Spans recorded during the round.
    pub spans: Vec<Span>,
}

/// The host times the end-to-end metrics take from one round.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub wall_s: f64,
    pub setup_s: f64,
    /// Σ `RunStats::generated` / Σ `RunStats::wall_secs` over the round.
    pub payments_per_s: f64,
}

impl Round {
    pub fn timing(&self) -> Timing {
        let generated: u64 = self.runs.iter().map(|r| r.stats.generated).sum();
        let secs: f64 = self.runs.iter().map(|r| r.stats.wall_secs).sum();
        Timing {
            wall_s: self.wall_s(),
            setup_s: self.setup_s(),
            payments_per_s: generated as f64 / secs,
        }
    }

    /// Host seconds of the timed run.
    pub fn wall_s(&self) -> f64 {
        total(&self.spans, "round")
    }

    /// Host seconds in `Scenario::build` plus `build_<scheme>`.
    pub fn setup_s(&self) -> f64 {
        total(&self.spans, "workload.build") + total_prefixed(&self.spans, "core.build.")
    }

    /// Host seconds per scheme in its engine runs: spans around
    /// `PreparedRun::run` where the benchmark makes the call, the
    /// engine's own event-loop clock where the grid makes it.
    pub fn engine_s(&self, scheme: usize) -> f64 {
        let (_, key) = SCHEMES[scheme];
        let spanned = total(&self.spans, &format!("engine.run.{key}"));
        if spanned > 0.0 {
            return spanned;
        }
        self.runs
            .iter()
            .filter(|r| r.scheme == scheme)
            .map(|r| r.stats.wall_secs)
            .sum()
    }
}

/// Runs one round of `plan`. A `traced` round adds the placement-solve
/// and planner-replay probes, outside the timed `round` span, so the
/// traced round's wall time differs from an untraced one only by the
/// cost of recording spans.
pub fn run_round(plan: &Plan, tr: &mut Tracer, traced: bool) -> Round {
    let mark = tr.mark();
    let mut probe = Probe::default();
    let (runs, payments) = match plan {
        Plan::Grid {
            base,
            variants,
            workers,
        } => grid_round(base, variants, *workers, tr, traced.then_some(&mut probe)),
        Plan::Serial { params } => serial_round(params, tr, traced.then_some(&mut probe)),
    };
    Round {
        runs,
        workers: plan.workers(),
        payments,
        probe,
        spans: tr.since(mark).to_vec(),
    }
}

fn serial_round(
    params: &ScenarioParams,
    tr: &mut Tracer,
    probe: Option<&mut Probe>,
) -> (Vec<RunRecord>, u64) {
    let (builder, runs) = tr.span("round", |tr| {
        let scenario = tr.span("workload.build", |_| Scenario::build(params.clone()));
        let expected = scenario.payments.len() as u64;
        let builder = SystemBuilder::new(scenario);
        let mut runs = Vec::new();
        for (i, &(choice, key)) in SCHEMES.iter().enumerate() {
            let prepared = tr.span(format!("core.build.{key}"), |_| build(&builder, choice));
            let report = tr.span(format!("engine.run.{key}"), |_| prepared.run());
            runs.push(RunRecord {
                label: report.scheme,
                scheme: i,
                stats: report.stats,
                expected,
                violations: Vec::new(),
            });
        }
        (builder, runs)
    });
    if let Some(p) = probe {
        p.solve(&builder, tr);
        p.replay(&builder, tr);
    }
    let payments = builder.scenario().payments.len() as u64;
    (runs, payments)
}

fn grid_round(
    base: &ScenarioParams,
    variants: &[(u64, f64)],
    workers: usize,
    tr: &mut Tracer,
    mut probe: Option<&mut Probe>,
) -> (Vec<RunRecord>, u64) {
    // The grid sets its cells up on its worker threads, out of reach of
    // the benchmark's spans, so the same set-up calls are timed here in
    // a serial pass of their own, outside the timed "round".
    let mut expected = Vec::with_capacity(variants.len());
    tr.span("setup_pass", |tr| {
        for &(seed, scale) in variants {
            let mut params = base.clone();
            params.seed = seed;
            params.channel_scale = scale;
            let scenario = tr.span("workload.build", |_| Scenario::build(params));
            expected.push(scenario.payments.len() as u64);
            let builder = SystemBuilder::new(scenario);
            if let Some(p) = probe.as_deref_mut() {
                p.solve(&builder, tr);
                p.replay(&builder, tr);
            }
            for &(choice, key) in &SCHEMES {
                tr.span(format!("core.build.{key}"), |_| build(&builder, choice));
            }
        }
    });
    let grid = variants.iter().fold(
        ExperimentGrid::new(base.clone()).expectations(Expectations {
            value_conserved: true,
            ..Expectations::default()
        }),
        |grid, &(seed, scale)| {
            grid.variant(
                format!("seed {seed} scale {scale}"),
                scale,
                Overrides {
                    channel_scale: Some(scale),
                    seed: Some(seed),
                    ..Overrides::default()
                },
            )
        },
    );
    let cells = tr.span("round", |tr| tr.span("harness.grid", |_| grid.run(workers)));
    let runs = cells
        .into_iter()
        .map(|cell| RunRecord {
            label: format!("{} / {}", cell.label, cell.scheme),
            scheme: SCHEMES
                .iter()
                .position(|(c, _)| c.name() == cell.scheme)
                .expect("the grid runs the compared schemes"),
            expected: expected[cell.variant_index],
            stats: cell.stats,
            violations: cell.violations,
        })
        .collect();
    (runs, expected.iter().sum())
}

fn build(builder: &SystemBuilder, choice: SchemeChoice) -> PreparedRun {
    match choice {
        SchemeChoice::Splicer => builder
            .build_splicer()
            .expect("placement is feasible on every benchmark world"),
        SchemeChoice::Spider => builder.build_spider(),
        SchemeChoice::Flash => builder.build_flash(),
        SchemeChoice::Landmark => builder.build_landmark(),
        SchemeChoice::A2L => builder.build_a2l(),
        SchemeChoice::ShortestPath => builder.build_shortest_path(),
    }
}

impl Probe {
    /// Times `SystemBuilder::solve_placement` on its own: `build_splicer`
    /// solves internally, so this is what the assembly time subtracts.
    fn solve(&mut self, builder: &SystemBuilder, tr: &mut Tracer) {
        let (_, plan) = tr
            .span("placement.solve", |_| builder.solve_placement())
            .expect("placement is feasible on every benchmark world");
        self.solves += 1;
        self.hubs += plan.num_hubs() as u64;
    }

    /// Replays the trace's distinct (source, dest) pairs through
    /// `select_paths_in` on the flat graph with a warm workspace, the
    /// way each replayed scheme's engine plans a cache miss, with the
    /// scheme and engine settings `SystemBuilder` gives that scheme.
    fn replay(&mut self, builder: &SystemBuilder, tr: &mut Tracer) {
        let scenario = builder.scenario();
        let pairs: BTreeSet<(NodeId, NodeId)> = scenario
            .payments
            .iter()
            .map(|p| (p.source, p.dest))
            .collect();
        let graph = &scenario.flat.graph;
        let funds = &scenario.flat.funds;
        for (slot, (choice, key)) in REPLAYED.into_iter().enumerate() {
            let (mut scheme, mut engine) = (None, None);
            let mut prepared = build(builder, choice);
            prepared.tune_scheme(|s| scheme = Some(s.clone()));
            prepared.tune_engine(|e| engine = Some(e.clone()));
            let (scheme, engine) = scheme.zip(engine).expect("both tweaks ran");
            let accel = engine.use_goal_directed
                && matches!(
                    scheme.path_select,
                    PathSelect::Ksp | PathSelect::Eds | PathSelect::Heuristic
                );
            let mut ws = SearchWorkspace::new();
            if accel {
                ws.prepare_landmarks(graph);
            }
            let query = |ws: &mut SearchWorkspace, (src, dst): (NodeId, NodeId)| {
                black_box(select_paths_in(
                    graph,
                    ws,
                    funds,
                    src,
                    dst,
                    scheme.num_paths.max(1),
                    scheme.path_select,
                    scheme.balance_view,
                    engine.min_tu,
                    accel,
                ));
            };
            if let Some(&first) = pairs.first() {
                query(&mut ws, first);
            }
            tr.span(format!("planner.replay.{key}"), |_| {
                for &pair in &pairs {
                    query(&mut ws, pair);
                }
            });
            self.queries[slot] += pairs.len() as u64;
        }
    }
}
