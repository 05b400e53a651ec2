//! Executing a single [`ScenarioSpec`]: scheme dispatch and expectation
//! checking.

use pcn_workload::{Scenario, ScenarioSpec, SchemeChoice};
use splicer_core::{RunReport, SystemBuilder};

/// Tunables applied on top of a spec when the grid sweeps dimensions the
/// spec itself does not carry (placement weight, hub funding, τ, the
/// path-cache toggle).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunTuning {
    /// Placement tradeoff weight ω (None = builder default).
    pub omega: Option<f64>,
    /// Hub capitalization multiplier (None = builder default).
    pub hub_fund_factor: Option<f64>,
    /// Price/probe update interval τ in milliseconds (None = default).
    pub update_interval_ms: Option<u64>,
    /// Epoch-versioned path-cache toggle (None = engine default, on).
    /// Semantics-preserving either way; used for cache A/B cells and the
    /// determinism regression.
    pub path_cache: Option<bool>,
    /// Goal-directed planning toggle (None = engine default, on): a
    /// bidirectional BFS for the unit-cost KSP, EDS and Heuristic
    /// searches. Landmark plans read landmark-rooted trees either way.
    /// Semantics-preserving modulo the planner-observability counters
    /// (`RunStats::without_planner_counters`). Used for the determinism
    /// regression and planner A/B cells.
    pub goal_directed: Option<bool>,
}

/// Scheme-level overrides (the paper's Table II and ablation rows tweak
/// routing choices). Applied to **any** scheme's cell — Splicer and
/// baselines alike — so a sweep can, say, give Spider an EDF queue or
/// force a baseline onto KSP paths.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchemeTuning {
    /// Path-selection strategy override.
    pub path_select: Option<pcn_routing::paths::PathSelect>,
    /// Path count override.
    pub num_paths: Option<usize>,
    /// Queue discipline override.
    pub discipline: Option<pcn_routing::scheduler::Discipline>,
    /// Balance-view override (stale-knowledge ablation).
    pub balance_view: Option<pcn_routing::paths::BalanceView>,
    /// Rate-control toggle (eq. 26 off in the ablation).
    pub rate_control: Option<bool>,
    /// Congestion-control toggle (queues/windows off in the ablation).
    pub congestion_control: Option<bool>,
}

impl SchemeTuning {
    /// Applies the overrides to a cell's scheme.
    ///
    /// # Panics
    ///
    /// Panics when an override sets a field that the scheme's route never
    /// reads (per `Engine::plan_paths`), since it would change nothing:
    /// direct and hub routes read the path type, the path count and the
    /// balance view; Flash reads the path type and count (its mice pools
    /// always plan on capacities); landmark routes read the count only,
    /// and the single-hub route none of them.
    fn apply(&self, s: &mut pcn_routing::SchemeConfig) {
        use pcn_routing::RouteVia;
        // Whether the route reads the path type, the count, the view.
        let (path_select, num_paths, balance_view) = match s.route_via {
            RouteVia::Direct | RouteVia::Hubs { .. } => (true, true, true),
            RouteVia::FlashMaxFlow { .. } => (true, true, false),
            RouteVia::Landmarks { .. } => (false, true, false),
            RouteVia::SingleHub { .. } => (false, false, false),
        };
        for (set, read, field) in [
            (self.path_select.is_some(), path_select, "path_select"),
            (self.num_paths.is_some(), num_paths, "num_paths"),
            (self.balance_view.is_some(), balance_view, "balance_view"),
        ] {
            assert!(
                !set || read,
                "SchemeTuning overrides `{field}` on {}, whose route never reads it",
                s.name
            );
        }
        if let Some(ps) = self.path_select {
            s.path_select = ps;
        }
        if let Some(k) = self.num_paths {
            s.num_paths = k;
        }
        if let Some(d) = self.discipline {
            s.discipline = d;
        }
        if let Some(v) = self.balance_view {
            s.balance_view = v;
        }
        if let Some(rc) = self.rate_control {
            s.rate_control = rc;
        }
        if let Some(cc) = self.congestion_control {
            s.congestion_control = cc;
        }
    }

    fn is_noop(&self) -> bool {
        *self == SchemeTuning::default()
    }
}

/// Outcome of one spec execution: the report plus expectation violations.
#[derive(Clone, Debug)]
pub struct SpecOutcome {
    /// The engine run report.
    pub report: RunReport,
    /// Human-readable expectation violations (empty = all met).
    pub violations: Vec<String>,
}

impl SpecOutcome {
    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs a spec with default tuning.
///
/// # Panics
///
/// Panics when the Splicer placement problem is infeasible for the
/// spec's world (a configuration error, not a runtime condition).
pub fn run_spec(spec: &ScenarioSpec) -> SpecOutcome {
    run_spec_tuned(spec, &RunTuning::default(), &SchemeTuning::default())
}

/// Runs a spec with explicit tuning.
///
/// # Panics
///
/// Panics when the Splicer placement problem is infeasible.
pub fn run_spec_tuned(
    spec: &ScenarioSpec,
    tuning: &RunTuning,
    scheme_tuning: &SchemeTuning,
) -> SpecOutcome {
    run_on_scenario(spec.scenario(), spec, tuning, scheme_tuning)
}

/// Runs a spec against an already-materialized world (the grid's entry
/// point — lets one `Scenario` build serve every scheme of a variant).
/// `scenario` must be the materialization of `spec.params`.
///
/// # Panics
///
/// Panics when the Splicer placement problem is infeasible.
pub fn run_on_scenario(
    scenario: Scenario,
    spec: &ScenarioSpec,
    tuning: &RunTuning,
    scheme_tuning: &SchemeTuning,
) -> SpecOutcome {
    debug_assert_eq!(scenario.params.seed, spec.params.seed);
    let mut builder = SystemBuilder::new(scenario);
    if let Some(omega) = tuning.omega {
        builder = builder.omega(omega);
    }
    if let Some(factor) = tuning.hub_fund_factor {
        builder = builder.hub_fund_factor(factor);
    }
    if let Some(tau_ms) = tuning.update_interval_ms {
        builder = builder.engine_config(pcn_routing::EngineConfig {
            update_interval: pcn_types::SimDuration::from_millis(tau_ms),
            ..Default::default()
        });
    }
    let mut prepared = match spec.scheme {
        SchemeChoice::Splicer => builder.build_splicer().expect("feasible placement"),
        SchemeChoice::Spider => builder.build_spider(),
        SchemeChoice::Flash => builder.build_flash(),
        SchemeChoice::Landmark => builder.build_landmark(),
        SchemeChoice::A2L => builder.build_a2l(),
        SchemeChoice::ShortestPath => builder.build_shortest_path(),
    };
    if !scheme_tuning.is_noop() {
        prepared.tune_scheme(|s| scheme_tuning.apply(s));
    }
    if let Some(cache) = tuning.path_cache {
        prepared.tune_engine(|cfg| cfg.use_path_cache = cache);
    }
    if let Some(goal) = tuning.goal_directed {
        prepared.tune_engine(|cfg| cfg.use_goal_directed = goal);
    }
    let report = prepared.run();
    let violations = check_expectations(spec, &report);
    SpecOutcome { report, violations }
}

fn check_expectations(spec: &ScenarioSpec, report: &RunReport) -> Vec<String> {
    let mut violations = Vec::new();
    if spec.expect.no_deadlock {
        if report.stats.drained_directions_end > 0 {
            violations.push(format!(
                "expected no deadlock, but {} channel directions ended drained",
                report.stats.drained_directions_end
            ));
        }
        if report.stats.deadlocks_detected > 0 {
            violations.push(format!(
                "expected no deadlock, but the detector fired {} time(s)",
                report.stats.deadlocks_detected
            ));
        }
    }
    if let Some(min_tsr) = spec.expect.min_tsr {
        let tsr = report.stats.tsr();
        if tsr < min_tsr {
            violations.push(format!("expected TSR ≥ {min_tsr:.3}, got {tsr:.3}"));
        }
    }
    if spec.expect.value_conserved && report.stats.conservation_violations > 0 {
        violations.push(format!(
            "expected value conservation, but {} check(s) failed",
            report.stats.conservation_violations
        ));
    }
    if let Some(min_tsr) = spec.expect.honest_min_tsr {
        let tsr = report.stats.honest_tsr();
        if tsr < min_tsr {
            violations.push(format!("expected honest TSR ≥ {min_tsr:.3}, got {tsr:.3}"));
        }
    }
    if let Some(ms) = spec.expect.bounded_stall_ms {
        let stall_us = report.stats.max_stall_us;
        if stall_us > ms.saturating_mul(1_000) {
            violations.push(format!(
                "expected honest stalls bounded by {ms} ms, got {stall_us} µs"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_workload::ScenarioBuilder;

    #[test]
    fn runs_a_tiny_spider_spec() {
        let spec = ScenarioBuilder::tiny().scheme(SchemeChoice::Spider).build();
        let outcome = run_spec(&spec);
        assert_eq!(outcome.report.scheme, "Spider");
        assert!(outcome.report.stats.generated > 0);
    }

    #[test]
    fn expectation_violation_reported() {
        // A starved world with a min-TSR of 1.0 must report a violation.
        let spec = ScenarioBuilder::tiny()
            .overload(10.0)
            .scheme(SchemeChoice::ShortestPath)
            .expect_min_tsr(1.0)
            .build();
        let outcome = run_spec(&spec);
        assert!(!outcome.passed(), "overload cannot reach TSR 1.0");
    }

    #[test]
    #[should_panic(expected = "overrides `path_select` on Landmark")]
    fn overriding_a_field_the_route_never_reads_panics() {
        let tuning = SchemeTuning {
            path_select: Some(pcn_routing::paths::PathSelect::Ksp),
            ..SchemeTuning::default()
        };
        tuning.apply(&mut pcn_routing::SchemeConfig::landmark(vec![
            pcn_types::NodeId::new(0),
        ]));
    }

    #[test]
    fn tuning_overrides_tau() {
        let spec = ScenarioBuilder::tiny().scheme(SchemeChoice::Spider).build();
        let tuning = RunTuning {
            update_interval_ms: Some(400),
            ..RunTuning::default()
        };
        let outcome = run_spec_tuned(&spec, &tuning, &SchemeTuning::default());
        assert!(outcome.report.stats.generated > 0);
    }
}
