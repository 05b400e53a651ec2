//! Experiment grids: cartesian parameter sweeps fanned across worker
//! threads.
//!
//! A grid is `variants × schemes`. Each cell is fully described by pure
//! data (a [`CellSpec`]), so any cell can be re-run standalone —
//! single-threaded — and reproduce its grid result bit for bit. Workers
//! pull cells from a shared index and write results into a slot vector,
//! so the result order is the cell order regardless of worker count or
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use pcn_routing::RunStats;
use pcn_workload::{Expectations, Scenario, ScenarioParams, ScenarioSpec, SchemeChoice};

use crate::run::{run_on_scenario, RunTuning, SchemeTuning};

/// Parameter overrides one variant applies on top of the grid's base.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Overrides {
    /// Channel-size scale factor.
    pub channel_scale: Option<f64>,
    /// Mean transaction value (tokens).
    pub mean_tx_tokens: Option<f64>,
    /// Arrival rate (tx/sec).
    pub arrivals_per_sec: Option<f64>,
    /// Channel-churn rate (close + open pairs per second) applied to the
    /// world's timeline — the dynamic-world sweep axis.
    pub churn_per_sec: Option<f64>,
    /// Fraction of clients that grief (lock hops, never settle) — the
    /// adversarial sweep axis. Writes `params.adversary.griefer_fraction`;
    /// if the spec carries no hold time yet, a default 5 s hold (beyond
    /// the 3 s TU timeout, so every griefed lock times out) is installed.
    pub griefer_fraction: Option<f64>,
    /// Root seed override (pins a variant to a fixed world).
    pub seed: Option<u64>,
    /// Expectation override (replaces the grid-wide expectations).
    pub expect: Option<Expectations>,
    /// Engine/builder tuning (ω, hub funding, τ).
    pub tuning: RunTuning,
    /// Splicer scheme tweaks (Table II / ablation rows).
    pub scheme: SchemeTuning,
}

impl Overrides {
    fn apply(&self, params: &mut ScenarioParams) {
        if let Some(cs) = self.channel_scale {
            params.channel_scale = cs;
        }
        if let Some(mean) = self.mean_tx_tokens {
            params.mean_tx_tokens = mean;
        }
        if let Some(rate) = self.arrivals_per_sec {
            params.arrivals_per_sec = rate;
        }
        if let Some(churn) = self.churn_per_sec {
            params.timeline.churn_per_sec = churn;
        }
        if let Some(fraction) = self.griefer_fraction {
            params.adversary.griefer_fraction = fraction;
            if params.adversary.griefer_hold_ms == 0 {
                params.adversary.griefer_hold_ms = 5_000;
            }
        }
        if let Some(seed) = self.seed {
            params.seed = seed;
        }
    }
}

/// One sweep point: a label, a plot-ready x value, and its overrides.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Row label ("channel scale 2.0", "− rate control", …).
    pub label: String,
    /// The swept x value (axis position in the figures).
    pub x: f64,
    /// Overrides this point applies.
    pub overrides: Overrides,
}

/// How per-cell seeds derive from the grid's root seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SeedPolicy {
    /// Every cell uses the base parameters' seed unchanged — all schemes
    /// and sweep points replay comparable worlds (the figures' setting).
    #[default]
    Shared,
    /// Each variant derives an independent seed from the root via
    /// SplitMix64, so sweep points are statistically independent while
    /// any cell remains reproducible from (root seed, variant index).
    PerVariant,
}

/// Deterministic per-variant seed derivation (SplitMix64 finalizer).
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut z = root
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fully-resolved grid cell: everything needed to run it standalone.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Position in the grid's result vector.
    pub index: usize,
    /// Which variant produced this cell.
    pub variant_index: usize,
    /// Variant label.
    pub label: String,
    /// Sweep x value.
    pub x: f64,
    /// The scenario spec (world parameters + scheme + expectations).
    pub spec: ScenarioSpec,
    /// The variant's world slot, shared by its scheme cells: the first
    /// cell to run materializes `spec.scenario()` once and siblings reuse
    /// it, so variants still build in parallel across workers.
    pub scenario: Arc<OnceLock<Scenario>>,
    /// Builder/engine tuning.
    pub tuning: RunTuning,
    /// Splicer scheme tweaks.
    pub scheme_tuning: SchemeTuning,
}

/// One measured grid cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Position in the grid (same as the cell's index).
    pub index: usize,
    /// Which variant produced this cell.
    pub variant_index: usize,
    /// Variant label.
    pub label: String,
    /// Sweep x value.
    pub x: f64,
    /// Scheme name.
    pub scheme: String,
    /// Engine statistics.
    pub stats: RunStats,
    /// Hubs placed (Splicer cells).
    pub placement_hubs: Option<usize>,
    /// Expectation violations (empty = met).
    pub violations: Vec<String>,
}

/// A cartesian experiment grid: base parameters × variants × schemes.
#[derive(Clone, Debug)]
pub struct ExperimentGrid {
    base: ScenarioParams,
    base_overrides: Overrides,
    schemes: Vec<SchemeChoice>,
    variants: Vec<Variant>,
    seed_policy: SeedPolicy,
    expectations: Expectations,
}

impl ExperimentGrid {
    /// Creates a grid over base parameters. Starts with the five compared
    /// schemes and no variants.
    pub fn new(base: ScenarioParams) -> ExperimentGrid {
        ExperimentGrid {
            base,
            base_overrides: Overrides::default(),
            schemes: SchemeChoice::COMPARED.to_vec(),
            variants: Vec::new(),
            seed_policy: SeedPolicy::Shared,
            expectations: Expectations::default(),
        }
    }

    /// Sets expectations checked on every cell (a variant's
    /// `Overrides::expect` replaces them for that variant).
    pub fn expectations(mut self, expect: Expectations) -> Self {
        self.expectations = expect;
        self
    }

    /// Replaces the scheme axis.
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = SchemeChoice>) -> Self {
        self.schemes = schemes.into_iter().collect();
        self
    }

    /// Sets overrides applied to every cell (before variant overrides).
    pub fn base_overrides(mut self, overrides: Overrides) -> Self {
        self.base_overrides = overrides;
        self
    }

    /// Selects the per-cell seed policy.
    pub fn seed_policy(mut self, policy: SeedPolicy) -> Self {
        self.seed_policy = policy;
        self
    }

    /// Adds one explicit variant.
    pub fn variant(mut self, label: impl Into<String>, x: f64, overrides: Overrides) -> Self {
        self.variants.push(Variant {
            label: label.into(),
            x,
            overrides,
        });
        self
    }

    /// Adds a channel-scale sweep axis (Fig. 7(a)/8(a)).
    pub fn sweep_channel_scale(mut self, values: &[f64]) -> Self {
        for &v in values {
            self = self.variant(
                format!("channel scale {v}"),
                v,
                Overrides {
                    channel_scale: Some(v),
                    ..Overrides::default()
                },
            );
        }
        self
    }

    /// Adds a mean-transaction-size sweep axis (Fig. 7(b)/8(b)).
    pub fn sweep_mean_tx(mut self, values: &[f64]) -> Self {
        for &v in values {
            self = self.variant(
                format!("mean tx {v}"),
                v,
                Overrides {
                    mean_tx_tokens: Some(v),
                    ..Overrides::default()
                },
            );
        }
        self
    }

    /// Adds a channel-churn sweep axis: each point runs every scheme
    /// under `v` close + open pairs per second (0 = the static world),
    /// the dynamic-world counterpart of the channel-scale sweep.
    pub fn sweep_churn_rate(mut self, values: &[f64]) -> Self {
        for &v in values {
            self = self.variant(
                format!("churn {v}/s"),
                v,
                Overrides {
                    churn_per_sec: Some(v),
                    ..Overrides::default()
                },
            );
        }
        self
    }

    /// Adds an adversarial sweep axis: each point runs every scheme with
    /// fraction `v` of the clients griefing (0 = the honest world). The
    /// interesting read-outs are [`RunStats::honest_tsr`] and
    /// `griefed_locks` per cell — how gracefully each scheme degrades as
    /// the griefer population grows.
    pub fn sweep_adversary(mut self, values: &[f64]) -> Self {
        for &v in values {
            self = self.variant(
                format!("griefers {v}"),
                v,
                Overrides {
                    griefer_fraction: Some(v),
                    ..Overrides::default()
                },
            );
        }
        self
    }

    /// Adds an update-interval (τ) sweep axis (Fig. 7(c,d)/8(c,d)).
    pub fn sweep_tau_ms(mut self, values: &[u64]) -> Self {
        for &v in values {
            self = self.variant(
                format!("tau {v}ms"),
                v as f64,
                Overrides {
                    tuning: RunTuning {
                        update_interval_ms: Some(v),
                        ..RunTuning::default()
                    },
                    ..Overrides::default()
                },
            );
        }
        self
    }

    /// Adds a placement-weight (ω) sweep axis (Fig. 9).
    pub fn sweep_omega(mut self, values: &[f64]) -> Self {
        for &v in values {
            self = self.variant(
                format!("omega {v}"),
                v,
                Overrides {
                    tuning: RunTuning {
                        omega: Some(v),
                        ..RunTuning::default()
                    },
                    ..Overrides::default()
                },
            );
        }
        self
    }

    /// Number of cells this grid expands to.
    pub fn len(&self) -> usize {
        self.variants.len() * self.schemes.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product into fully-resolved cell specs,
    /// in result order (variants outer, schemes inner).
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::with_capacity(self.len());
        for (vi, variant) in self.variants.iter().enumerate() {
            let mut params = self.base.clone();
            self.base_overrides.apply(&mut params);
            variant.overrides.apply(&mut params);
            if self.seed_policy == SeedPolicy::PerVariant && variant.overrides.seed.is_none() {
                params.seed = derive_seed(self.base.seed, vi as u64);
            }
            let tuning = merge_tuning(&self.base_overrides.tuning, &variant.overrides.tuning);
            let scheme_tuning =
                merge_scheme(&self.base_overrides.scheme, &variant.overrides.scheme);
            let expect = variant
                .overrides
                .expect
                .or(self.base_overrides.expect)
                .unwrap_or(self.expectations);
            // One world build serves every scheme of the variant — the
            // apples-to-apples comparison the figures rely on, without
            // regenerating topology and trace per scheme. The slot fills
            // lazily so distinct variants still build concurrently.
            let scenario = Arc::new(OnceLock::new());
            for &scheme in &self.schemes {
                out.push(CellSpec {
                    index: out.len(),
                    variant_index: vi,
                    label: variant.label.clone(),
                    x: variant.x,
                    spec: ScenarioSpec {
                        params: params.clone(),
                        scheme,
                        expect,
                    },
                    scenario: Arc::clone(&scenario),
                    tuning,
                    scheme_tuning,
                });
            }
        }
        out
    }

    /// Runs one cell standalone (bit-identical to its in-grid result).
    pub fn run_cell(cell: &CellSpec) -> CellResult {
        let scenario = cell
            .scenario
            .get_or_init(|| Scenario::build(cell.spec.params.clone()))
            .clone();
        let outcome = run_on_scenario(scenario, &cell.spec, &cell.tuning, &cell.scheme_tuning);
        CellResult {
            index: cell.index,
            variant_index: cell.variant_index,
            label: cell.label.clone(),
            x: cell.x,
            scheme: outcome.report.scheme.clone(),
            placement_hubs: outcome.report.placement.as_ref().map(|p| p.hubs),
            stats: outcome.report.stats,
            violations: outcome.violations,
        }
    }

    /// Runs every cell across `workers` threads and returns results in
    /// cell order. `workers = 1` degenerates to a serial run; any worker
    /// count yields identical results because cells are independent and
    /// slotted by index.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread panics.
    pub fn run(&self, workers: usize) -> Vec<CellResult> {
        assert!(workers > 0, "need at least one worker");
        let cells = self.cells();
        if cells.is_empty() {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; cells.len()]);
        let threads = workers.min(cells.len());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let result = Self::run_cell(cell);
                    slots.lock().expect("result lock")[i] = Some(result);
                });
            }
        });
        slots
            .into_inner()
            .expect("result lock")
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect()
    }
}

fn merge_tuning(base: &RunTuning, variant: &RunTuning) -> RunTuning {
    RunTuning {
        omega: variant.omega.or(base.omega),
        hub_fund_factor: variant.hub_fund_factor.or(base.hub_fund_factor),
        update_interval_ms: variant.update_interval_ms.or(base.update_interval_ms),
        path_cache: variant.path_cache.or(base.path_cache),
        goal_directed: variant.goal_directed.or(base.goal_directed),
    }
}

fn merge_scheme(base: &SchemeTuning, variant: &SchemeTuning) -> SchemeTuning {
    SchemeTuning {
        path_select: variant.path_select.or(base.path_select),
        num_paths: variant.num_paths.or(base.num_paths),
        discipline: variant.discipline.or(base.discipline),
        balance_view: variant.balance_view.or(base.balance_view),
        rate_control: variant.rate_control.or(base.rate_control),
        congestion_control: variant.congestion_control.or(base.congestion_control),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_workload::ScenarioParams;

    fn tiny_grid() -> ExperimentGrid {
        ExperimentGrid::new(ScenarioParams::tiny())
            .schemes([SchemeChoice::Spider, SchemeChoice::ShortestPath])
            .sweep_channel_scale(&[1.0, 2.0])
    }

    #[test]
    fn cartesian_expansion_order() {
        let cells = tiny_grid().cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].label, "channel scale 1");
        assert_eq!(cells[0].spec.scheme, SchemeChoice::Spider);
        assert_eq!(cells[1].spec.scheme, SchemeChoice::ShortestPath);
        assert_eq!(cells[2].label, "channel scale 2");
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let grid = tiny_grid();
        let serial = grid.run(1);
        let parallel = grid.run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.stats, b.stats, "cell {} diverged across workers", a.index);
        }
    }

    #[test]
    fn single_cell_reproduces_grid_result() {
        let grid = tiny_grid();
        let all = grid.run(2);
        let cells = grid.cells();
        let lone = ExperimentGrid::run_cell(&cells[3]);
        assert_eq!(lone.stats, all[3].stats);
    }

    #[test]
    fn per_variant_seeds_differ_but_are_stable() {
        let grid = tiny_grid().seed_policy(SeedPolicy::PerVariant);
        let cells = grid.cells();
        assert_ne!(cells[0].spec.params.seed, cells[2].spec.params.seed);
        let again = grid.cells();
        assert_eq!(cells[0].spec.params.seed, again[0].spec.params.seed);
    }

    #[test]
    fn expectations_flow_through_grid_cells() {
        let unreachable = Expectations {
            min_tsr: Some(1.1),
            no_deadlock: false,
            value_conserved: false,
            honest_min_tsr: None,
            bounded_stall_ms: None,
        };
        let results = ExperimentGrid::new(ScenarioParams::tiny())
            .schemes([SchemeChoice::ShortestPath])
            .expectations(unreachable)
            .sweep_channel_scale(&[1.0])
            .run(2);
        assert!(
            !results[0].violations.is_empty(),
            "TSR can never reach 1.1, the cell must report the violation"
        );
    }

    #[test]
    fn sibling_cells_share_one_world_slot() {
        let grid = ExperimentGrid::new(ScenarioParams::tiny())
            .schemes([SchemeChoice::Spider, SchemeChoice::ShortestPath])
            .sweep_channel_scale(&[1.0]);
        let cells = grid.cells();
        assert!(Arc::ptr_eq(&cells[0].scenario, &cells[1].scenario));
        let _ = ExperimentGrid::run_cell(&cells[0]);
        assert!(
            cells[0].scenario.get().is_some(),
            "first run fills the slot"
        );
    }

    #[test]
    fn scheme_tuning_applies_to_baseline_cells() {
        // Sweep a *tuned* Spider: forcing single-path KSP routing must
        // change the measured run versus stock Spider on the same world.
        let tuned = SchemeTuning {
            path_select: Some(pcn_routing::paths::PathSelect::Ksp),
            num_paths: Some(1),
            ..SchemeTuning::default()
        };
        let base = ScenarioParams::tiny();
        let stock = ExperimentGrid::new(base.clone())
            .schemes([SchemeChoice::Spider])
            .sweep_channel_scale(&[1.0])
            .run(1);
        let overridden = ExperimentGrid::new(base)
            .schemes([SchemeChoice::Spider])
            .base_overrides(Overrides {
                scheme: tuned,
                ..Overrides::default()
            })
            .sweep_channel_scale(&[1.0])
            .run(2);
        assert_eq!(stock.len(), 1);
        assert_eq!(overridden.len(), 1);
        assert_ne!(
            stock[0].stats, overridden[0].stats,
            "a single-KSP Spider must measure differently from stock Spider"
        );
    }

    #[test]
    fn cache_toggle_changes_only_cache_counters() {
        let base = ScenarioParams::tiny();
        let grid = |cache| {
            ExperimentGrid::new(base.clone())
                .schemes([SchemeChoice::Flash])
                .base_overrides(Overrides {
                    tuning: RunTuning {
                        path_cache: Some(cache),
                        ..RunTuning::default()
                    },
                    ..Overrides::default()
                })
                .sweep_channel_scale(&[1.0])
                .run(1)
        };
        let on = grid(true);
        let off = grid(false);
        assert!(on[0].stats.path_cache.hits > 0, "Flash mice must hit");
        assert_eq!(off[0].stats.path_cache.lookups(), 0);
        assert_eq!(
            on[0].stats.without_cache_counters(),
            off[0].stats.without_cache_counters(),
            "the cache must be invisible in the semantic stats"
        );
    }

    #[test]
    fn churn_sweep_flows_into_the_timeline() {
        let grid = ExperimentGrid::new(ScenarioParams::tiny())
            .schemes([SchemeChoice::Spider])
            .sweep_churn_rate(&[0.0, 1.0]);
        let cells = grid.cells();
        assert_eq!(cells[0].spec.params.timeline.churn_per_sec, 0.0);
        assert_eq!(cells[1].spec.params.timeline.churn_per_sec, 1.0);
        let results = grid.run(2);
        assert_eq!(results[0].stats.world_events_applied, 0, "static point");
        assert!(
            results[1].stats.world_events_applied >= 2 * 10,
            "1/s churn over the 10 s tiny world applies ≥20 events, got {}",
            results[1].stats.world_events_applied
        );
        assert_ne!(
            results[0].stats, results[1].stats,
            "churn must actually perturb the run"
        );
    }

    #[test]
    fn adversary_sweep_flows_into_the_spec_and_perturbs_the_run() {
        let grid = ExperimentGrid::new(ScenarioParams::tiny())
            .schemes([SchemeChoice::Spider])
            .sweep_adversary(&[0.0, 0.25]);
        let cells = grid.cells();
        assert_eq!(cells[0].spec.params.adversary.griefer_fraction, 0.0);
        assert_eq!(cells[1].spec.params.adversary.griefer_fraction, 0.25);
        assert_eq!(
            cells[1].spec.params.adversary.griefer_hold_ms, 5_000,
            "the sweep installs a default hold beyond the TU timeout"
        );
        let results = grid.run(2);
        assert_eq!(results[0].stats.griefed_locks, 0, "honest point");
        assert!(
            results[1].stats.griefed_locks > 0,
            "a quarter of the clients griefing must show up in the stats"
        );
        assert!(
            results[1].stats.honest_tsr() >= results[1].stats.tsr(),
            "griefer payments never complete, so honest TSR ≥ overall TSR"
        );
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0));
    }
}
