//! One-call system builders: Splicer and every baseline on a shared world.
//!
//! [`SystemBuilder`] takes a [`Scenario`] (topology + candidates + payment
//! trace) and produces [`PreparedRun`]s. All schemes replay the *same*
//! payment trace; hub-based schemes get their rewired topologies
//! (multi-star for Splicer, single star for A2L) funded from the same
//! channel-size distribution.

use std::collections::BTreeMap;

use pcn_placement::{CostParams, PlacementInstance, PlacementPlan, PlacementSolver};
use pcn_routing::tu::Payment;
use pcn_routing::{Engine, EngineConfig, RunStats, SchemeConfig};
use pcn_sim::SimRng;
use pcn_types::{Amount, NodeId, Result, SimDuration};
use pcn_workload::{PcnTopology, Scenario};

use crate::voting::{elect_candidates, VotingWeights};

/// Summary of a placement decision attached to hub-based runs.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementSummary {
    /// Number of placed hubs.
    pub hubs: usize,
    /// Management cost C_M.
    pub management_cost: f64,
    /// Synchronization cost C_S.
    pub synchronization_cost: f64,
    /// Balance cost C_B.
    pub balance_cost: f64,
    /// Tradeoff weight ω used.
    pub omega: f64,
}

/// Outcome of one scheme run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scheme name ("Splicer", "Spider", …).
    pub scheme: String,
    /// Engine statistics.
    pub stats: RunStats,
    /// Placement decision, for hub-based schemes.
    pub placement: Option<PlacementSummary>,
}

/// A scheme instance ready to execute.
pub struct PreparedRun {
    name: String,
    topology: PcnTopology,
    scheme: SchemeConfig,
    engine_cfg: EngineConfig,
    payments: Vec<Payment>,
    /// Materialized world-event timeline, shared by every scheme of the
    /// scenario (the engine resolves selectors against its own topology).
    timeline: Vec<pcn_routing::world::WorldEvent>,
    /// Materialized fault plan, likewise shared by every scheme (the
    /// engine resolves rogue-hub ranks against its own hub set; an
    /// empty plan installs nothing).
    faults: pcn_routing::FaultPlan,
    seed: u64,
    placement: Option<PlacementSummary>,
}

impl PreparedRun {
    /// The scheme name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Applies a scheme override in place. This is how the harness's
    /// `SchemeTuning` reaches *every* scheme — Splicer and the baselines
    /// alike — so ablation rows can tune a baseline's path selection,
    /// discipline or controllers too.
    pub fn tune_scheme<F>(&mut self, tweak: F)
    where
        F: FnOnce(&mut SchemeConfig),
    {
        tweak(&mut self.scheme);
    }

    /// Applies an engine-config override in place (cache toggles, τ, …).
    pub fn tune_engine<F>(&mut self, tweak: F)
    where
        F: FnOnce(&mut EngineConfig),
    {
        tweak(&mut self.engine_cfg);
    }

    /// The topology this run executes on (inspection/tests).
    pub fn topology(&self) -> &PcnTopology {
        &self.topology
    }

    /// Executes the run.
    pub fn run(self) -> RunReport {
        let stats = Engine::new(
            self.topology.graph,
            self.topology.funds,
            self.scheme,
            self.engine_cfg,
            SimRng::seed(self.seed),
        )
        .with_timeline(self.timeline)
        .with_faults(self.faults)
        .run(self.payments);
        RunReport {
            scheme: self.name,
            stats,
            placement: self.placement,
        }
    }
}

/// Builder over a scenario; see the crate-level example.
pub struct SystemBuilder {
    scenario: Scenario,
    omega: f64,
    solver: PlacementSolver,
    engine_cfg: EngineConfig,
    hub_fund_factor: f64,
    a2l_crypto: SimDuration,
    flash_threshold: Amount,
    run_seed: u64,
}

impl SystemBuilder {
    /// Creates a builder with paper-default knobs (ω = 0.5, automatic
    /// placement solver, default engine config).
    pub fn new(scenario: Scenario) -> SystemBuilder {
        SystemBuilder {
            scenario,
            omega: 0.04,
            solver: PlacementSolver::Auto,
            engine_cfg: EngineConfig::default(),
            hub_fund_factor: 20.0,
            a2l_crypto: SimDuration::from_millis(42),
            flash_threshold: Amount::from_tokens(40),
            run_seed: 7,
        }
    }

    /// Sets the placement tradeoff weight ω.
    pub fn omega(mut self, omega: f64) -> SystemBuilder {
        self.omega = omega;
        self
    }

    /// Selects the placement solver.
    pub fn solver(mut self, solver: PlacementSolver) -> SystemBuilder {
        self.solver = solver;
        self
    }

    /// Overrides the engine configuration (τ sweeps etc.).
    pub fn engine_config(mut self, cfg: EngineConfig) -> SystemBuilder {
        self.engine_cfg = cfg;
        self
    }

    /// Overrides the hub capitalization multiplier.
    pub fn hub_fund_factor(mut self, factor: f64) -> SystemBuilder {
        self.hub_fund_factor = factor;
        self
    }

    /// Overrides A2L's per-transaction cryptographic service time.
    pub fn a2l_crypto(mut self, cost: SimDuration) -> SystemBuilder {
        self.a2l_crypto = cost;
        self
    }

    /// Access to the underlying scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Solves the placement problem on the scenario (exposed for the
    /// placement-evaluation harness, Fig. 9).
    ///
    /// # Errors
    ///
    /// Propagates solver failures (infeasibility, size guards).
    pub fn solve_placement(&self) -> Result<(PlacementInstance, PlacementPlan)> {
        let inst = PlacementInstance::from_graph(
            &self.scenario.flat.graph,
            self.scenario.clients.clone(),
            self.scenario.candidates.clone(),
            CostParams::paper(self.omega),
        );
        let mut rng = SimRng::seed(self.scenario.params.seed ^ 0x9e37);
        let plan = self.solver.solve(&inst, &mut rng)?;
        Ok((inst, plan))
    }

    /// Runs the §III-B multiwinner election on the flat world and
    /// returns the fraction of the elected nodes that are on the
    /// scenario's candidate list (a diagnostic for the trust model; 0
    /// when nobody is elected).
    ///
    /// It runs one BFS per node, so it is computed on each call and no
    /// run builds it: call it once per world.
    pub fn voting_overlap(&self) -> f64 {
        let elected = elect_candidates(
            &self.scenario.flat.graph,
            &self.scenario.flat.funds,
            self.scenario.candidates.len(),
            VotingWeights::default(),
        );
        if elected.is_empty() {
            return 0.0;
        }
        let hits = elected
            .iter()
            .filter(|e| self.scenario.candidates.contains(e))
            .count();
        hits as f64 / elected.len() as f64
    }

    /// The hub backbone: a minimum-spanning skeleton over the hubs'
    /// flat-graph hop distances plus each hub's two nearest peers. This
    /// keeps the backbone connected but *sparse*, so Splicer's path
    /// selection between hubs is non-trivial (the paper's hubs are
    /// "connected directly or indirectly", not a clique).
    #[allow(clippy::needless_range_loop)] // pairwise matrix walks read clearer indexed
    fn hub_mesh(&self, hubs: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let g = &self.scenario.flat.graph;
        let h = hubs.len();
        if h <= 1 {
            return Vec::new();
        }
        let mut dist = vec![vec![u32::MAX; h]; h];
        for (i, &a) in hubs.iter().enumerate() {
            let hops = pcn_graph::bfs_hops(g, a);
            for (j, &b) in hubs.iter().enumerate() {
                dist[i][j] = hops[b.index()];
            }
        }
        let mut edges: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        // Kruskal over hop distances guarantees a connected skeleton.
        let mut pairs: Vec<(u32, usize, usize)> = Vec::new();
        for i in 0..h {
            for j in (i + 1)..h {
                pairs.push((dist[i][j], i, j));
            }
        }
        pairs.sort();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        let mut parent: Vec<usize> = (0..h).collect();
        for &(_, i, j) in &pairs {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri] = rj;
                edges.insert((i, j));
            }
        }
        // Redundancy: each hub also links to its two nearest peers.
        for i in 0..h {
            let mut near: Vec<usize> = (0..h).filter(|&j| j != i).collect();
            near.sort_by_key(|&j| dist[i][j]);
            for &j in near.iter().take(2) {
                edges.insert((i.min(j), i.max(j)));
            }
        }
        edges.into_iter().map(|(i, j)| (hubs[i], hubs[j])).collect()
    }

    /// Builds the Splicer run: placement → multi-star rewiring → hub
    /// routing with rate/congestion control.
    ///
    /// # Errors
    ///
    /// Fails when the placement problem is infeasible.
    pub fn build_splicer(&self) -> Result<PreparedRun> {
        let (inst, plan) = self.solve_placement()?;
        let assignment: BTreeMap<NodeId, NodeId> = self
            .scenario
            .clients
            .iter()
            .enumerate()
            .map(|(pos, &client)| (client, plan.hub_of_client(&inst, pos)))
            .collect();
        let mut rng = SimRng::seed(self.scenario.params.seed ^ 0x5151);
        let mesh = self.hub_mesh(plan.hubs());
        let topology = PcnTopology::multi_star_with_mesh(
            self.scenario.params.nodes,
            plan.hubs(),
            &mesh,
            &assignment,
            &self.scenario.sampler,
            self.hub_fund_factor,
            &mut rng,
        );
        Ok(PreparedRun {
            name: "Splicer".into(),
            topology,
            scheme: SchemeConfig::splicer(assignment),
            engine_cfg: self.engine_cfg.clone(),
            payments: self.scenario.payments.clone(),
            timeline: self.scenario.timeline.clone(),
            faults: self.scenario.faults.clone(),
            seed: self.run_seed,
            placement: Some(PlacementSummary {
                hubs: plan.num_hubs(),
                management_cost: plan.management_cost(),
                synchronization_cost: plan.synchronization_cost(),
                balance_cost: plan.balance_cost(),
                omega: self.omega,
            }),
        })
    }

    fn flat_run(&self, name: &str, scheme: SchemeConfig) -> PreparedRun {
        PreparedRun {
            name: name.into(),
            topology: self.scenario.flat.clone(),
            scheme,
            engine_cfg: self.engine_cfg.clone(),
            payments: self.scenario.payments.clone(),
            timeline: self.scenario.timeline.clone(),
            faults: self.scenario.faults.clone(),
            seed: self.run_seed,
            placement: None,
        }
    }

    /// Builds the Spider baseline (source routing on the flat topology).
    pub fn build_spider(&self) -> PreparedRun {
        self.flat_run("Spider", SchemeConfig::spider())
    }

    /// Builds the Flash baseline.
    pub fn build_flash(&self) -> PreparedRun {
        let mut cfg = self.engine_cfg.clone();
        cfg.max_retries = 1;
        let mut run = self.flat_run("Flash", SchemeConfig::flash(self.flash_threshold));
        run.engine_cfg = cfg;
        run
    }

    /// Builds the Landmark baseline (top candidates as landmarks).
    pub fn build_landmark(&self) -> PreparedRun {
        let landmarks: Vec<NodeId> = self.scenario.candidates.iter().copied().take(5).collect();
        self.flat_run("Landmark", SchemeConfig::landmark(landmarks))
    }

    /// Builds the A2L baseline: a single-hub star with per-transaction
    /// crypto cost at the hub.
    pub fn build_a2l(&self) -> PreparedRun {
        let hub = self.scenario.candidates[0];
        let mut rng = SimRng::seed(self.scenario.params.seed ^ 0xa21);
        let topology = PcnTopology::single_star(
            self.scenario.params.nodes,
            hub,
            &self.scenario.clients,
            &self.scenario.sampler,
            self.hub_fund_factor,
            &mut rng,
        );
        PreparedRun {
            name: "A2L".into(),
            topology,
            scheme: SchemeConfig::a2l(hub, self.a2l_crypto),
            engine_cfg: self.engine_cfg.clone(),
            payments: self.scenario.payments.clone(),
            timeline: self.scenario.timeline.clone(),
            faults: self.scenario.faults.clone(),
            seed: self.run_seed,
            placement: None,
        }
    }

    /// Builds the naive shortest-path strawman (deadlock demos).
    pub fn build_shortest_path(&self) -> PreparedRun {
        self.flat_run("ShortestPath", SchemeConfig::shortest_path())
    }

    /// Builds all five compared schemes (Figs. 7–8).
    ///
    /// # Errors
    ///
    /// Fails if the Splicer placement is infeasible.
    pub fn build_all(&self) -> Result<Vec<PreparedRun>> {
        Ok(vec![
            self.build_splicer()?,
            self.build_spider(),
            self.build_flash(),
            self.build_landmark(),
            self.build_a2l(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_workload::ScenarioParams;

    fn tiny_builder() -> SystemBuilder {
        SystemBuilder::new(Scenario::build(ScenarioParams::tiny()))
    }

    #[test]
    fn splicer_pipeline_builds_and_runs() {
        let report = tiny_builder().build_splicer().unwrap().run();
        assert_eq!(report.scheme, "Splicer");
        let placement = report.placement.expect("splicer has a placement");
        assert!(placement.hubs >= 1);
        assert!(placement.balance_cost > 0.0);
        assert!(report.stats.generated > 0);
        assert!(report.stats.tsr() > 0.5, "{}", report.stats);
    }

    #[test]
    fn all_schemes_run_on_shared_trace() {
        let builder = tiny_builder();
        let runs = builder.build_all().unwrap();
        assert_eq!(runs.len(), 5);
        let expected = ["Splicer", "Spider", "Flash", "Landmark", "A2L"];
        for (run, name) in runs.into_iter().zip(expected) {
            assert_eq!(run.name(), name);
            let report = run.run();
            assert_eq!(
                report.stats.generated,
                builder.scenario().payments.len() as u64,
                "{name} replays the full trace"
            );
        }
    }

    #[test]
    fn splicer_topology_is_multi_star() {
        let builder = tiny_builder();
        let run = builder.build_splicer().unwrap();
        let hubs = run
            .topology()
            .graph
            .nodes()
            .filter(|&v| run.topology().graph.degree(v) > 1)
            .count();
        // Clients are degree-1 leaves.
        let clients = builder.scenario().clients.len();
        let leaves = run
            .topology()
            .graph
            .nodes()
            .filter(|&v| run.topology().graph.degree(v) == 1)
            .count();
        assert_eq!(leaves, clients);
        assert!(hubs >= 1);
    }

    #[test]
    fn omega_changes_placement() {
        let low = tiny_builder().omega(0.01).build_splicer().unwrap();
        let high = tiny_builder().omega(50.0).build_splicer().unwrap();
        let low_hubs = low.run().placement.unwrap().hubs;
        let high_hubs = high.run().placement.unwrap().hubs;
        assert!(
            low_hubs >= high_hubs,
            "cheap sync ⇒ at least as many hubs ({low_hubs} vs {high_hubs})"
        );
    }

    /// The election runs on request, from the scenario alone: the
    /// overlap is a fraction, the same on every call and on a second
    /// builder over the same scenario, and at least one elected node is
    /// on the candidate list of the tiny world.
    #[test]
    fn voting_overlap_reported() {
        let builder = tiny_builder();
        let overlap = builder.voting_overlap();
        assert!(overlap > 0.0 && overlap <= 1.0, "overlap {overlap}");
        assert_eq!(builder.voting_overlap(), overlap);
        assert_eq!(tiny_builder().voting_overlap(), overlap);
    }

    #[test]
    fn table2_tweaks_apply() {
        use pcn_routing::paths::PathSelect;
        use pcn_routing::scheduler::Discipline;
        let mut run = tiny_builder().build_splicer().unwrap();
        run.tune_scheme(|s| {
            s.path_select = PathSelect::Ksp;
            s.discipline = Discipline::Edf;
            s.num_paths = 3;
        });
        let report = run.run();
        assert!(report.stats.generated > 0);
    }
}
