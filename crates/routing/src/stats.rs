//! Run statistics: the measurements behind every figure.

use pcn_sim::metrics::Histogram;
use pcn_types::Amount;

use crate::cache::PathCacheStats;

/// Aggregated outcome of one engine run.
///
/// Equality ignores [`RunStats::wall_secs`] (wall-clock time is
/// machine-dependent by nature); every other field — including the
/// diagnostic cache counters — participates, and the determinism suite
/// compares the semantic payload via
/// [`RunStats::without_cache_counters`].
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Transactions generated.
    pub generated: u64,
    /// Total value generated.
    pub generated_value: Amount,
    /// Transactions fully completed before their deadline.
    pub completed: u64,
    /// Total value of completed transactions.
    pub completed_value: Amount,
    /// Transactions that failed (timeout or unroutable).
    pub failed: u64,
    /// Completion latency of successful transactions (seconds).
    pub latency: Histogram,
    /// Messages × hops: TU forwards + acks + probes + state sync.
    pub overhead_msgs: u64,
    /// TUs that were congestion-marked.
    pub marked_tus: u64,
    /// TUs aborted (timeout, queue overflow, dead channel).
    pub aborted_tus: u64,
    /// TUs delivered.
    pub delivered_tus: u64,
    /// Directed channel sides fully drained at the end (deadlock symptom).
    pub drained_directions_end: usize,
    /// Payments that found no path at all.
    pub unroutable: u64,
    /// World-timeline events applied mid-run (rate shifts, hub outages
    /// and recoveries, channel churn, rebalances). Semantic — identical
    /// across cache and worker configurations of the same run.
    pub world_events_applied: u64,
    /// In-flight TUs expired (refunded) because a channel on their path
    /// closed mid-run. Semantic, like [`RunStats::aborted_tus`] (which
    /// includes them).
    pub tus_expired_by_close: u64,
    /// CSR adjacency compactions the graph performed during the run
    /// (watermark-triggered rebuilds absorbing churn tombstones and the
    /// delta overlay). Semantic: compaction timing is a pure function of
    /// the mutation sequence, so this must be identical across
    /// cache and worker configurations of the same run.
    pub graph_compactions: u64,
    /// Adversarial fault interventions applied (channel drops, injected
    /// delays, rogue-hub stalls/misorders; griefed locks are counted
    /// separately). Semantic: fault decisions are pure hashes of the
    /// plan salt and the forward's identity, identical across
    /// cache and worker configurations.
    pub faults_injected: u64,
    /// Hop locks acquired by griefer TUs and then stalled for the plan's
    /// hold time (the lock-and-stall attack's footprint). Semantic.
    pub griefed_locks: u64,
    /// Deadlock-detector firings: price ticks at which no lock or settle
    /// had happened for a whole interval while a fully-drained channel
    /// cycle existed (edge-triggered — one firing per stall episode).
    /// Only adversarial runs arm the detector. Semantic.
    pub deadlocks_detected: u64,
    /// Honest (non-adversary-originated) payments generated: everything
    /// except griefer and circular-demand ring traffic. Equals
    /// [`RunStats::generated`] on honest runs. Semantic.
    pub honest_generated: u64,
    /// Honest payments completed before their deadline. Semantic.
    pub honest_completed: u64,
    /// Largest extra fault-injected forwarding delay applied to any
    /// honest TU, in microseconds (griefers stalling their *own* TUs are
    /// excluded — this measures collateral damage). Semantic; merges as
    /// a max like the wall clock.
    pub max_stall_us: u64,
    /// End-of-run value-conservation failures (0 = every channel's
    /// spendable + locked still sums to its funding). Checked in release
    /// builds too, so adversarial runs cannot silently leak value.
    /// Semantic.
    pub conservation_violations: u64,
    /// Payment plans that went through a goal-directed computation:
    /// [`crate::EngineConfig::use_goal_directed`] on and the scheme's
    /// plan running accelerable searches for this payment (unit-cost
    /// KSP/EDS/Heuristic selection, landmark hub-leg trees, Flash mice
    /// pools). Semantic across cache and worker configurations of
    /// one run; it legitimately differs across the toggle itself, which
    /// is what [`RunStats::without_planner_counters`] is for.
    pub goal_directed_plans: u64,
    /// Nodes settled by every Dijkstra-family search the planner ran
    /// (widest-path and max-flow searches are not counted). A plain
    /// search settles a node at its non-stale heap pop; a goal-directed
    /// BFS counts each node whose adjacency it expanded: either side of
    /// a point-to-point search, its restricted forward sweep, or a tree
    /// level. Diagnostic like the cache counters: a cache hit skips its
    /// searches entirely, so cached and uncached runs differ here.
    pub nodes_settled: u64,
    /// Path-cache counters (hits/misses/invalidations/evictions).
    /// Diagnostic only: the cache is semantics-preserving, so these are
    /// the *only* fields allowed to differ between a cached and an
    /// uncached run of the same seed (pinned by `tests/determinism.rs`).
    pub path_cache: PathCacheStats,
    /// Wall-clock seconds the engine's event loop took (measured, not
    /// simulated). Diagnostic only — excluded from equality — and the
    /// input to [`RunStats::payments_per_sec`].
    pub wall_secs: f64,
}

/// A started wall-clock measurement. Obtain one via [`wall_timer`].
#[derive(Debug)]
pub struct WallTimer {
    start: std::time::Instant,
}

impl WallTimer {
    /// Seconds elapsed since the timer was started.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Starts a wall-clock timer.
///
/// This is the workspace's single allowlisted ambient-clock site
/// (splicer-lint R2): every semantic wall-clock measurement funnels
/// through here, and the only thing it can feed is the diagnostic
/// [`RunStats::wall_secs`] field, which equality already ignores.
/// Benches keep raw `Instant` via the tests/benches exemption.
pub fn wall_timer() -> WallTimer {
    WallTimer {
        start: std::time::Instant::now(),
    }
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything except the machine-dependent wall clock. The
        // exhaustive destructure makes adding a field without deciding
        // its equality role a compile error — silently excluding a new
        // counter would hollow out every determinism assertion.
        let RunStats {
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
            nodes_settled,
            path_cache,
            wall_secs: _,
        } = self;
        *generated == other.generated
            && *generated_value == other.generated_value
            && *completed == other.completed
            && *completed_value == other.completed_value
            && *failed == other.failed
            && *latency == other.latency
            && *overhead_msgs == other.overhead_msgs
            && *marked_tus == other.marked_tus
            && *aborted_tus == other.aborted_tus
            && *delivered_tus == other.delivered_tus
            && *drained_directions_end == other.drained_directions_end
            && *unroutable == other.unroutable
            && *world_events_applied == other.world_events_applied
            && *tus_expired_by_close == other.tus_expired_by_close
            && *graph_compactions == other.graph_compactions
            && *faults_injected == other.faults_injected
            && *griefed_locks == other.griefed_locks
            && *deadlocks_detected == other.deadlocks_detected
            && *honest_generated == other.honest_generated
            && *honest_completed == other.honest_completed
            && *max_stall_us == other.max_stall_us
            && *conservation_violations == other.conservation_violations
            && *goal_directed_plans == other.goal_directed_plans
            && *nodes_settled == other.nodes_settled
            && *path_cache == other.path_cache
    }
}

impl RunStats {
    /// Transaction success ratio: completed / generated (§V-B).
    pub fn tsr(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.completed as f64 / self.generated as f64
        }
    }

    /// Normalized throughput: completed value / generated value (§V-B).
    pub fn normalized_throughput(&self) -> f64 {
        self.completed_value.ratio(self.generated_value)
    }

    /// Mean completion latency in seconds (0 when nothing completed).
    pub fn avg_latency_secs(&self) -> f64 {
        self.latency.mean()
    }

    /// Engine throughput: payments processed per wall-clock second
    /// (0 when the run was not timed). Sweeps surface this next to the
    /// success ratio so event-loop performance is visible per cell.
    pub fn payments_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.generated as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Honest-traffic success ratio: honest completions over honest
    /// generations — the number an adversarial sweep watches, since the
    /// attacker's own traffic failing is not degradation. Equals
    /// [`RunStats::tsr`] on honest runs.
    pub fn honest_tsr(&self) -> f64 {
        if self.honest_generated == 0 {
            0.0
        } else {
            self.honest_completed as f64 / self.honest_generated as f64
        }
    }

    /// Whether the bookkeeping is internally consistent. Adversarial
    /// runs are held to the same bounds as honest ones — the honest
    /// sub-counters must nest inside the totals and every griefed lock
    /// must have been a counted lock message — so fault injection cannot
    /// silently break value accounting.
    pub fn is_consistent(&self) -> bool {
        self.completed + self.failed <= self.generated
            && self.completed_value <= self.generated_value
            && self.honest_generated <= self.generated
            && self.honest_completed <= self.honest_generated
            && self.honest_completed <= self.completed
            && self.griefed_locks <= self.overhead_msgs
            && self.conservation_violations == 0
    }

    /// Aggregates several runs' statistics into one: semantic counters
    /// sum, latency histograms concatenate, cache counters combine per
    /// cause, and the wall clock (equality-exempt, as ever) takes the
    /// max — the convention for concurrently-executed parts. Merging a
    /// single run reproduces it exactly (pinned by
    /// `merge_of_one_is_identity`); merging nothing is the zero run.
    ///
    /// This is *summing* aggregation, for disjoint workloads (sweep
    /// cells, split traces).
    pub fn merge(runs: &[RunStats]) -> RunStats {
        let mut out = RunStats::default();
        for run in runs {
            // Exhaustive destructure: a new field must choose its merge
            // role here or this stops compiling.
            let RunStats {
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
                nodes_settled,
                path_cache,
                wall_secs,
            } = run;
            out.generated += generated;
            out.generated_value += *generated_value;
            out.completed += completed;
            out.completed_value += *completed_value;
            out.failed += failed;
            out.latency.merge(latency);
            out.overhead_msgs += overhead_msgs;
            out.marked_tus += marked_tus;
            out.aborted_tus += aborted_tus;
            out.delivered_tus += delivered_tus;
            out.drained_directions_end += drained_directions_end;
            out.unroutable += unroutable;
            out.world_events_applied += world_events_applied;
            out.tus_expired_by_close += tus_expired_by_close;
            out.graph_compactions += graph_compactions;
            out.faults_injected += faults_injected;
            out.griefed_locks += griefed_locks;
            out.deadlocks_detected += deadlocks_detected;
            out.honest_generated += honest_generated;
            out.honest_completed += honest_completed;
            // The worst stall across the merged parts, like the wall clock.
            out.max_stall_us = out.max_stall_us.max(*max_stall_us);
            out.conservation_violations += conservation_violations;
            out.goal_directed_plans += goal_directed_plans;
            out.nodes_settled += nodes_settled;
            out.path_cache.absorb(path_cache);
            out.wall_secs = out.wall_secs.max(*wall_secs);
        }
        out
    }

    /// This run with the diagnostic cache counters zeroed — the semantic
    /// payload that must be identical regardless of caching, worker
    /// count, or workspace reuse.
    pub fn without_cache_counters(&self) -> RunStats {
        RunStats {
            path_cache: PathCacheStats::default(),
            nodes_settled: 0,
            wall_secs: 0.0,
            ..self.clone()
        }
    }

    /// This run with every planner-observability counter zeroed —
    /// [`RunStats::goal_directed_plans`] and
    /// [`RunStats::nodes_settled`]. Composed with
    /// [`RunStats::without_cache_counters`], this is the payload that
    /// must be bit-identical when `use_goal_directed` is flipped: the
    /// accelerated searches return the same paths, only the bookkeeping
    /// about *how* they were found may change.
    pub fn without_planner_counters(&self) -> RunStats {
        RunStats {
            goal_directed_plans: 0,
            nodes_settled: 0,
            ..self.clone()
        }
    }
}

impl core::fmt::Display for RunStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "tsr={:.3} throughput={:.3} latency={:.3}s gen={} done={} fail={} unroutable={} \
             tus={}del/{}abort/{}marked overhead={} \
             drained={} cache={}h/{}m/{}i[{}t/{}fp]/{}e world={}ev/{}exp/{}gc \
             adv={}f/{}g/{}dl stall={}us honest={}/{} viol={} \
             planner={}gd/{}ns pps={:.0}",
            self.tsr(),
            self.normalized_throughput(),
            self.avg_latency_secs(),
            self.generated,
            self.completed,
            self.failed,
            self.unroutable,
            self.delivered_tus,
            self.aborted_tus,
            self.marked_tus,
            self.overhead_msgs,
            self.drained_directions_end,
            self.path_cache.hits,
            self.path_cache.misses,
            self.path_cache.invalidations(),
            self.path_cache.inv_topology,
            self.path_cache.inv_footprint,
            self.path_cache.evictions,
            self.world_events_applied,
            self.tus_expired_by_close,
            self.graph_compactions,
            self.faults_injected,
            self.griefed_locks,
            self.deadlocks_detected,
            self.max_stall_us,
            self.honest_completed,
            self.honest_generated,
            self.conservation_violations,
            self.goal_directed_plans,
            self.nodes_settled,
            self.payments_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = RunStats {
            generated: 10,
            completed: 7,
            failed: 3,
            generated_value: Amount::from_tokens(100),
            completed_value: Amount::from_tokens(60),
            ..Default::default()
        };
        s.latency.record(1.0);
        s.latency.record(3.0);
        assert!((s.tsr() - 0.7).abs() < 1e-12);
        assert!((s.normalized_throughput() - 0.6).abs() < 1e-12);
        assert_eq!(s.avg_latency_secs(), 2.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn empty_run_is_zero() {
        let s = RunStats::default();
        assert_eq!(s.tsr(), 0.0);
        assert_eq!(s.normalized_throughput(), 0.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = RunStats {
            generated: 5,
            completed: 5,
            generated_value: Amount::from_tokens(10),
            completed_value: Amount::from_tokens(10),
            path_cache: PathCacheStats {
                hits: 3,
                misses: 2,
                inv_topology: 1,
                inv_footprint: 2,
                evictions: 4,
            },
            world_events_applied: 6,
            tus_expired_by_close: 2,
            unroutable: 1,
            delivered_tus: 9,
            aborted_tus: 4,
            marked_tus: 3,
            ..Default::default()
        };
        let shown = s.to_string();
        assert!(shown.contains("tsr=1.000"));
        assert!(shown.contains("gen=5"));
        assert!(shown.contains("unroutable=1"), "{shown}");
        assert!(shown.contains("tus=9del/4abort/3marked"), "{shown}");
        assert!(
            shown.contains("cache=3h/2m/3i[1t/2fp]/4e"),
            "per-cause invalidation breakdown must be visible: {shown}"
        );
        assert!(shown.contains("world=6ev/2exp"));
    }

    #[test]
    fn display_surfaces_planner_counters() {
        let s = RunStats {
            goal_directed_plans: 11,
            nodes_settled: 999,
            ..Default::default()
        };
        assert!(s.to_string().contains("planner=11gd/999ns"));
    }

    #[test]
    fn planner_counters_zero_out_together() {
        let mut a = sample_run();
        let mut b = sample_run();
        a.goal_directed_plans = 0;
        a.nodes_settled = 0;
        b.path_cache.hits += 1;
        assert_ne!(a, b.without_planner_counters());
        assert_eq!(
            a.without_cache_counters(),
            b.without_planner_counters().without_cache_counters()
        );
    }

    /// A fully-populated sample run: every field nonzero so identity
    /// and summing bugs cannot hide behind defaults.
    fn sample_run() -> RunStats {
        let mut s = RunStats {
            generated: 10,
            generated_value: Amount::from_tokens(100),
            completed: 7,
            completed_value: Amount::from_tokens(60),
            failed: 3,
            overhead_msgs: 42,
            marked_tus: 4,
            aborted_tus: 5,
            delivered_tus: 30,
            drained_directions_end: 2,
            unroutable: 1,
            world_events_applied: 6,
            tus_expired_by_close: 2,
            graph_compactions: 1,
            faults_injected: 3,
            griefed_locks: 2,
            deadlocks_detected: 1,
            honest_generated: 9,
            honest_completed: 6,
            max_stall_us: 250,
            conservation_violations: 1,
            goal_directed_plans: 7,
            nodes_settled: 480,
            path_cache: PathCacheStats {
                hits: 9,
                misses: 8,
                inv_topology: 1,
                inv_footprint: 4,
                evictions: 5,
                // No `..Default::default()`: a new counter must be
                // populated here for the merge tests to stay honest.
            },
            wall_secs: 1.5,
            ..Default::default()
        };
        s.latency.record(0.4);
        s.latency.record(1.2);
        s
    }

    #[test]
    fn merge_of_one_is_identity() {
        let a = sample_run();
        let merged = RunStats::merge(std::slice::from_ref(&a));
        assert_eq!(merged, a);
        // The equality-exempt wall clock must round-trip too.
        assert_eq!(merged.wall_secs, a.wall_secs);
        assert_eq!(merged.path_cache, a.path_cache);
    }

    #[test]
    fn merge_sums_counters_and_maxes_wall_clock() {
        let a = sample_run();
        let mut b = sample_run();
        b.wall_secs = 0.5;
        b.latency.record(9.0);
        b.max_stall_us = 90;
        let merged = RunStats::merge(&[a.clone(), b.clone()]);
        assert_eq!(merged.generated, a.generated + b.generated);
        assert_eq!(
            merged.generated_value,
            a.generated_value + b.generated_value
        );
        assert_eq!(
            merged.latency.count(),
            a.latency.count() + b.latency.count()
        );
        assert_eq!(
            merged.path_cache.hits,
            a.path_cache.hits + b.path_cache.hits
        );
        assert_eq!(
            merged.path_cache.invalidations(),
            a.path_cache.invalidations() + b.path_cache.invalidations()
        );
        assert_eq!(merged.wall_secs, 1.5, "wall clock is a max, not a sum");
        assert_eq!(merged.drained_directions_end, 4);
        assert_eq!(merged.faults_injected, a.faults_injected * 2);
        assert_eq!(merged.honest_generated, a.honest_generated * 2);
        assert_eq!(merged.max_stall_us, 250, "worst stall is a max, not a sum");
        assert_eq!(merged.goal_directed_plans, a.goal_directed_plans * 2);
        assert_eq!(merged.nodes_settled, a.nodes_settled * 2);
    }

    #[test]
    fn merge_of_none_is_the_zero_run() {
        assert_eq!(RunStats::merge(&[]), RunStats::default());
    }

    #[test]
    fn cache_counters_are_the_only_diagnostic_difference() {
        let mut a = RunStats {
            generated: 4,
            completed: 4,
            ..Default::default()
        };
        let b = a.clone();
        a.path_cache.hits = 10;
        assert_ne!(a, b);
        assert_eq!(a.without_cache_counters(), b.without_cache_counters());
    }
}
