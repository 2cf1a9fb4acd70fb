//! Experiment assembly.
//!
//! A [`Scenario`] owns everything one run needs: the site catalog (with
//! fault injection applied), the generated workload, and the SPHINX
//! configuration. Building the same scenario with the same seed produces
//! bit-identical runs; building it with a different strategy but the same
//! seed reproduces the paper's "multiple servers started at the same time
//! compete for the same set of grid resources" fairness discipline — the
//! grid trace (background load, crash schedule) depends only on the seed.

use sphinx_core::runtime::{RuntimeConfig, SphinxRuntime};
use sphinx_core::shard::{ShardConfig, ShardedRuntime};
use sphinx_core::{Driver, RunReport, StrategyKind};
use sphinx_dag::{Dag, WorkloadSpec};
use sphinx_data::{SiteId, TransferModel};
use sphinx_db::Database;
use sphinx_grid::{FaultProfile, GridSim, SiteSpec};
use sphinx_monitor::MonitorConfig;
use sphinx_policy::{Requirement, UserId, VoId};
use sphinx_sim::{Duration, SimRng};
use std::ops::DerefMut;
use std::sync::Arc;

/// Which sites misbehave, and how.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Number of black-hole sites (accept jobs, never run them).
    pub black_holes: u32,
    /// Number of crash-prone sites.
    pub flaky: u32,
    /// Mean time between failures of flaky sites.
    pub mtbf: Duration,
    /// Mean repair time of flaky sites.
    pub mttr: Duration,
    /// Mid-run kill probability applied to flaky sites.
    pub kill_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            black_holes: 0,
            flaky: 0,
            mtbf: Duration::from_secs(4 * 3600),
            mttr: Duration::from_mins(30),
            kill_prob: 0.02,
        }
    }
}

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The paper-like faulty grid: a couple of black holes and a couple
    /// of crash-prone sites out of 15.
    pub fn grid3_typical() -> Self {
        FaultPlan {
            black_holes: 2,
            flaky: 3,
            ..FaultPlan::default()
        }
    }
}

/// A fully specified experiment.
///
/// Serializable, so whole experiments can live in JSON config files (the
/// CLI's `run --config` flag).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// Root seed.
    pub seed: u64,
    /// Site catalog (faults not yet applied).
    pub sites: Vec<SiteSpec>,
    /// Fault injection.
    pub faults: FaultPlan,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Feedback on/off (Figure 2's variable).
    pub feedback: bool,
    /// Per-user, per-site quota; `Some` turns policy mode on (Figure 7).
    pub quota: Option<Requirement>,
    /// Tracker timeout.
    pub timeout: Duration,
    /// Monitoring imperfections.
    pub monitor: MonitorConfig,
    /// Hard stop.
    pub horizon: Duration,
    /// How many replica sites each external input is seeded at.
    pub external_replicas: u32,
    /// Persistent-storage site for sink outputs (planner step 4).
    pub archive_site: Option<SiteId>,
    /// QoS extension: give the last `n` DAGs a deadline of `within`
    /// after submission (earliest-deadline-first planning kicks in).
    /// Targeting the *last* DAGs makes the EDF reordering observable —
    /// without deadlines they would be planned after everything else.
    pub deadline_last: Option<(u32, Duration)>,
    /// Record `wall.*` host-clock metrics (planner-cycle latency). Off by
    /// default: the deterministic profile never touches the host clock.
    pub wall_clock_telemetry: bool,
    /// Live ops plane: run the streaming aggregator + online anomaly
    /// detectors each planner cycle (`None` = off).
    #[serde(default)]
    pub ops: Option<sphinx_ops::OpsConfig>,
    /// Let ops black-hole alerts feed the reliability index immediately
    /// (requires `ops`).
    #[serde(default)]
    pub ops_fast_path: bool,
}

impl Scenario {
    /// Start building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Apply the fault plan: a deterministic, seed-derived choice of
    /// victim sites (independent of strategy, so compared strategies face
    /// the same faulty grid).
    fn faulted_sites(&self) -> Vec<SiteSpec> {
        let mut sites = self.sites.clone();
        let mut order: Vec<usize> = (0..sites.len()).collect();
        let mut rng = SimRng::new(self.seed).derive("fault-assign");
        rng.shuffle(&mut order);
        let mut it = order.into_iter();
        for _ in 0..self.faults.black_holes {
            if let Some(i) = it.next() {
                sites[i].faults = FaultProfile::black_hole();
            }
        }
        for _ in 0..self.faults.flaky {
            if let Some(i) = it.next() {
                sites[i].faults = FaultProfile {
                    mtbf: Some(self.faults.mtbf),
                    mttr: self.faults.mttr,
                    kill_prob: self.faults.kill_prob,
                    ..FaultProfile::default()
                };
            }
        }
        sites
    }

    /// Per-site access bandwidth: faster sites got the fatter pipes in
    /// Grid3 (gigabit-class WAN paths); derived from CPU speed for
    /// determinism.
    fn transfer_model(&self) -> TransferModel {
        let mut model = TransferModel::uniform(60.0, Duration::from_secs(3));
        for s in &self.sites {
            model.set_bandwidth(s.id, 40.0 + 40.0 * s.cpu_speed);
        }
        model
    }

    /// Generate the DAG workload for this scenario.
    pub fn dags(&self) -> Vec<Dag> {
        self.workload
            .generate(&SimRng::new(self.seed).derive("workload"), 0)
    }

    /// Everything both deployments share: the faulted grid with external
    /// inputs seeded at seed-derived replica sites, the run configuration,
    /// and — once `deploy` has put a driver on them — the quota grants and
    /// the admission of every DAG.
    fn assemble<R: DerefMut<Target = Driver>>(
        &self,
        deploy: impl FnOnce(GridSim, RuntimeConfig) -> R,
    ) -> R {
        let sites = self.faulted_sites();
        let site_ids: Vec<SiteId> = sites.iter().map(|s| s.id).collect();
        let mut grid = GridSim::new(sites, self.transfer_model(), self.seed);
        let dags = self.dags();
        let mut rng = SimRng::new(self.seed).derive("replica-seed");
        for dag in &dags {
            for file in dag.external_inputs() {
                for _ in 0..self.external_replicas.max(1) {
                    let site = *rng.choose(&site_ids);
                    grid.rls_mut().register(file.clone(), site);
                }
            }
        }
        let mut config = RuntimeConfig {
            strategy: self.strategy,
            feedback: self.feedback,
            policy_enabled: self.quota.is_some(),
            archive_site: self.archive_site,
            timeout: self.timeout,
            monitor: self.monitor.clone(),
            horizon: self.horizon,
            seed: self.seed,
            ops: self.ops.clone(),
            ops_fast_path: self.ops_fast_path,
            ..RuntimeConfig::default()
        };
        config.telemetry.wall_clock = self.wall_clock_telemetry;
        let mut rt = deploy(grid, config);
        if let Some(quota) = self.quota {
            let policy = rt.policy_mut();
            policy.add_vo(VoId(0), "uscms");
            policy.add_user(UserId(1), VoId(0), 10);
            for &site in &site_ids {
                policy.grant(UserId(1), site, quota);
            }
        }
        let total = dags.len() as u32;
        for (i, dag) in dags.iter().enumerate() {
            let within = self
                .deadline_last
                .and_then(|(n, within)| (i as u32 >= total.saturating_sub(n)).then_some(within));
            rt.submit(dag, UserId(1), within)
                .expect("dag submission to a fresh deployment");
        }
        rt
    }

    /// Assemble the runtime (grid + SPHINX), ready to run. Exposed
    /// separately from [`Scenario::run`] so tests and the recovery
    /// experiment can drive it manually.
    pub fn build_runtime(&self) -> SphinxRuntime {
        self.build_runtime_with_db(Arc::new(Database::in_memory()))
    }

    /// Like [`Scenario::build_runtime`] but over an explicit database —
    /// a WAL-backed one enables the crash-recovery experiment.
    pub fn build_runtime_with_db(&self, db: Arc<Database>) -> SphinxRuntime {
        self.assemble(|grid, config| SphinxRuntime::with_database(grid, config, db))
    }

    /// Run the whole experiment.
    pub fn run(&self) -> RunReport {
        self.build_runtime().run()
    }

    /// Assemble a **sharded** deployment of this scenario: the same grid,
    /// replica seeding, workload and ops plane as
    /// [`Scenario::build_runtime`], but with `shard_config.shards`
    /// scheduler shards over a partitioned DAG space (see
    /// `sphinx_core::shard`). DAGs route to their partition owner at
    /// submission; crash-free runs produce the same aggregate report for
    /// any shard count.
    pub fn build_sharded_runtime(&self, shard_config: ShardConfig) -> ShardedRuntime {
        self.assemble(|grid, config| ShardedRuntime::new(grid, config, shard_config))
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                seed: 0,
                sites: crate::grid3::catalog(),
                faults: FaultPlan::none(),
                workload: WorkloadSpec::paper(3),
                strategy: StrategyKind::CompletionTime,
                feedback: true,
                quota: None,
                timeout: Duration::from_mins(30),
                monitor: MonitorConfig::default(),
                horizon: Duration::from_secs(7 * 24 * 3600),
                external_replicas: 2,
                archive_site: None,
                deadline_last: None,
                wall_clock_telemetry: false,
                ops: None,
                ops_fast_path: false,
            },
        }
    }
}

impl ScenarioBuilder {
    /// Set the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Replace the site catalog.
    pub fn sites(mut self, sites: Vec<SiteSpec>) -> Self {
        self.scenario.sites = sites;
        self
    }

    /// Set the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.scenario.faults = faults;
        self
    }

    /// `dags` DAGs × `jobs` jobs each (paper shape).
    pub fn dags(mut self, dags: u32, jobs: u32) -> Self {
        self.scenario.workload = WorkloadSpec::small(dags, jobs);
        self
    }

    /// Replace the whole workload spec.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.scenario.workload = workload;
        self
    }

    /// Set the strategy.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.scenario.strategy = strategy;
        self
    }

    /// Enable/disable tracker feedback.
    pub fn feedback(mut self, feedback: bool) -> Self {
        self.scenario.feedback = feedback;
        self
    }

    /// Enable policy mode with this per-user, per-site quota.
    pub fn quota(mut self, quota: Requirement) -> Self {
        self.scenario.quota = Some(quota);
        self
    }

    /// Set the tracker timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.scenario.timeout = timeout;
        self
    }

    /// Set monitoring imperfections.
    pub fn monitor(mut self, monitor: MonitorConfig) -> Self {
        self.scenario.monitor = monitor;
        self
    }

    /// Set the hard stop.
    pub fn horizon(mut self, horizon: Duration) -> Self {
        self.scenario.horizon = horizon;
        self
    }

    /// Archive sink outputs to this persistent-storage site (planner
    /// step 4).
    pub fn archive_site(mut self, site: SiteId) -> Self {
        self.scenario.archive_site = Some(site);
        self
    }

    /// QoS extension: the last `n` DAGs must finish within `within` of
    /// submission; the planner runs earliest-deadline-first.
    pub fn deadline_last(mut self, n: u32, within: Duration) -> Self {
        self.scenario.deadline_last = Some((n, within));
        self
    }

    /// Record `wall.*` host-clock metrics (the scale benchmark uses the
    /// planner-cycle latency histogram). Leave off for deterministic runs.
    pub fn wall_clock_telemetry(mut self, enabled: bool) -> Self {
        self.scenario.wall_clock_telemetry = enabled;
        self
    }

    /// Enable the live ops plane (streaming aggregator + online anomaly
    /// detectors, ticked each planner cycle).
    pub fn ops(mut self, config: sphinx_ops::OpsConfig) -> Self {
        self.scenario.ops = Some(config);
        self
    }

    /// Let ops black-hole alerts feed the reliability index immediately
    /// (requires [`ScenarioBuilder::ops`]).
    pub fn ops_fast_path(mut self, enabled: bool) -> Self {
        self.scenario.ops_fast_path = enabled;
        self
    }

    /// Finish building.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ScenarioBuilder {
        Scenario::builder()
            .sites(crate::grid3::catalog_small())
            .dags(1, 8)
            .seed(42)
            .horizon(Duration::from_secs(24 * 3600))
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = quick()
            .strategy(StrategyKind::QueueLength)
            .quota(Requirement::new(100, 100))
            .faults(FaultPlan {
                black_holes: 1,
                flaky: 0,
                ..FaultPlan::default()
            })
            .build();
        let json = serde_json::to_string_pretty(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, scenario.seed);
        assert_eq!(back.strategy, scenario.strategy);
        assert_eq!(back.faults, scenario.faults);
        assert_eq!(back.sites.len(), scenario.sites.len());
        // And the deserialized scenario actually runs.
        let report = back.run();
        assert_eq!(report, scenario.run());
    }

    #[test]
    fn quickstart_completes() {
        let report = quick().strategy(StrategyKind::CompletionTime).build().run();
        assert!(report.finished, "{}", report.summary());
        assert_eq!(report.jobs_completed, 8);
    }

    #[test]
    fn same_seed_same_report_different_seed_differs() {
        let a = quick().build().run();
        let b = quick().build().run();
        assert_eq!(a, b);
        let c = quick().seed(43).build().run();
        assert_ne!(a, c);
    }

    #[test]
    fn fault_assignment_is_seed_deterministic_and_strategy_independent() {
        let s1 = quick()
            .faults(FaultPlan {
                black_holes: 1,
                flaky: 1,
                ..FaultPlan::default()
            })
            .strategy(StrategyKind::RoundRobin)
            .build();
        let s2 = quick()
            .faults(FaultPlan {
                black_holes: 1,
                flaky: 1,
                ..FaultPlan::default()
            })
            .strategy(StrategyKind::QueueLength)
            .build();
        let f1: Vec<bool> = s1
            .faulted_sites()
            .iter()
            .map(|s| s.faults.black_hole)
            .collect();
        let f2: Vec<bool> = s2
            .faulted_sites()
            .iter()
            .map(|s| s.faults.black_hole)
            .collect();
        assert_eq!(f1, f2, "same seed, same victims regardless of strategy");
        assert_eq!(f1.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn policy_scenario_grants_and_completes() {
        let report = quick()
            .quota(Requirement::new(10_000_000, 10_000_000))
            .build()
            .run();
        assert!(report.finished, "{}", report.summary());
        assert!(report.policy);
    }

    #[test]
    fn deadline_last_marks_only_the_tail_dags() {
        let report = quick()
            .dags(3, 6)
            .deadline_last(2, Duration::from_secs(24 * 3600))
            .build()
            .run();
        assert!(report.finished);
        // Two dags carried (easily met) deadlines; one did not.
        assert_eq!(report.deadlines_met, 2);
        assert_eq!(report.deadlines_missed, 0);
    }

    #[test]
    fn infeasible_deadline_is_reported_missed() {
        let report = quick()
            .dags(1, 6)
            .deadline_last(1, Duration::from_secs(1)) // cannot be met
            .build()
            .run();
        assert!(report.finished);
        assert_eq!(report.deadlines_met, 0);
        assert_eq!(report.deadlines_missed, 1);
    }

    #[test]
    fn workload_survives_black_hole_with_feedback() {
        let report = quick()
            .strategy(StrategyKind::RoundRobin)
            .feedback(true)
            .timeout(Duration::from_mins(10))
            .faults(FaultPlan {
                black_holes: 1,
                flaky: 0,
                ..FaultPlan::default()
            })
            .build()
            .run();
        assert!(report.finished, "{}", report.summary());
        assert_eq!(report.jobs_completed, 8);
    }
}
