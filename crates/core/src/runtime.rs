//! The single-scheduler deployment: grid + monitor + one server + client.
//!
//! [`SphinxRuntime`] is the [`Driver`] event loop with one server and no
//! coordination plane. Its caller-supplied database carries the server's
//! tables and the INBOX / OUTBOX queues alike, which is what makes the
//! mid-run crash experiment possible: the queues are WAL-protected state
//! ([`SphinxRuntime::with_recovered_database`]). The loop itself lives in
//! [`crate::driver`]; this module holds the run configuration.

use crate::driver::{catalog, Driver};
use crate::error::CoreResult;
use crate::report::RunReport;
use crate::server::{ServerConfig, SphinxServer};
use crate::strategy::StrategyKind;
use sphinx_dag::Dag;
use sphinx_data::SiteId;
use sphinx_db::Database;
use sphinx_grid::GridSim;
use sphinx_monitor::MonitorConfig;
use sphinx_ops::OpsConfig;
use sphinx_policy::UserId;
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::TelemetryConfig;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Everything configurable about a run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The scheduling algorithm.
    pub strategy: StrategyKind,
    /// Use tracker feedback for site reliability.
    pub feedback: bool,
    /// Apply eq. 4 policy constraints.
    pub policy_enabled: bool,
    /// Persistent-storage site for sink outputs (planner step 4).
    pub archive_site: Option<SiteId>,
    /// Tracker timeout per submission.
    pub timeout: Duration,
    /// Planner cycle period.
    pub planner_period: Duration,
    /// Timeout-scan period.
    pub timeout_scan_period: Duration,
    /// Monitoring-system behaviour.
    pub monitor: MonitorConfig,
    /// Hard stop: give up (reporting `finished = false`) at this time.
    pub horizon: Duration,
    /// Seed for the monitor's randomness (grid has its own seed).
    pub seed: u64,
    /// Telemetry hub behaviour (trace capacity, wall-clock opt-in).
    pub telemetry: TelemetryConfig,
    /// Live ops plane: run the streaming aggregator and online anomaly
    /// detectors each planner cycle. `None` disables the plane entirely.
    pub ops: Option<OpsConfig>,
    /// Let ops black-hole alerts feed the reliability index immediately
    /// (see [`ServerConfig::ops_fast_path`]). Requires `ops`.
    pub ops_fast_path: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            strategy: StrategyKind::CompletionTime,
            feedback: true,
            policy_enabled: false,
            archive_site: None,
            timeout: Duration::from_mins(30),
            planner_period: Duration::from_secs(15),
            timeout_scan_period: Duration::from_mins(1),
            monitor: MonitorConfig::default(),
            horizon: Duration::from_secs(7 * 24 * 3600),
            seed: 0,
            telemetry: TelemetryConfig::default(),
            ops: None,
            ops_fast_path: false,
        }
    }
}

// The server's share of a run configuration; every server of a deployment
// gets the same one.
impl From<&RuntimeConfig> for ServerConfig {
    fn from(config: &RuntimeConfig) -> Self {
        ServerConfig {
            strategy: config.strategy,
            feedback: config.feedback,
            policy_enabled: config.policy_enabled,
            archive_site: config.archive_site,
            ops_fast_path: config.ops_fast_path,
        }
    }
}

/// The single-scheduler deployment: a [`Driver`] with one server and no
/// coordination plane. Dereferences to the driver for everything the two
/// deployments share (running, reporting, telemetry, the ops plane).
#[derive(Debug)]
pub struct SphinxRuntime(Driver);

impl Deref for SphinxRuntime {
    type Target = Driver;
    fn deref(&self) -> &Driver {
        &self.0
    }
}

impl DerefMut for SphinxRuntime {
    fn deref_mut(&mut self) -> &mut Driver {
        &mut self.0
    }
}

impl SphinxRuntime {
    /// Assemble a runtime over a grid, with a fresh in-memory database.
    pub fn new(grid: GridSim, config: RuntimeConfig) -> Self {
        Self::with_database(grid, config, Arc::new(Database::in_memory()))
    }

    /// Assemble a runtime over a grid with an explicit database (use a
    /// WAL-backed one to run the crash-recovery experiment).
    pub fn with_database(grid: GridSim, config: RuntimeConfig, db: Arc<Database>) -> Self {
        let server = SphinxServer::new(Arc::clone(&db), catalog(&grid), (&config).into());
        let driver = Driver::assemble(grid, config, Arc::clone(&db), vec![server], None);
        // No plane: the one database reports to the run's own hub, so
        // server FSA transitions, grid lifecycle events, monitor sampling
        // and WAL activity all land in the same trace.
        db.attach_telemetry(Arc::clone(driver.telemetry()));
        SphinxRuntime(driver)
    }

    /// Assemble a runtime whose server is **recovered** from an existing
    /// database (the mid-run crash experiment; see
    /// [`Driver::recover_server`]).
    pub fn with_recovered_database(
        grid: GridSim,
        config: RuntimeConfig,
        db: Arc<Database>,
    ) -> CoreResult<Self> {
        let mut rt = Self::with_database(grid, config, db);
        rt.0.recover_server()?;
        Ok(rt)
    }

    /// The server (e.g. to configure policy quotas).
    pub fn server_mut(&mut self) -> &mut SphinxServer {
        self.0.first_server_mut()
    }

    /// Immutable server access.
    pub fn server(&self) -> &SphinxServer {
        self.0.first_server()
    }

    /// Submit a DAG on behalf of a user. Panics on an invalid DAG or a
    /// database failure — use [`Driver::submit`] for a typed error.
    pub fn submit_dag(&mut self, dag: &Dag, user: UserId) {
        self.0.submit(dag, user, None).expect("dag submission");
    }

    /// Submit a DAG with a QoS deadline relative to now (see
    /// [`Driver::submit`]). Panics like [`Self::submit_dag`].
    pub fn submit_dag_with_deadline(&mut self, dag: &Dag, user: UserId, within: Duration) {
        self.0
            .submit(dag, user, Some(within))
            .expect("dag submission");
    }

    /// Like [`Driver::try_run_until`], panicking on database failure (the
    /// in-memory experiment configurations cannot fail).
    pub fn run_until(&mut self, stop_at: SimTime) -> bool {
        self.0.try_run_until(stop_at).expect("runtime drive")
    }

    /// Tear the runtime down to its surviving grid ("the server process
    /// died; the grid did not notice").
    pub fn into_grid(self) -> GridSim {
        self.0.into_grid()
    }

    /// Like [`Driver::try_run`], panicking on database failure (the
    /// in-memory experiment configurations cannot fail).
    pub fn run(&mut self) -> RunReport {
        self.0.try_run().expect("runtime drive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphinx_dag::WorkloadSpec;
    use sphinx_data::TransferModel;
    use sphinx_grid::{FaultProfile, SiteSpec};
    use sphinx_sim::SimRng;

    fn healthy_grid(sites: u32, cpus: u32, seed: u64) -> GridSim {
        let specs = (0..sites)
            .map(|i| SiteSpec::new(SiteId(i), format!("site{i}"), cpus))
            .collect();
        GridSim::new(specs, TransferModel::default(), seed)
    }

    fn seed_externals(grid: &mut GridSim, dags: &[Dag]) {
        for dag in dags {
            for file in dag.external_inputs() {
                grid.rls_mut().register(file, SiteId(0));
            }
        }
    }

    fn quick_config(strategy: StrategyKind) -> RuntimeConfig {
        RuntimeConfig {
            strategy,
            horizon: Duration::from_secs(48 * 3600),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn small_workload_completes_end_to_end() {
        let mut grid = healthy_grid(3, 8, 42);
        let dags = WorkloadSpec::small(2, 10).generate(&SimRng::new(42), 0);
        seed_externals(&mut grid, &dags);
        let mut rt = SphinxRuntime::new(grid, quick_config(StrategyKind::CompletionTime));
        for dag in &dags {
            rt.submit_dag(dag, UserId(1));
        }
        let report = rt.run();
        assert!(report.finished, "{}", report.summary());
        assert_eq!(report.jobs_completed, 20);
        assert_eq!(report.dags, 2);
        assert!(report.avg_dag_completion_secs > 0.0);
        assert!(report.avg_exec_secs > 30.0, "{}", report.avg_exec_secs);
        assert_eq!(report.timeouts, 0);
    }

    #[test]
    fn all_strategies_complete_on_a_healthy_grid() {
        for strategy in StrategyKind::ALL {
            let mut grid = healthy_grid(3, 8, 7);
            let dags = WorkloadSpec::small(1, 12).generate(&SimRng::new(7), 0);
            seed_externals(&mut grid, &dags);
            let mut rt = SphinxRuntime::new(grid, quick_config(strategy));
            rt.submit_dag(&dags[0], UserId(1));
            let report = rt.run();
            assert!(report.finished, "{strategy}: {}", report.summary());
            assert_eq!(report.jobs_completed, 12, "{strategy}");
        }
    }

    #[test]
    fn black_hole_site_is_survived_via_timeouts() {
        let specs = vec![
            SiteSpec::new(SiteId(0), "good", 8),
            SiteSpec::new(SiteId(1), "hole", 8).with_faults(FaultProfile::black_hole()),
        ];
        let mut grid = GridSim::new(specs, TransferModel::default(), 3);
        let dags = WorkloadSpec::small(1, 10).generate(&SimRng::new(3), 0);
        seed_externals(&mut grid, &dags);
        let config = RuntimeConfig {
            strategy: StrategyKind::RoundRobin,
            feedback: true,
            timeout: Duration::from_mins(10),
            horizon: Duration::from_secs(48 * 3600),
            ..RuntimeConfig::default()
        };
        let mut rt = SphinxRuntime::new(grid, config);
        rt.submit_dag(&dags[0], UserId(1));
        let report = rt.run();
        assert!(report.finished, "{}", report.summary());
        assert_eq!(report.jobs_completed, 10);
        assert!(report.timeouts >= 1, "black hole must cost timeouts");
        // Feedback eventually shuns the hole: the good site does the work.
        let good = report.sites.iter().find(|s| s.name == "good").unwrap();
        assert_eq!(good.completed, 10);
    }

    #[test]
    fn determinism_same_seeds_same_report() {
        let run = || {
            let mut grid = healthy_grid(2, 4, 11);
            let dags = WorkloadSpec::small(1, 8).generate(&SimRng::new(11), 0);
            seed_externals(&mut grid, &dags);
            let mut rt = SphinxRuntime::new(grid, quick_config(StrategyKind::QueueLength));
            rt.submit_dag(&dags[0], UserId(1));
            rt.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn policy_mode_completes_with_ample_quota() {
        let mut grid = healthy_grid(3, 8, 5);
        let dags = WorkloadSpec::small(1, 10).generate(&SimRng::new(5), 0);
        seed_externals(&mut grid, &dags);
        let config = RuntimeConfig {
            strategy: StrategyKind::NumCpus,
            policy_enabled: true,
            horizon: Duration::from_secs(48 * 3600),
            ..RuntimeConfig::default()
        };
        let mut rt = SphinxRuntime::new(grid, config);
        let policy = rt.server_mut().policy_mut();
        policy.add_user(UserId(1), sphinx_policy::VoId(0), 1);
        for i in 0..3 {
            policy.grant(
                UserId(1),
                SiteId(i),
                sphinx_policy::Requirement::new(1_000_000, 1_000_000),
            );
        }
        rt.submit_dag(&dags[0], UserId(1));
        let report = rt.run();
        assert!(report.finished, "{}", report.summary());
        assert!(report.policy);
    }
}
