//! Untraced runs through the runtimes' public calls only: what a user of
//! the system would see. Every end-to-end metric comes from here.

use crate::workloads::{Deployment, Workload, CRASH_AT};
use sphinx_core::runtime::{RuntimeConfig, SphinxRuntime};
use sphinx_core::shard::ShardedRuntime;
use sphinx_core::RunReport;
use sphinx_data::TransferModel;
use sphinx_db::{Database, MemWal, Wal};
use sphinx_grid::{GridSim, SiteSpec};
use sphinx_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A deployment set up and ready to run.
pub enum Live {
    Single(SphinxRuntime),
    CrashRecover { rt: SphinxRuntime, wal: MemWal },
    Sharded(ShardedRuntime),
}

/// Grid assembled, replicas seeded, all DAGs admitted.
pub fn set_up(w: &Workload) -> Live {
    match &w.deployment {
        Deployment::Single => Live::Single(w.scenario.build_runtime()),
        Deployment::CrashRecover => {
            let wal = MemWal::shared();
            let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
            Live::CrashRecover {
                rt: w.scenario.build_runtime_with_db(db),
                wal,
            }
        }
        Deployment::Sharded(config) => {
            Live::Sharded(w.scenario.build_sharded_runtime(config.clone()))
        }
    }
}

/// Host seconds of one whole run, split at the public calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTimes {
    /// `try_run_until` (both legs on `crash-recover`).
    pub drive_s: f64,
    /// `Database::recover` + `with_recovered_database` inside the run
    /// (`crash-recover` only).
    pub recover_s: f64,
    /// `build_report`.
    pub report_s: f64,
}

impl RunTimes {
    pub fn wall_s(&self) -> f64 {
        self.drive_s + self.recover_s + self.report_s
    }
}

/// A runtime shown to [`run`]'s observer between two timed calls.
pub enum Runtime<'a> {
    Single(&'a SphinxRuntime),
    Sharded(&'a ShardedRuntime),
}

/// When the observer is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `crash-recover` only: driven to [`CRASH_AT`], about to be killed.
    Crashing,
    /// Driven to the end; `build_report` comes next.
    Driven,
}

/// `f`'s result and the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Run a set-up deployment to the end and build its report. `observe`
/// sees the runtime between the timed calls (the per-layer binary reads
/// telemetry there; the end-to-end binary passes a no-op).
pub fn run(live: Live, observe: &mut dyn FnMut(Stage, Runtime<'_>)) -> (RunReport, RunTimes) {
    let mut times = RunTimes::default();
    let report = match live {
        Live::Single(rt) => finish_single(rt, &mut times, observe),
        Live::CrashRecover { mut rt, wal } => {
            let (r, s) = timed(|| rt.try_run_until(CRASH_AT));
            r.expect("in-memory run");
            times.drive_s = s;
            observe(Stage::Crashing, Runtime::Single(&rt));
            let config = rt.config().clone();
            // The server and its tracker die; the grid does not notice.
            let grid = rt.into_grid();
            let (rt, s) = timed(|| {
                let db = Database::recover(Box::new(wal)).expect("log replays");
                SphinxRuntime::with_recovered_database(grid, config, Arc::new(db))
                    .expect("server recovers")
            });
            times.recover_s = s;
            finish_single(rt, &mut times, observe)
        }
        Live::Sharded(mut rt) => {
            let (r, s) = timed(|| rt.try_run_until(SimTime::MAX));
            r.expect("in-memory run");
            times.drive_s = s;
            observe(Stage::Driven, Runtime::Sharded(&rt));
            let (report, s) = timed(|| rt.build_report());
            times.report_s = s;
            report.expect("report")
        }
    };
    (report, times)
}

fn finish_single(
    mut rt: SphinxRuntime,
    times: &mut RunTimes,
    observe: &mut dyn FnMut(Stage, Runtime<'_>),
) -> RunReport {
    let (r, s) = timed(|| rt.try_run_until(SimTime::MAX));
    r.expect("in-memory run");
    times.drive_s += s;
    observe(Stage::Driven, Runtime::Single(&rt));
    let (report, s) = timed(|| rt.build_report());
    times.report_s = s;
    report.expect("report")
}

/// The part of the per-layer ledger the public calls alone give: the
/// runtime's drive and report times, and the report's own counts.
pub fn public_call_view(
    w: &Workload,
    report: &RunReport,
    times: &RunTimes,
) -> BTreeMap<String, f64> {
    let (runtime, legs) = match w.deployment {
        Deployment::Single => ("core.runtime", 1.0),
        Deployment::CrashRecover => ("core.runtime", 2.0),
        Deployment::Sharded(_) => ("core.shard", 1.0),
    };
    [
        (format!("{runtime}.drive.s"), times.drive_s),
        (format!("{runtime}.drive.n"), legs),
        (format!("{runtime}.build_report.s"), times.report_s),
        (format!("{runtime}.build_report.n"), 1.0),
        ("core.plans".to_owned(), report.plans as f64),
        ("core.timeouts".to_owned(), report.timeouts as f64),
        ("core.holds".to_owned(), report.holds as f64),
    ]
    .into()
}

/// FNV-1a of the report with its telemetry and analysis cleared: the
/// schedule, without anything that could carry a host-clock reading.
pub fn schedule_digest(report: &RunReport) -> u64 {
    let mut bare = report.clone();
    bare.telemetry = Default::default();
    bare.analysis = Default::default();
    let text = serde_json::to_string(&bare).expect("report serializes");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The write-ahead log of the scenario's single scheduler as it stood at
/// [`CRASH_AT`], with what recovery needs beside it.
pub struct CrashLog {
    pub lines: Vec<String>,
    pub config: RuntimeConfig,
    pub sites: Vec<SiteSpec>,
}

/// Run the scenario's single scheduler to [`CRASH_AT`] and cut its log.
/// (`sharded4-failover` recovers the same scenario's single-scheduler
/// log: `ShardedRuntime` does its adoption replay behind a closed door.)
pub fn crash_log(w: &Workload) -> CrashLog {
    let wal = MemWal::shared();
    let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
    let mut rt = w.scenario.build_runtime_with_db(db);
    rt.try_run_until(CRASH_AT).expect("in-memory run");
    CrashLog {
        lines: wal.read_all().expect("memory log reads"),
        config: rt.config().clone(),
        sites: w.scenario.sites.clone(),
    }
}

impl CrashLog {
    /// A fresh log holding a copy of the crash-time lines.
    pub fn fresh_wal(&self) -> MemWal {
        let mut wal = MemWal::shared();
        for line in &self.lines {
            wal.append(line).expect("memory log appends");
        }
        wal
    }

    /// Crash → server ready to plan: one `Database::recover` +
    /// `with_recovered_database` of this log, in host seconds.
    pub fn recover_s(&self) -> f64 {
        let wal = self.fresh_wal();
        // A grid with the scenario's catalog for the recovered runtime to
        // stand on: recovery reads the catalog and the clock, nothing else.
        let grid = GridSim::new(
            self.sites.clone(),
            TransferModel::default(),
            self.config.seed,
        );
        let config = self.config.clone();
        let (rt, s) = timed(|| {
            let db = Database::recover(Box::new(wal)).expect("log replays");
            SphinxRuntime::with_recovered_database(grid, config, Arc::new(db))
                .expect("server recovers")
        });
        std::hint::black_box(rt);
        s
    }
}
