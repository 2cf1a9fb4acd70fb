//! The traced driver: `SphinxRuntime`'s event loop assembled from the
//! layers' public functions, call for call in the order of
//! `SphinxRuntime::{with_database, drive, planner_tick, monitor_tick,
//! timeout_tick, with_recovered_database}`, with a host-clock span
//! around every call into a layer.
//!
//! It must stay a transcription of `crates/core/src/runtime.rs`: the
//! fidelity check in `main.rs` compares its telemetry trace and counters
//! with the real runtime's and withholds the per-layer numbers when they
//! differ.

use crate::spans::Recorder;
use sphinx_benchmark::workloads::{Deployment, Workload, CRASH_AT};
use sphinx_core::client::{ClientConfig, SphinxClient};
use sphinx_core::messages::{PlanNotice, StatusReport, INBOX, OUTBOX};
use sphinx_core::runtime::RuntimeConfig;
use sphinx_core::strategy::SiteInfo;
use sphinx_core::{ServerConfig, SphinxServer};
use sphinx_data::{SiteId, TransferModel};
use sphinx_db::{Database, DbError, MemWal, Queue, Wal};
use sphinx_grid::{GridSim, Notification, SiteSpec};
use sphinx_monitor::Monitor;
use sphinx_ops::{OpsAggregator, OpsDetector, OpsSnapshot};
use sphinx_policy::{UserId, VoId};
use sphinx_sim::SimTime;
use sphinx_telemetry::{Telemetry, TraceKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TOKEN_PLANNER: u64 = 1;
const TOKEN_MONITOR: u64 = 2;
const TOKEN_TIMEOUT: u64 = 3;

/// Root span of each event-loop run; with `core.runtime.planner_tick`,
/// the containers whose own time is the driver's glue, not a layer's.
pub const DRIVE: &str = "trace.drive";
pub const PLANNER_TICK: &str = "core.runtime.planner_tick";

/// A `Wal` that times every append and checkpoint rewrite as a child of
/// whatever commit caused it, and counts the bytes logged.
struct TimedWal {
    inner: MemWal,
    rec: Arc<Recorder>,
    bytes: Arc<AtomicU64>,
}

impl Wal for TimedWal {
    fn append(&mut self, line: &str) -> Result<(), DbError> {
        self.bytes
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.rec.span("db.wal.append", || inner.append(line))
    }

    fn read_all(&self) -> Result<Vec<String>, DbError> {
        self.inner.read_all()
    }

    fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError> {
        let inner = &mut self.inner;
        self.rec.span("db.wal.rewrite", || inner.rewrite(lines))
    }

    fn appended(&self) -> u64 {
        self.inner.appended()
    }

    fn rewrites(&self) -> u64 {
        self.inner.rewrites()
    }
}

/// What `SphinxRuntime` holds, held apart so each call can be timed.
struct Parts {
    grid: GridSim,
    monitor: Monitor,
    server: SphinxServer,
    client: SphinxClient,
    db: Arc<Database>,
    config: RuntimeConfig,
    transfer_model: TransferModel,
    started: bool,
    ops: Option<OpsAggregator>,
    ops_shared: OpsSnapshot,
}

/// The server's view of a site catalog.
pub fn catalog<'a>(specs: impl IntoIterator<Item = &'a SiteSpec>) -> Vec<SiteInfo> {
    specs
        .into_iter()
        .map(|s| SiteInfo {
            id: s.id,
            name: s.name.clone(),
            cpus: s.cpus,
        })
        .collect()
}

/// The server's share of a runtime configuration. No workload here
/// turns a server default off, so only what the scenarios set is copied.
pub fn server_config(config: &RuntimeConfig) -> ServerConfig {
    ServerConfig {
        strategy: config.strategy,
        feedback: config.feedback,
        policy_enabled: config.policy_enabled,
        archive_site: config.archive_site,
        ..ServerConfig::default()
    }
}

/// `SphinxRuntime::with_database`.
fn assemble(mut grid: GridSim, config: RuntimeConfig, db: Arc<Database>) -> Parts {
    let catalog = catalog(grid.site_specs());
    let transfer_model = grid.transfer_model().clone();
    let telemetry = Arc::new(Telemetry::with_config(config.telemetry.clone()));
    grid.set_telemetry(Arc::clone(&telemetry));
    db.attach_telemetry(Arc::clone(&telemetry));
    let mut server = SphinxServer::new(Arc::clone(&db), catalog, server_config(&config));
    server.set_telemetry(Arc::clone(&telemetry));
    let client = SphinxClient::new(ClientConfig {
        timeout: config.timeout,
    });
    let mut monitor = Monitor::new(config.monitor.clone(), config.seed);
    monitor.set_telemetry(telemetry);
    let ops = config.ops.clone().map(OpsAggregator::new);
    Parts {
        grid,
        monitor,
        server,
        client,
        db,
        config,
        transfer_model,
        started: false,
        ops,
        ops_shared: OpsSnapshot::default(),
    }
}

/// `SphinxRuntime::with_recovered_database`.
fn assemble_recovered(grid: GridSim, config: RuntimeConfig, db: Arc<Database>) -> Parts {
    let mut parts = assemble(grid, config, db);
    let telemetry = Arc::clone(parts.server.telemetry());
    parts.server = SphinxServer::recover(
        Arc::clone(&parts.db),
        catalog(parts.grid.site_specs()),
        server_config(&parts.config),
    )
    .expect("server recovers");
    telemetry.trace(
        TraceKind::Recovery,
        parts.grid.now(),
        None,
        None,
        format!("replayed={}", parts.db.replayed()),
    );
    parts.server.set_telemetry(telemetry);
    parts.started = true;
    parts
}

impl Parts {
    fn planner_tick(&mut self, rec: &Recorder) {
        let now = self.grid.now();
        let track_span = self.server.telemetry().span_start("phase:track", now);
        let inbox: Queue<StatusReport> = Queue::new(&self.db, INBOX);
        let reports = rec
            .span("db.queue.inbox_drain", || inbox.drain())
            .expect("inbox drains");
        for report in reports {
            let server = &mut self.server;
            rec.span("core.server.handle_report", || {
                server.handle_report(report, now)
            })
            .expect("report handled");
        }
        self.server.telemetry().span_end(track_span, now);
        let monitor = &mut self.monitor;
        let reports: BTreeMap<SiteId, sphinx_monitor::Report> = rec.span("monitor.reports", || {
            monitor
                .reports(now)
                .into_iter()
                .map(|r| (r.site, r))
                .collect()
        });
        let plans = {
            let (server, grid, transfers) =
                (&mut self.server, &mut self.grid, &self.transfer_model);
            rec.span("core.server.plan_cycle", || {
                server.plan_cycle(now, grid.rls_mut(), &reports, transfers)
            })
            .expect("plan cycle")
        };
        let submit_span = self.server.telemetry().span_start("phase:submit", now);
        let outbox: Queue<PlanNotice> = Queue::new(&self.db, OUTBOX);
        for plan in &plans {
            rec.span("db.queue.outbox_push", || outbox.push(plan))
                .expect("outbox push");
        }
        let drained = rec
            .span("db.queue.outbox_drain", || outbox.drain())
            .expect("outbox drains");
        for plan in drained {
            let (client, grid) = (&mut self.client, &mut self.grid);
            rec.span("core.client.submit_plan", || {
                client.submit_plan(grid, &plan, now)
            });
        }
        self.server.telemetry().span_end(submit_span, now);
        if let Some(ops) = self.ops.as_mut() {
            let telemetry = Arc::clone(self.server.telemetry());
            let flagged: Vec<u32> = rec.span("ops.tick", || {
                ops.tick(now, &telemetry)
                    .iter()
                    .filter(|a| a.detector == OpsDetector::BlackHole)
                    .map(|a| a.site)
                    .collect()
            });
            for site in flagged {
                self.server.apply_ops_flag(SiteId(site), now);
            }
            let shared = &mut self.ops_shared;
            rec.span("ops.publish", || ops.publish_into(now, shared));
        }
        self.grid
            .schedule_wakeup(now + self.config.planner_period, TOKEN_PLANNER);
    }

    fn monitor_tick(&mut self, rec: &Recorder) {
        let now = self.grid.now();
        let truth = rec.span("grid.snapshots", || self.grid.snapshots());
        let monitor = &mut self.monitor;
        rec.span("monitor.sample", || monitor.sample(now, &truth));
        self.grid
            .schedule_wakeup(now + self.config.monitor.update_period, TOKEN_MONITOR);
    }

    fn timeout_tick(&mut self, rec: &Recorder) {
        let now = self.grid.now();
        let (client, grid) = (&mut self.client, &mut self.grid);
        let reports = rec.span("core.client.scan_timeouts", || {
            client.scan_timeouts(grid, now)
        });
        let inbox: Queue<StatusReport> = Queue::new(&self.db, INBOX);
        for report in reports {
            rec.span("db.queue.inbox_push", || inbox.push(&report))
                .expect("inbox push");
        }
        self.grid
            .schedule_wakeup(now + self.config.timeout_scan_period, TOKEN_TIMEOUT);
    }

    /// `SphinxRuntime::drive`. Returns the number of events stepped.
    fn drive(&mut self, stop: SimTime, rec: &Recorder) -> u64 {
        rec.span(DRIVE, || {
            if !self.started {
                self.started = true;
                let now = self.grid.now();
                self.grid
                    .schedule_wakeup(now + self.config.planner_period, TOKEN_PLANNER);
                self.grid.schedule_wakeup(now, TOKEN_MONITOR);
                self.grid
                    .schedule_wakeup(now + self.config.timeout_scan_period, TOKEN_TIMEOUT);
            }
            let stop = stop.min(SimTime::ZERO + self.config.horizon);
            let mut events = 0;
            while !self.server.all_finished() && self.grid.now() < stop {
                if !rec.span("grid.step", || self.grid.step()) {
                    break;
                }
                events += 1;
                let now = self.grid.now();
                let notifications = rec.span("grid.poll", || self.grid.poll());
                let db = Arc::clone(&self.db);
                let inbox: Queue<StatusReport> = Queue::new(&db, INBOX);
                for n in notifications {
                    match n {
                        Notification::Wakeup {
                            token: TOKEN_PLANNER,
                        } => rec.span(PLANNER_TICK, || self.planner_tick(rec)),
                        Notification::Wakeup {
                            token: TOKEN_MONITOR,
                        } => self.monitor_tick(rec),
                        Notification::Wakeup {
                            token: TOKEN_TIMEOUT,
                        } => self.timeout_tick(rec),
                        Notification::Wakeup { .. } => {}
                        other => {
                            let client = &mut self.client;
                            let report = rec.span("core.client.on_notification", || {
                                client.on_notification(&other, now)
                            });
                            if let Some(report) = report {
                                rec.span("db.queue.inbox_push", || inbox.push(&report))
                                    .expect("inbox push");
                            }
                        }
                    }
                }
            }
            events
        })
    }
}

/// `Scenario::build_runtime_with_db` after the grid is assembled: quota
/// grants, then every DAG admitted.
fn admit(w: &Workload, parts: &mut Parts, rec: &Recorder) {
    let scenario = &w.scenario;
    if let Some(quota) = scenario.quota {
        let sites: Vec<SiteId> = parts.grid.site_specs().iter().map(|s| s.id).collect();
        let policy = parts.server.policy_mut();
        policy.add_vo(VoId(0), "uscms");
        policy.add_user(UserId(1), VoId(0), 10);
        for site in sites {
            policy.grant(UserId(1), site, quota);
        }
    }
    let dags = scenario.dags();
    let total = dags.len() as u32;
    let now = parts.grid.now();
    for (i, dag) in dags.iter().enumerate() {
        let deadline = match scenario.deadline_last {
            Some((n, within)) if (i as u32) >= total.saturating_sub(n) => Some(now + within),
            _ => None,
        };
        let server = &mut parts.server;
        rec.span("core.server.submit_dag", || {
            server.submit_dag_with_deadline(dag, UserId(1), now, deadline)
        })
        .expect("dag submission");
    }
}

/// One traced run.
pub struct Traced {
    /// One telemetry hub per server lifetime, like `Finished::hubs`.
    pub hubs: Vec<Arc<Telemetry>>,
    pub finished: bool,
    pub events: u64,
    pub wal_bytes: u64,
}

/// Run `w` under the traced driver (`Single` and `CrashRecover` only).
pub fn run(w: &Workload, rec: &Arc<Recorder>) -> Traced {
    let bytes = Arc::new(AtomicU64::new(0));
    let timed_wal = |inner: MemWal| -> Box<dyn Wal> {
        Box::new(TimedWal {
            inner,
            rec: Arc::clone(rec),
            bytes: Arc::clone(&bytes),
        })
    };
    // The scenario's own builder is the only way to a faulted, seeded
    // grid; the runtime it also builds is dropped.
    let (grid, config) = rec.span("workloads.build", || {
        let rt = w.scenario.build_runtime();
        let config = rt.config().clone();
        (rt.into_grid(), config)
    });
    let wal = MemWal::shared();
    let db = Arc::new(Database::with_wal(timed_wal(wal.clone())));
    let mut parts = assemble(grid, config, db);
    admit(w, &mut parts, rec);
    let mut hubs = Vec::new();
    let mut events = 0;
    if matches!(w.deployment, Deployment::CrashRecover) {
        events += parts.drive(CRASH_AT, rec);
        hubs.push(Arc::clone(parts.server.telemetry()));
        let Parts { grid, config, .. } = parts;
        let db = Database::recover(timed_wal(wal)).expect("log replays");
        parts = assemble_recovered(grid, config, Arc::new(db));
    }
    events += parts.drive(SimTime::MAX, rec);
    hubs.push(Arc::clone(parts.server.telemetry()));
    Traced {
        hubs,
        finished: parts.server.all_finished(),
        events,
        wal_bytes: bytes.load(Ordering::Relaxed),
    }
}
