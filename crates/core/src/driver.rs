//! The one event loop behind every deployment.
//!
//! The paper's §3.1 describes SPHINX as agents "communicating exclusively
//! through database tables", which is why one scheduler and N schedulers
//! are the same control process with more or fewer coordination tables.
//! [`Driver`] is that process. It steps the grid's event loop and
//! multiplexes three periodic activities over wakeup events, mirroring how
//! the real deployment's processes ran concurrently:
//!
//! * **Planner cycle** — drain tracker reports from the inbox table,
//!   advance the server automatons, run one global plan cycle over the
//!   live servers, hand plans to the client, tick the live ops plane.
//! * **Monitor cycle** — the monitoring system's query jobs sample the
//!   sites.
//! * **Timeout scan** — the tracker cancels overdue submissions.
//!
//! All client ↔ server traffic goes through the database message queues
//! ([`crate::messages::INBOX`] / [`crate::messages::OUTBOX`]), exactly as
//! §3.2's message-handling module describes. The single scheduler
//! ([`crate::runtime::SphinxRuntime`]) is this driver with one server; the
//! sharded deployment ([`crate::shard::ShardedRuntime`]) is the same driver
//! with N servers and the [`crate::shard`] coordination plane attached,
//! which contributes four steps to the planner tick and nothing anywhere
//! else. Which deployment has a plane is fixed by the constructor called.

use crate::client::{ClientConfig, SphinxClient};
use crate::error::{CoreError, CoreResult};
use crate::messages::{PlanNotice, StatusReport, INBOX, OUTBOX};
use crate::report::{RunReport, SiteOutcome};
use crate::runtime::RuntimeConfig;
use crate::server::{plan_cycle_over, SchedulerState, ServerConfig, SphinxServer};
use crate::shard::{AdoptionRecord, CrashPoint, Plane, SiteLeaseRow};
use crate::state::{DagRow, JobRow, JobState, SiteStatsRow};
use crate::strategy::SiteInfo;
use parking_lot::Mutex;
use sphinx_dag::{Dag, DagId};
use sphinx_data::{SiteId, TransferModel};
use sphinx_db::{Database, Queue};
use sphinx_grid::{GridSim, Notification};
use sphinx_monitor::{Monitor, Report};
use sphinx_ops::{OpsAggregator, OpsDetector, OpsSnapshot};
use sphinx_policy::{PolicyEngine, UserId};
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::{Telemetry, TraceKind};
use std::collections::BTreeMap;
use std::sync::Arc;

const TOKEN_PLANNER: u64 = 1;
const TOKEN_MONITOR: u64 = 2;
const TOKEN_TIMEOUT: u64 = 3;

/// The server's view of the grid's site catalog.
pub(crate) fn catalog(grid: &GridSim) -> Vec<SiteInfo> {
    grid.site_specs()
        .iter()
        .map(|s| SiteInfo {
            id: s.id,
            name: s.name.clone(),
            cpus: s.cpus,
        })
        .collect()
}

fn first_mut(servers: &mut [Option<SphinxServer>]) -> &mut SphinxServer {
    servers
        .iter_mut()
        .flatten()
        .next()
        .expect("at least one live server")
}

/// Grid + monitor + tracker + servers + mailbox, and the event loop that
/// drives them. See the module docs.
pub struct Driver {
    grid: GridSim,
    monitor: Monitor,
    client: SphinxClient,
    /// The database carrying the INBOX / OUTBOX message queues. Without a
    /// plane it is the one server's own (caller-supplied, possibly
    /// WAL-protected) database; with one it is the coordination database.
    mailbox: Arc<Database>,
    /// Servers by shard id; `None` marks a crashed shard. Only a plane can
    /// crash one, so a plane-less driver keeps its one server for life.
    servers: Vec<Option<SphinxServer>>,
    plane: Option<Plane>,
    config: RuntimeConfig,
    transfer_model: TransferModel,
    /// The run's telemetry hub: grid, monitor, servers, planner phases and
    /// ops alerts land here on every deployment, so it is invariant to the
    /// shard count. Database/WAL activity lands here only without a plane;
    /// a plane keeps its own hub for that (see [`Plane`]).
    hub: Arc<Telemetry>,
    ops: Option<OpsAggregator>,
    /// Snapshot handle shared with the HTTP ops endpoint; rebuilt by the
    /// aggregator after every planner cycle.
    ops_shared: Option<Arc<Mutex<OpsSnapshot>>>,
    started: bool,
    cycle: u64,
    submitted_dags: u64,
}

impl Driver {
    /// Wire fresh `servers` (slot = shard id) to a grid, sharing one new
    /// telemetry hub between every module.
    pub(crate) fn assemble(
        mut grid: GridSim,
        config: RuntimeConfig,
        mailbox: Arc<Database>,
        servers: Vec<SphinxServer>,
        plane: Option<Plane>,
    ) -> Self {
        let transfer_model = grid.transfer_model().clone();
        let hub = Arc::new(Telemetry::with_config(config.telemetry.clone()));
        grid.set_telemetry(Arc::clone(&hub));
        let servers = servers
            .into_iter()
            .map(|mut server| {
                server.set_telemetry(Arc::clone(&hub));
                Some(server)
            })
            .collect();
        let client = SphinxClient::new(ClientConfig {
            timeout: config.timeout,
        });
        let mut monitor = Monitor::new(config.monitor.clone(), config.seed);
        monitor.set_telemetry(Arc::clone(&hub));
        let ops = config.ops.clone().map(OpsAggregator::new);
        let ops_shared = ops
            .is_some()
            .then(|| Arc::new(Mutex::new(OpsSnapshot::default())));
        Driver {
            grid,
            monitor,
            client,
            mailbox,
            servers,
            plane,
            config,
            transfer_model,
            hub,
            ops,
            ops_shared,
            started: false,
            cycle: 0,
            submitted_dags: 0,
        }
    }

    /// Replace the one server of a plane-less driver with one **recovered**
    /// from the mailbox database (the mid-run crash experiment). The grid
    /// survives with its jobs in flight and its wakeup chains pending (none
    /// are rescheduled); the server replans whatever was in flight, and the
    /// fresh client ignores notifications for attempts it never made. The
    /// server is recovered *before* it joins the run's hub, so what its
    /// restore repairs lands in the rows and the report, not the trace.
    pub(crate) fn recover_server(&mut self) -> CoreResult<()> {
        let mut server = SphinxServer::recover(
            Arc::clone(&self.mailbox),
            catalog(&self.grid),
            (&self.config).into(),
        )?;
        self.hub.trace(
            TraceKind::Recovery,
            self.grid.now(),
            None,
            None,
            format!("replayed={}", self.mailbox.replayed()),
        );
        server.set_telemetry(Arc::clone(&self.hub));
        self.submitted_dags = server.progress().0;
        self.servers = vec![Some(server)];
        self.started = true;
        Ok(())
    }

    /// The lowest-numbered live server.
    pub(crate) fn first_server(&self) -> &SphinxServer {
        self.servers
            .iter()
            .flatten()
            .next()
            .expect("at least one live server")
    }

    /// Mutable [`Self::first_server`].
    pub(crate) fn first_server_mut(&mut self) -> &mut SphinxServer {
        first_mut(&mut self.servers)
    }

    /// The grid-wide scheduling state: the plane's when one is attached
    /// (its shards plan against one shared view), else the one server's.
    fn sched(&self) -> &SchedulerState {
        match &self.plane {
            Some(plane) => &plane.sched,
            None => &self.first_server().sched,
        }
    }

    fn sched_mut(&mut self) -> &mut SchedulerState {
        match &mut self.plane {
            Some(plane) => &mut plane.sched,
            None => &mut first_mut(&mut self.servers).sched,
        }
    }

    /// The underlying grid (e.g. to pre-seed replicas before submitting).
    pub fn grid_mut(&mut self) -> &mut GridSim {
        &mut self.grid
    }

    /// Tear the deployment down to its surviving grid ("the server process
    /// died; the grid did not notice").
    pub fn into_grid(self) -> GridSim {
        self.grid
    }

    /// The tracker.
    pub fn client(&self) -> &SphinxClient {
        &self.client
    }

    /// The configuration this deployment was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The policy engine of the grid-wide scheduling state (to register
    /// VOs, users and quotas).
    pub fn policy_mut(&mut self) -> &mut PolicyEngine {
        &mut self.sched_mut().policy
    }

    /// The run's telemetry hub (grid + monitor + servers + ops alerts).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.hub
    }

    /// The hub database and coordination activity lands on: the plane's
    /// (leases, heartbeats, adoptions, per-shard WALs) when one is
    /// attached, else the run's own hub.
    pub fn coord_telemetry(&self) -> &Arc<Telemetry> {
        self.plane.as_ref().map_or(&self.hub, |p| &p.hub)
    }

    /// The live-ops snapshot handle (for the HTTP endpoint or a harness);
    /// `None` unless [`RuntimeConfig::ops`] is set. The aggregator
    /// republishes into it after every planner cycle.
    pub fn ops_snapshot_handle(&self) -> Option<Arc<Mutex<OpsSnapshot>>> {
        self.ops_shared.clone()
    }

    /// The live-ops aggregator, when enabled.
    pub fn ops_aggregator(&self) -> Option<&OpsAggregator> {
        self.ops.as_ref()
    }

    /// The shard currently owning a DAG id: its partition slot, remapped
    /// through any completed failovers (always 0 without a plane).
    pub fn owner_of(&self, dag: DagId) -> usize {
        self.plane.as_ref().map_or(0, |p| p.owner_of(dag))
    }

    /// Number of servers still alive.
    pub fn alive_shards(&self) -> usize {
        self.servers.iter().flatten().count()
    }

    /// Every adoption performed so far, in order.
    pub fn adoptions(&self) -> &[AdoptionRecord] {
        self.plane.as_ref().map_or(&[], |p| &p.adoptions)
    }

    /// The current deployment epoch (bumped once per adoption).
    pub fn epoch(&self) -> u64 {
        self.plane.as_ref().map_or(0, |p| p.epoch)
    }

    /// The global quota-lease ledger rows, in site order.
    pub fn site_ledger(&self) -> CoreResult<Vec<SiteLeaseRow>> {
        Ok(self.mailbox.scan::<SiteLeaseRow>()?)
    }

    /// One shard's quota-lease ledger rows, in site order.
    pub fn site_ledger_of(&self, shard: usize) -> CoreResult<Vec<SiteLeaseRow>> {
        let Some(plane) = &self.plane else {
            return Ok(Vec::new());
        };
        let ns = self.mailbox.namespace_ref(plane.shard_ns(shard));
        Ok(ns.scan::<SiteLeaseRow>()?)
    }

    /// Submit a DAG on behalf of a user, routed to its partition owner,
    /// optionally with a QoS deadline `within` from now (the §6
    /// future-work extension): its ready jobs are planned
    /// earliest-deadline-first ahead of deadline-free work.
    pub fn submit(&mut self, dag: &Dag, user: UserId, within: Option<Duration>) -> CoreResult<()> {
        let now = self.grid.now();
        let owner = self.owner_of(dag.id);
        let Some(server) = self.servers.get_mut(owner).and_then(Option::as_mut) else {
            return Err(CoreError::Invariant(
                "dag routed to a dead, unadopted shard",
            ));
        };
        server.submit_dag_with_deadline(dag, user, now, within.map(|w| now + w))?;
        self.submitted_dags += 1;
        Ok(())
    }

    /// True when every submitted DAG reached `Finished` on a live server.
    /// A dead shard's finished DAGs stop counting until adopted, which is
    /// what keeps the event loop driving through a failover.
    pub fn all_finished(&self) -> bool {
        let finished: u64 = self.servers.iter().flatten().map(|s| s.progress().1).sum();
        self.submitted_dags > 0 && finished == self.submitted_dags
    }

    fn schedule_initial_wakeups(&mut self) -> CoreResult<()> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        let now = self.grid.now();
        self.grid
            .schedule_wakeup(now + self.config.planner_period, TOKEN_PLANNER);
        self.grid.schedule_wakeup(now, TOKEN_MONITOR);
        self.grid
            .schedule_wakeup(now + self.config.timeout_scan_period, TOKEN_TIMEOUT);
        if let Some(plane) = &self.plane {
            plane.grant_leases(&self.servers, now)?;
        }
        Ok(())
    }

    // sphinx-hot
    fn planner_tick(&mut self) -> CoreResult<()> {
        // The grid-wide scheduling state is checked out for the whole tick
        // so report handling, adoption and planning can borrow it beside
        // the servers.
        let mut sched = std::mem::take(self.sched_mut());
        let result = self.planner_steps(&mut sched);
        *self.sched_mut() = sched;
        result
    }

    fn planner_steps(&mut self, sched: &mut SchedulerState) -> CoreResult<()> {
        let cycle = self.cycle;
        self.cycle += 1;
        if let Some(plane) = self.plane.as_mut() {
            plane.apply_crashes(&mut self.servers, cycle, CrashPoint::BeforeTick);
        }
        let now = self.grid.now();
        // 1. Message handling: drain the inbox in sequence order, each
        // report to the server owning its DAG.
        let track_span = self.hub.span_start("phase:track", now);
        let mailbox = Arc::clone(&self.mailbox);
        let inbox: Queue<StatusReport> = Queue::new(&mailbox, INBOX);
        for report in inbox.drain()? {
            let owner = self.owner_of(report.job().dag);
            let server = self.servers.get_mut(owner).and_then(Option::as_mut);
            match (server, self.plane.as_mut()) {
                (Some(server), None) => server.handle_report_shared(sched, report, now)?,
                (Some(server), Some(plane)) => plane.deliver(owner, server, sched, &report, now)?,
                (None, Some(plane)) => plane.orphans.push(report), // until adoption
                (None, None) => {} // only a plane can crash a server
            }
        }
        self.hub.span_end(track_span, now);
        // 2. Liveness: heartbeat, expire, adopt.
        if let Some(plane) = self.plane.as_mut() {
            plane.heartbeat_and_adopt(&mut self.servers, sched, &self.client, now)?;
        }
        // 3. Planning: one global cycle across every live server.
        let reports: BTreeMap<SiteId, Report> = self
            .monitor
            .reports(now)
            .into_iter()
            .map(|r| (r.site, r))
            .collect();
        // Wall-clock timing is opt-in: reading `Instant` inside the sim
        // path would not change the trace, but keeping it off by default
        // guarantees the deterministic profile never touches the host
        // clock at all.
        let wall_start = self.hub.wall_clock_enabled().then(std::time::Instant::now); // sphinx-lint: allow(wall-clock)
        let plans = {
            let plane = self.plane.as_ref();
            plan_cycle_over(
                &mut self.servers,
                &self.hub,
                sched,
                now,
                self.grid.rls_mut(),
                &reports,
                &self.transfer_model,
                |dag| plane.map_or(0, |p| p.owner_of(dag)),
                |owner, k| plane.is_some_and(|p| p.crash_mid_plan(owner, cycle, k)),
            )?
        };
        if let Some(start) = wall_start {
            self.hub
                .observe("wall.plan_cycle_us", start.elapsed().as_micros() as f64);
        }
        // 4. Submission: plans travel through the outbox table in planning
        // order (debiting the quota-lease ledger on the way), and the
        // client consumes the outbox and submits.
        let submit_span = self.hub.span_start("phase:submit", now);
        let outbox: Queue<PlanNotice> = Queue::new(&mailbox, OUTBOX);
        for (owner, plan) in &plans {
            if let Some(plane) = &self.plane {
                plane.debit_ledger(*owner, plan)?;
            }
            outbox.push(plan)?;
        }
        for plan in outbox.drain()? {
            self.client.submit_plan(&mut self.grid, &plan, now);
        }
        self.hub.span_end(submit_span, now);
        // 5. Live ops plane: fold this cycle's trace and metrics into the
        // rolling windows, run the online detectors, publish the snapshot
        // for the HTTP endpoint, and (fast path only) feed black-hole
        // verdicts into the grid-wide reliability index.
        if let Some(ops) = self.ops.as_mut() {
            for alert in ops.tick(now, &self.hub) {
                if alert.detector == OpsDetector::BlackHole {
                    if let Some(server) = self.servers.iter().flatten().next() {
                        server.apply_ops_flag_shared(sched, SiteId(alert.site), now);
                    }
                }
            }
            if let Some(shared) = &self.ops_shared {
                ops.publish_into(now, &mut shared.lock());
            }
        }
        self.grid
            .schedule_wakeup(now + self.config.planner_period, TOKEN_PLANNER);
        if let Some(plane) = self.plane.as_mut() {
            plane.apply_crashes(&mut self.servers, cycle, CrashPoint::TornWal);
        }
        Ok(())
    }

    fn monitor_tick(&mut self) {
        let now = self.grid.now();
        let truth = self.grid.snapshots();
        self.monitor.sample(now, &truth);
        self.grid
            .schedule_wakeup(now + self.config.monitor.update_period, TOKEN_MONITOR);
    }

    fn timeout_tick(&mut self) -> CoreResult<()> {
        let now = self.grid.now();
        let reports = self.client.scan_timeouts(&mut self.grid, now);
        let inbox: Queue<StatusReport> = Queue::new(&self.mailbox, INBOX);
        for report in reports {
            inbox.push(&report)?;
        }
        self.grid
            .schedule_wakeup(now + self.config.timeout_scan_period, TOKEN_TIMEOUT);
        Ok(())
    }

    /// The event loop behind [`Self::try_run`] and [`Self::try_run_until`]:
    /// step the grid and dispatch notifications until every DAG finishes,
    /// the grid drains, or `stop` passes on the simulation clock.
    fn drive(&mut self, stop: SimTime) -> CoreResult<()> {
        self.schedule_initial_wakeups()?;
        let horizon = SimTime::ZERO + self.config.horizon;
        let stop = stop.min(horizon);
        while !self.all_finished() && self.grid.now() < stop {
            if !self.grid.step() {
                break; // grid drained (no recurring processes configured)
            }
            let now = self.grid.now();
            let notifications = self.grid.poll();
            let mailbox = Arc::clone(&self.mailbox);
            let inbox: Queue<StatusReport> = Queue::new(&mailbox, INBOX);
            for n in notifications {
                match n {
                    Notification::Wakeup {
                        token: TOKEN_PLANNER,
                    } => self.planner_tick()?,
                    Notification::Wakeup {
                        token: TOKEN_MONITOR,
                    } => self.monitor_tick(),
                    Notification::Wakeup {
                        token: TOKEN_TIMEOUT,
                    } => self.timeout_tick()?,
                    Notification::Wakeup { .. } => {}
                    other => {
                        if let Some(report) = self.client.on_notification(&other, now) {
                            inbox.push(&report)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Run until every DAG finishes, the grid drains, the horizon is hit,
    /// or `stop_at` passes on the simulation clock. Returns whether
    /// everything finished; a database failure surfaces as a typed error.
    pub fn try_run_until(&mut self, stop_at: SimTime) -> CoreResult<bool> {
        self.drive(stop_at)?;
        Ok(self.all_finished())
    }

    /// Run until every DAG finishes or the horizon is hit, then build the
    /// report. A database failure surfaces as a typed error.
    pub fn try_run(&mut self) -> CoreResult<RunReport> {
        self.drive(SimTime::MAX)?;
        self.build_report()
    }

    /// Assemble the aggregate [`RunReport`] across every live server.
    ///
    /// Partition-invariant by construction: rows are merged and sorted by
    /// id before any floating-point accumulation, per-site tallies merge
    /// integers, and per-site completion averages come from the grid-wide
    /// prediction ledger (global report order; the number eq. 3 planned
    /// with), never from per-server float sums. Job tallies are one
    /// filtered pass over each job table that clones only terminal rows.
    pub fn build_report(&self) -> CoreResult<RunReport> {
        let mut dags: Vec<DagRow> = Vec::new();
        let mut finished_jobs: Vec<JobRow> = Vec::new();
        let mut eliminated = 0usize;
        let mut tallies: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for server in self.servers.iter().flatten() {
            let db = server.database();
            dags.extend(db.scan::<DagRow>()?);
            for job in db.scan_filter::<JobRow>(|j| j.state.is_terminal())? {
                match job.state {
                    JobState::Finished => finished_jobs.push(job),
                    _ => eliminated += 1,
                }
            }
            for row in db.scan::<SiteStatsRow>()? {
                let tally = tallies.entry(row.site).or_default();
                tally.0 += row.completed;
                tally.1 += row.cancelled;
            }
        }
        dags.sort_by_key(|d| d.id);
        finished_jobs.sort_by_key(|j| j.id.as_key());
        let mut dag_completion_secs = Vec::new();
        let mut deadlines_met = 0usize;
        let mut deadlines_missed = 0usize;
        for d in &dags {
            if let Some(fin) = d.finished_at {
                dag_completion_secs.push(fin.since(d.submitted_at).as_secs_f64());
            }
            if let Some(deadline) = d.deadline {
                match d.finished_at {
                    Some(fin) if fin <= deadline => deadlines_met += 1,
                    _ => deadlines_missed += 1,
                }
            }
        }
        let mean = |sum: f64, n: usize| if n > 0 { sum / n as f64 } else { 0.0 };
        let completed = finished_jobs.len();
        let exec_sum: f64 = finished_jobs.iter().filter_map(|j| j.exec_secs).sum();
        let idle_sum: f64 = finished_jobs.iter().filter_map(|j| j.idle_secs).sum();
        let names: BTreeMap<SiteId, &str> = self
            .grid
            .site_specs()
            .iter()
            .map(|s| (s.id, s.name.as_str()))
            .collect();
        let sched = self.sched();
        let sites = tallies
            .iter()
            .map(|(&site, &(completed, cancelled))| SiteOutcome {
                site: SiteId(site),
                name: names
                    .get(&SiteId(site))
                    .map_or_else(|| format!("site{site}"), |&name| name.to_owned()),
                completed,
                cancelled,
                avg_completion_secs: sched.prediction.average(SiteId(site)),
            })
            .collect();
        Ok(RunReport {
            strategy: self.config.strategy.label().to_owned(),
            feedback: ServerConfig::from(&self.config).effective_feedback(),
            policy: self.config.policy_enabled,
            seed: self.config.seed,
            finished: self.all_finished(),
            makespan_secs: self.grid.now().as_secs_f64(),
            dags: dags.len(),
            avg_dag_completion_secs: mean(
                dag_completion_secs.iter().sum(),
                dag_completion_secs.len(),
            ),
            dag_completion_secs,
            jobs_completed: completed,
            jobs_eliminated: eliminated,
            avg_exec_secs: mean(exec_sum, completed),
            avg_idle_secs: mean(idle_sum, completed),
            plans: sched.stats.plans,
            timeouts: sched.stats.reschedules_timeout,
            holds: sched.stats.reschedules_held,
            deadlines_met,
            deadlines_missed,
            sites,
            telemetry: self.hub.snapshot(),
            analysis: self.hub.analyze(10),
        })
    }
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("strategy", &self.config.strategy)
            .field("servers", &self.servers.len())
            .field("alive", &self.alive_shards())
            .field("epoch", &self.epoch())
            .field("now", &self.grid.now())
            .finish()
    }
}
