//! The coordination plane: what N schedulers need beyond what one has.
//!
//! The paper's §3.1 describes SPHINX as "a system of agents communicating
//! exclusively through database tables", and observes that this makes the
//! scheduling tier horizontally scalable: several server processes can
//! divide the DAG space between them as long as every coordination fact
//! is itself a table. The event loop is the one the single scheduler runs
//! ([`crate::driver`]); this module is the [`Plane`] attached to it. [`ShardedRuntime`] runs N
//! [`SphinxServer`]s over a deterministic hash partition of DAG ids, each
//! with its **own WAL-backed database**, all planning against one shared
//! [`SchedulerState`] (grid truth must be global — see that type's docs)
//! and coordinating only through tables on a coordination database, which
//! also carries the INBOX / OUTBOX queues. Its one table of its own is the
//! **lease table** ([`LeaseRow`]): every shard heartbeats a sim-time row
//! each planner cycle, and a row whose heartbeat is older than
//! [`LEASE_TTL`] marks a dead shard. Grid quota needs no table here: eq. 4
//! is enforced once, by the policy engine of the shared
//! [`SchedulerState`]. The deployment epoch, bumped at every adoption, is
//! kept in memory and written into the trace.
//!
//! **What the plane adds to a planner tick:** crash injection; routing
//! each report to the shard owning its DAG through that shard's
//! at-least-once inbox; heartbeat-and-adopt between tracking and planning.
//! Nothing else.
//!
//! **Failover.** When a lease expires, the lowest-numbered surviving shard
//! adopts the dead shard's DAGs by recovering the dead shard's WAL
//! segment ([`SphinxServer::adopt_from`]), re-delivering its un-acked
//! reports, and reconciling in-flight attempts against the client tracker
//! — the one component the paper keeps *outside* the server precisely so
//! it survives server deaths ([`SphinxServer::reconcile_inflight`]). The
//! per-DAG restore and the reconcile are the ones a single scheduler's
//! crash recovery ([`SphinxServer::recover`]) runs, against an empty
//! tracker there; DESIGN.md "Recovery and adoption: one restore path".
//!
//! **Determinism.** A crash-free run is invariant to the shard count:
//! DAG reduction, planning and report handling all happen in a global
//! deterministic order (dag-id order, sorted ready entries, inbox
//! sequence order), and per-cycle telemetry is emitted once per *global*
//! cycle. Crash runs are reproducible: the same seed and the same
//! [`ShardCrash`] schedule give the same report, byte for byte.

use crate::client::SphinxClient;
use crate::driver::{catalog, Driver};
use crate::error::CoreResult;
use crate::messages::StatusReport;
use crate::runtime::RuntimeConfig;
use crate::server::{SchedulerState, ServerConfig, SphinxServer};
use crate::state::JobRow;
use crate::strategy::SiteInfo;
use serde::{Deserialize, Serialize};
use sphinx_dag::{Dag, DagId};
use sphinx_db::{CheckpointPolicy, Database, MemWal, Queue, QueueName, Record};
use sphinx_grid::GridSim;
use sphinx_policy::UserId;
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::{Telemetry, TraceKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// SplitMix64 finalizer: the DAG-id partition hash. Chosen because it is
/// trivially portable (the partition must be identical on every shard and
/// every run) and avalanches well enough that consecutive DAG ids spread
/// across shards.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Heartbeat lease time-to-live: a shard whose lease row is older than
/// this is declared dead and its DAGs are adopted.
const LEASE_TTL: Duration = Duration::from_secs(60);

/// Configuration of the coordination plane (on top of a [`RuntimeConfig`]).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of scheduler shards.
    pub shards: usize,
    /// Explicit DAG-id → slot overrides (tests use this to prove results
    /// are invariant to the partition map). Slots are taken modulo the
    /// shard count.
    pub assignments: Option<BTreeMap<u64, usize>>,
    /// Crash schedule for fault-injection experiments.
    pub crashes: Vec<ShardCrash>,
    /// Checkpoint policy of every per-shard store (bounds adoption
    /// replay length).
    pub checkpoint: CheckpointPolicy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            assignments: None,
            crashes: Vec::new(),
            checkpoint: CheckpointPolicy::default(),
        }
    }
}

/// One scheduled shard crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCrash {
    /// Which shard dies.
    pub shard: usize,
    /// During which global planner cycle (0-based).
    pub at_cycle: u64,
    /// Where inside the cycle the crash lands.
    pub point: CrashPoint,
}

/// Where inside a planner cycle a [`ShardCrash`] strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Cleanly between cycles: the shard's last WAL line is intact.
    BeforeTick,
    /// After the shard's k-th `plan_one` call of the cycle: plan rows for
    /// already-planned jobs are committed, but none of this cycle's plans
    /// reach the grid — the submitted-but-never-tracked torn shape.
    MidPlan(usize),
    /// At the end of the cycle, tearing the shard's final WAL line — the
    /// mid-append torn shape recovery must discard and repair.
    TornWal,
}

/// The retained WAL segments of every shard, indexed by shard id. Only the
/// adoption path may read another shard's segment; the `shard-wal-read`
/// lint enforces that every [`ShardWalSet::segment_of`] call site is
/// explicitly annotated.
#[derive(Debug, Default)]
struct ShardWalSet {
    segments: Vec<MemWal>,
}

impl ShardWalSet {
    /// The shared WAL segment of one shard (the crash-adoption read).
    // sphinx-lint: allow(shard-wal-read)
    fn segment_of(&self, shard: usize) -> Option<MemWal> {
        self.segments.get(shard).cloned()
    }

    /// Simulate an OS-level torn final append on one shard's segment.
    fn tear_tail(&self, shard: usize) {
        if let Some(wal) = self.segments.get(shard) {
            wal.tear_last_line();
        }
    }
}

/// Liveness lease of one shard, stored on the shared coordination
/// database (the only channel shards may share).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LeaseRow {
    shard: u64,
    last_heartbeat: SimTime,
    alive: bool,
}

impl Record for LeaseRow {
    const TABLE: &'static str = "shard_leases";
    fn key(&self) -> u64 {
        self.shard
    }
}

/// What one adoption did (the failover audit record).
#[derive(Debug, Clone)]
pub struct AdoptionRecord {
    /// The shard whose lease expired.
    pub dead: usize,
    /// The surviving shard that adopted its DAGs (lowest surviving id).
    pub adopter: usize,
    /// The deployment epoch after the adoption.
    pub epoch: u64,
    /// WAL lines replayed to recover the dead shard's database.
    pub replayed: u64,
    /// The adopted DAG ids, in id order.
    pub dags: Vec<DagId>,
    /// In-flight attempts reset to `Ready` (planned but never reached the
    /// grid).
    pub reset: u64,
    /// Rows re-advanced to `Submitted` (reached the grid but the row
    /// update was torn off the WAL).
    pub repaired: u64,
    /// Reports re-delivered from the dead shard's un-acked inbox and the
    /// plane's orphan buffer.
    pub redelivered: u64,
}

/// The coordination state a sharded deployment attaches to the [`Driver`].
pub(crate) struct Plane {
    /// Coordination database: the deployment's message queues and the
    /// lease table. It stands in for the paper's central DBMS, which is
    /// assumed durable: it logs to its own in-memory WAL like any
    /// [`Database::in_memory`] store, but no failover ever recovers it.
    db: Arc<Database>,
    /// Coordination telemetry: WAL/db activity of every shard, leases,
    /// heartbeats, adoptions. Varies with the shard count by construction,
    /// so it is kept off the run's own hub and the [`RunReport`].
    ///
    /// [`RunReport`]: crate::report::RunReport
    pub(crate) hub: Arc<Telemetry>,
    config: ShardConfig,
    wals: ShardWalSet,
    /// The one grid-wide planning state (see [`SchedulerState`]).
    pub(crate) sched: SchedulerState,
    pub(crate) epoch: u64,
    /// Partition slot → currently owning shard (identity until failovers
    /// remap dead slots to adopters).
    remap: Vec<usize>,
    /// Reports routed to a dead, not-yet-adopted shard; re-delivered at
    /// adoption.
    pub(crate) orphans: Vec<StatusReport>,
    pub(crate) adoptions: Vec<AdoptionRecord>,
    /// Precomputed names of each shard's inbox queue (`shard{i}/inbox`),
    /// so a delivered report attaches to it without formatting any.
    inbox_names: Vec<QueueName>,
}

impl Plane {
    /// The plane and its fresh shard servers, each over its own WAL-backed
    /// database (slot = shard id).
    fn new(
        config: ShardConfig,
        runtime: &RuntimeConfig,
        catalog: Vec<SiteInfo>,
    ) -> (Plane, Vec<SphinxServer>) {
        let n = config.shards.max(1);
        let hub = Arc::new(Telemetry::with_config(runtime.telemetry.clone()));
        let db = Arc::new(Database::in_memory());
        db.attach_telemetry(Arc::clone(&hub));
        let segments: Vec<MemWal> = (0..n).map(|_| MemWal::shared()).collect();
        let servers = segments
            .iter()
            .map(|wal| {
                let db = Database::with_wal_and_config(Box::new(wal.clone()), config.checkpoint);
                db.attach_telemetry(Arc::clone(&hub));
                SphinxServer::new(Arc::new(db), catalog.clone(), ServerConfig::from(runtime))
            })
            .collect();
        let plane = Plane {
            db,
            hub,
            config,
            wals: ShardWalSet { segments },
            sched: SchedulerState::default(),
            epoch: 0,
            remap: (0..n).collect(),
            orphans: Vec::new(),
            adoptions: Vec::new(),
            inbox_names: (0..n)
                .map(|i| QueueName::namespaced(&format!("shard{i}"), "inbox"))
                .collect(),
        };
        (plane, servers)
    }

    /// The shard currently owning a DAG id: its partition slot — an
    /// explicit assignment if the config has one, else the SplitMix64
    /// hash; a pure function of (id, config) that every run and
    /// every shard agrees on — remapped through any completed failovers.
    pub(crate) fn owner_of(&self, dag: DagId) -> usize {
        let n = self.remap.len().max(1);
        let assigned = self.config.assignments.as_ref().and_then(|a| a.get(&dag.0));
        let slot = match assigned {
            Some(&s) => s % n,
            None => (splitmix64(dag.0) % n as u64) as usize,
        };
        self.remap.get(slot).copied().unwrap_or(0)
    }

    /// Shard `i`'s inbox queue on `db`, attached through its precomputed
    /// name. Shard indices are internal and always in range; the fallback
    /// only guards against a future refactor breaking that invariant
    /// without a panic path.
    fn shard_inbox<'a>(&'a self, db: &'a Database, i: usize) -> Queue<'a, StatusReport> {
        match self.inbox_names.get(i) {
            Some(name) => Queue::at(db, name),
            None => Queue::namespaced(db, "shard-invalid", "inbox"),
        }
    }

    /// Grant every live shard its first lease, in epoch 0.
    pub(crate) fn grant_leases(
        &self,
        servers: &[Option<SphinxServer>],
        now: SimTime,
    ) -> CoreResult<()> {
        for (i, server) in servers.iter().enumerate() {
            if server.is_some() {
                self.db.put(&LeaseRow {
                    shard: i as u64,
                    last_heartbeat: now,
                    alive: true,
                })?;
                self.hub.counter_add("shard.leases.granted", 1);
                self.hub.trace(
                    TraceKind::LeaseGranted,
                    now,
                    None,
                    None,
                    format!("shard={i} epoch=0"),
                );
            }
        }
        Ok(())
    }

    /// Crash every shard scheduled for (`cycle`, `point`); a
    /// [`CrashPoint::TornWal`] crash also tears the shard's final WAL line.
    pub(crate) fn apply_crashes(
        &self,
        servers: &mut [Option<SphinxServer>],
        cycle: u64,
        point: CrashPoint,
    ) {
        for crash in &self.config.crashes {
            if crash.at_cycle != cycle || crash.point != point {
                continue;
            }
            if servers
                .get_mut(crash.shard)
                .and_then(Option::take)
                .is_some()
            {
                self.hub.counter_add("shard.crashes", 1);
                if point == CrashPoint::TornWal {
                    self.wals.tear_tail(crash.shard);
                }
            }
        }
    }

    /// The plan cycle's crash hook: whether `shard` dies right after its
    /// `k`-th `plan_one` call of `cycle`. Answering `true` *is* the crash
    /// (the cycle drops the server), so it is counted here.
    pub(crate) fn crash_mid_plan(&self, shard: usize, cycle: u64, k: usize) -> bool {
        let due =
            self.config.crashes.iter().any(|c| {
                c.shard == shard && c.at_cycle == cycle && c.point == CrashPoint::MidPlan(k)
            });
        if due {
            self.hub.counter_add("shard.crashes", 1);
        }
        due
    }

    /// Deliver one report to shard `owner` with at-least-once semantics:
    /// push to the shard's namespaced inbox table, handle, then
    /// acknowledge (pop). A crash between push and ack leaves the report
    /// in the recovered inbox for the adopter to re-deliver; the server's
    /// FSA guards make duplicate handling a no-op.
    pub(crate) fn deliver(
        &self,
        owner: usize,
        server: &mut SphinxServer,
        sched: &mut SchedulerState,
        report: &StatusReport,
        now: SimTime,
    ) -> CoreResult<()> {
        let db = Arc::clone(server.database());
        let inbox = self.shard_inbox(&db, owner);
        inbox.push(report)?;
        server.handle_report_shared(sched, report.clone(), now)?;
        inbox.pop()?;
        Ok(())
    }

    /// Heartbeat every live shard's lease, then expire stale leases and
    /// adopt their DAGs. Detection is purely table-driven: a shard is
    /// dead *because* its lease row went stale, not because anyone saw it
    /// die.
    pub(crate) fn heartbeat_and_adopt(
        &mut self,
        servers: &mut [Option<SphinxServer>],
        sched: &mut SchedulerState,
        client: &SphinxClient,
        now: SimTime,
    ) -> CoreResult<()> {
        let mut alive = 0;
        for (i, _) in servers.iter().enumerate().filter(|(_, s)| s.is_some()) {
            self.db
                .update::<LeaseRow>(i as u64, |l| l.last_heartbeat = now)?;
            alive += 1;
        }
        self.hub.counter_add("shard.heartbeats", alive);
        let expired: Vec<u64> = self
            .db
            .scan::<LeaseRow>()?
            .into_iter()
            .filter(|l| l.alive && now > l.last_heartbeat + LEASE_TTL)
            .map(|l| l.shard)
            .collect();
        for dead in expired {
            self.db.update::<LeaseRow>(dead, |l| l.alive = false)?;
            self.hub.counter_add("shard.leases.expired", 1);
            self.hub.trace(
                TraceKind::LeaseExpired,
                now,
                None,
                None,
                format!("shard={dead}"),
            );
            self.adopt(servers, sched, client, dead as usize, now)?;
        }
        Ok(())
    }

    /// Adopt a dead shard's DAGs into the lowest surviving shard.
    ///
    /// Order matters and is load-bearing:
    ///
    /// 1. Recover the dead shard's WAL segment, copy its rows and restore
    ///    each DAG ([`SphinxServer::adopt_from`] — in-flight attempts stay
    ///    in flight, because the grid and tracker survived).
    /// 2. Re-deliver its un-acked local inbox, then the parked orphan
    ///    reports for the adopted DAGs. This must precede step 3: a
    ///    completion that arrived while the shard was dead removed the
    ///    job from the tracker, and reconciling first would misread that
    ///    as planned-but-never-submitted and double-submit the job.
    /// 3. Re-read the adopted DAGs' job rows and reconcile them against
    ///    the tracker ([`SphinxServer::reconcile_inflight`]).
    /// 4. Remap the dead partition slots to the adopter.
    fn adopt(
        &mut self,
        servers: &mut [Option<SphinxServer>],
        sched: &mut SchedulerState,
        client: &SphinxClient,
        dead: usize,
        now: SimTime,
    ) -> CoreResult<()> {
        let mut survivors = servers.iter_mut().enumerate();
        let Some((adopter, server)) = survivors.find_map(|(i, s)| Some((i, s.as_mut()?))) else {
            return Ok(()); // no survivors; the run will report unfinished
        };
        // sphinx-lint: allow(shard-wal-read)
        let Some(segment) = self.wals.segment_of(dead) else {
            return Ok(());
        };
        let donor = Database::recover_with_config(Box::new(segment), self.config.checkpoint)?;
        let replayed = donor.replayed();
        self.epoch += 1;
        let epoch = self.epoch;
        let dags = server.adopt_from(&donor, now)?;
        let adopted: BTreeSet<DagId> = dags.iter().copied().collect();
        let mut redelivered = 0;
        // Un-acked reports the dead shard pushed to its local inbox but
        // crashed before acknowledging (at-least-once delivery; the FSA
        // guards make re-handling idempotent).
        let pending = self.shard_inbox(&donor, dead);
        for report in pending.peek_all()? {
            self.deliver(adopter, server, sched, &report, now)?;
            redelivered += 1;
        }
        for report in std::mem::take(&mut self.orphans) {
            if adopted.contains(&report.job().dag) {
                self.deliver(adopter, server, sched, &report, now)?;
                redelivered += 1;
            } else {
                self.orphans.push(report);
            }
        }
        let mut jobs = Vec::new();
        for dag in &dags {
            jobs.extend(server.database().scan_range::<JobRow>(dag.job_keys())?);
        }
        let (reset, repaired) =
            server.reconcile_inflight(sched, &jobs, &client.tracked_jobs(), now)?;
        for slot in self.remap.iter_mut() {
            if *slot == dead {
                *slot = adopter;
            }
        }
        self.hub.counter_add("shard.adoptions", 1);
        self.hub.trace(
            TraceKind::ShardAdoption,
            now,
            None,
            None,
            format!(
                "dead={dead} adopter={adopter} epoch={epoch} dags={} replayed={replayed}",
                dags.len()
            ),
        );
        self.adoptions.push(AdoptionRecord {
            dead,
            adopter,
            epoch,
            replayed,
            dags,
            reset,
            repaired,
            redelivered,
        });
        Ok(())
    }
}

/// The sharded deployment: a [`Driver`] with N servers over a partitioned
/// DAG space and the coordination [`Plane`] attached. Dereferences to the
/// driver for everything the two deployments share.
#[derive(Debug)]
pub struct ShardedRuntime(Driver);

impl Deref for ShardedRuntime {
    type Target = Driver;
    fn deref(&self) -> &Driver {
        &self.0
    }
}

impl DerefMut for ShardedRuntime {
    fn deref_mut(&mut self) -> &mut Driver {
        &mut self.0
    }
}

impl ShardedRuntime {
    /// Assemble a sharded deployment over a grid.
    pub fn new(grid: GridSim, config: RuntimeConfig, shard_config: ShardConfig) -> Self {
        let (plane, servers) = Plane::new(shard_config, &config, catalog(&grid));
        let mailbox = Arc::clone(&plane.db);
        ShardedRuntime(Driver::assemble(
            grid,
            config,
            mailbox,
            servers,
            Some(plane),
        ))
    }

    /// Submit a DAG on behalf of a user, routed to its partition owner.
    pub fn submit_dag(&mut self, dag: &Dag, user: UserId) -> CoreResult<()> {
        self.0.submit(dag, user, None)
    }

    /// Submit a DAG with a QoS deadline relative to now.
    pub fn submit_dag_with_deadline(
        &mut self,
        dag: &Dag,
        user: UserId,
        within: Duration,
    ) -> CoreResult<()> {
        self.0.submit(dag, user, Some(within))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_partition_is_stable_and_spread() {
        let a: Vec<u64> = (0..16).map(|i| splitmix64(i) % 4).collect();
        let b: Vec<u64> = (0..16).map(|i| splitmix64(i) % 4).collect();
        assert_eq!(a, b);
        // Not all ids on one shard.
        let distinct: BTreeSet<u64> = a.iter().copied().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn wal_set_tear_is_bounds_checked() {
        let set = ShardWalSet::default();
        set.tear_tail(3); // no panic on unknown shard
        assert!(set.segment_of(0).is_none());
    }

    #[test]
    fn lease_rows_round_trip_through_tables() {
        let db = Database::in_memory();
        db.put(&LeaseRow {
            shard: 1,
            last_heartbeat: SimTime::ZERO,
            alive: true,
        })
        .unwrap();
        db.update::<LeaseRow>(1, |l| l.alive = false).unwrap();
        let rows = db.scan::<LeaseRow>().unwrap();
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].alive);
    }

    /// The encoder's checks of `tests/json_encoder.rs`, for the row
    /// private to this module: the text is canonical (read as a `Value`,
    /// it prints the same bytes) and reads back as a row that prints it
    /// again.
    #[test]
    fn lease_rows_print_canonically_and_round_trip() {
        fn round_trips<T: Serialize + serde::de::DeserializeOwned>(value: &T) -> bool {
            let mut out = String::new();
            value.write_json(&mut out);
            let canonical = serde_json::from_str::<serde_json::Value>(&out).map(|v| v.to_string());
            let back = serde_json::from_str::<T>(&out).and_then(|row| serde_json::to_string(&row));
            canonical.ok().as_ref() == Some(&out) && back.ok() == Some(out)
        }
        for (shard, last_heartbeat) in [(0, SimTime::ZERO), (u64::MAX, SimTime::MAX)] {
            let alive = shard == 0;
            let lease = LeaseRow {
                shard,
                last_heartbeat,
                alive,
            };
            assert!(round_trips(&lease));
        }
    }
}
