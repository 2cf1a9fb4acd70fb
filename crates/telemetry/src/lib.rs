//! Scheduler telemetry: structured tracing + metrics across the FSA
//! pipeline.
//!
//! Every layer of the SPHINX stack reports into one shared [`Telemetry`]
//! hub, and what it reports is a *fact*: [`Telemetry::record`] takes one
//! typed [`Event`] and, under one acquisition of the hub lock, does all the
//! fact implies — counter, per-site tally, histogram, span and ring line.
//! Only this crate knows which metric, span and [`TraceKind`] a fact means.
//!
//! * **Metrics** — counters, gauges and fixed-bucket [`Histogram`]s keyed
//!   by `&'static str` names, plus per-site grid tallies.
//! * **Trace events** — a bounded ring of [`TraceEvent`]s stamped with
//!   **simulation time only**, fanned out to pluggable [`TraceSink`]s.
//!   Free-text infrastructure lines (monitor rounds, leases, adoption, ops
//!   alerts, recovery) go to the ring through [`Telemetry::trace`].
//! * **Causal spans** (see [`span`]) — sim-time intervals for DAGs, jobs,
//!   attempts, dwell states, batch slots, planner phases and the WAL, with
//!   parent and cause links. A job's open `state:*` span is also its dwell
//!   clock. [`analysis`] turns the graph into critical paths and dwell
//!   blame; [`export`] renders Chrome trace JSON and Prometheus text.
//!
//! Determinism is a hard requirement: nothing here reads the wall clock,
//! so same-seed runs produce byte-identical traces and snapshots. The one
//! wall-clock metric (`wall.plan_cycle_us`) is gated by
//! [`TelemetryConfig::wall_clock`], **off** by default.
//!
//! Metric name inventory (see DESIGN.md §Telemetry for semantics):
//!
//! | name | type | fed by |
//! |------|------|--------|
//! | `dag.submitted`, `dag.finished` | counter | [`Event::DagSubmitted`], [`Event::DagFinished`] |
//! | `job.eliminated`, `plan.jobs_submitted`, `plan.reschedules_{held,timeout}` | counter | [`Event::Job`] |
//! | `plan.cycles`, `plan.score_cache.{hits,misses}`, `plan.scratch.reused` | counter | [`Event::PlanCycle`], [`Event::PlanCycleDone`] |
//! | `reliability.flagged`, `reliability.unflagged` | counter | [`Event::SiteFlag`] |
//! | `grid.{submits,queues,starts,completions,holds,cancels}` | counter | [`Event::Grid`] |
//! | `wal.replays`, `wal.rewrites` | counter | [`Event::WalReplay`], [`Event::WalCheckpoint`] |
//! | `wal.appends`, `db.rows.read`, `monitor.samples{,_lost}`, `ops.alerts`, `ops.poll.missed` | counter | [`Telemetry::counter_add`] |
//! | `telemetry.trace.{recorded,dropped}`, `telemetry.spans.{total,live,dropped}` | counter | snapshot-synthesized |
//! | `monitor.staleness`, `monitor.queue_depth` | per-site gauge | [`Event::SiteReport`] |
//! | `fsa.dwell_ms.{unready,ready,submitted,queued,running}`, `job.completion_ms` | histogram | [`Event::Job`] |
//! | `monitor.sample_age_ms` | histogram | [`Event::SiteReport`] |
//! | `plan.cycle_gap_ms`, `wall.plan_cycle_us` (opt-in) | histogram | [`Event::PlanCycle`], [`Event::PlanCycleDone`] |

pub mod analysis;
pub mod export;
pub mod span;

pub use analysis::{
    CriticalPath, CriticalStep, DwellBreakdown, JobBlame, SpanGraph, TraceAnalysis,
};
pub use export::{chrome_trace_json, prometheus_text, validate_prometheus};
pub use span::{Span, SpanAttrs, SpanId, SpanStore};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sphinx_data::SiteId;
use sphinx_sim::{Duration, SimTime};
use std::collections::{vec_deque, BTreeMap, VecDeque};
use std::io::Write;
use std::sync::Arc;

/// What a [`TraceEvent`] describes. Kinds cover every FSA transition plus
/// the infrastructure events around them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceKind {
    /// A DAG entered the `dags` table (`Received`).
    DagSubmitted,
    /// Every job of a DAG reached a terminal state.
    DagFinished,
    /// A job's inputs became available (`Unready → Ready`).
    JobReady,
    /// The DAG reducer eliminated a job whose outputs already exist.
    JobEliminated,
    /// The planner placed a job (`Ready → Submitted`).
    JobSubmitted,
    /// Tracker report: the job entered a site's batch queue.
    JobQueued,
    /// Tracker report: the job was dispatched onto a CPU.
    JobRunning,
    /// Tracker report: the job ran to completion (`→ Finished`).
    JobCompleted,
    /// Tracker report: held/killed/timed out; the job goes back to
    /// `Ready` for replanning.
    JobCancelled,
    /// One planner cycle ran.
    PlanCycle,
    /// The reliability ledger flagged a site unreliable.
    SiteFlagged,
    /// A previously flagged site became eligible again.
    SiteUnflagged,
    /// A recovered database replayed committed WAL entries.
    WalReplay,
    /// The monitoring system ran one sampling round.
    MonitorSample,
    /// Grid substrate: an execution plan arrived at a site gatekeeper.
    GridSubmit,
    /// Grid substrate: a SPHINX job started executing.
    GridStart,
    /// Grid substrate: a SPHINX job completed at a site.
    GridComplete,
    /// Grid substrate: a SPHINX job was held or killed at a site.
    GridHold,
    /// Grid substrate: the client cancelled a submission.
    GridCancel,
    /// A server was reconstructed from a surviving database.
    Recovery,
    /// Sharded coordination: a scheduler shard's sim-time lease was
    /// granted (or renewed after adoption rebalancing).
    LeaseGranted,
    /// Sharded coordination: a shard's lease expired (missed heartbeats).
    LeaseExpired,
    /// Sharded coordination: a surviving shard adopted a dead shard's
    /// DAG partition after WAL replay.
    ShardAdoption,
    /// Live ops plane: an online anomaly detector fired (black-hole,
    /// queue-anomaly or staleness). `detail` carries the detector name
    /// and its evidence; deterministic across same-seed runs.
    OpsAlert,
}

/// One fact a layer reports, for [`Telemetry::record`]. Jobs are named by
/// their dense key (`dag << 24 | index`, [`analysis::job_key`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A DAG of `jobs` jobs entered the `dags` table, every job `Unready`.
    DagSubmitted { dag: u64, jobs: usize },
    /// A recovered server holds unfinished DAG `dag`: its root span is
    /// re-opened from its submission time, unless the hub holds it live.
    DagRestored { dag: u64, jobs: usize },
    /// Every job of `dag` reached a terminal state.
    DagFinished { dag: u64 },
    /// Job `job` took one automaton transition.
    Job { job: u64, step: JobStep },
    /// A grid site moved job `job` through its batch slot.
    Grid {
        site: SiteId,
        job: u64,
        step: GridStep,
    },
    /// The reliability ledger flagged `site` (`true`) or cleared it.
    SiteFlag { site: SiteId, flagged: bool },
    /// The planner read `site`'s monitor report: `age` old, `queued` deep.
    SiteReport {
        site: SiteId,
        age: Duration,
        queued: usize,
    },
    /// A plan cycle began over `reports` monitor reports, `gap` after the
    /// previous cycle.
    PlanCycle {
        reports: usize,
        gap: Option<Duration>,
    },
    /// A plan cycle ended: score-cache hits and misses, jobs that reused
    /// the candidate buffer, and its host-clock µs when
    /// [`TelemetryConfig::wall_clock`] is on.
    PlanCycleDone {
        hits: u64,
        misses: u64,
        reused: u64,
        wall_us: Option<u64>,
    },
    /// A recovered database replayed `lines` committed WAL lines.
    WalReplay { lines: u64 },
    /// The WAL was compacted to one snapshot line.
    WalCheckpoint,
}

/// An automaton transition, with what it knows: its site, and why the
/// job became ready.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobStep {
    /// `Unready → Ready`; `cause` is the upstream job whose completion
    /// made it ready (the critical path's link), if any.
    Ready { cause: Option<u64> },
    /// The reducer eliminated the job: its outputs already exist.
    Eliminated,
    /// The planner placed the job at `site`.
    Submitted { site: SiteId },
    /// Tracker: the job entered `site`'s batch queue.
    Queued { site: SiteId },
    /// Tracker: the job was dispatched onto a CPU at `site`.
    Running { site: SiteId },
    /// Tracker: the job finished at `site`, `total` after its submission.
    Completed { site: SiteId, total: Duration },
    /// Tracker: `site` held or killed the job; back to `Ready`.
    Held { site: SiteId },
    /// Tracker: the submission to `site` timed out; back to `Ready`.
    TimedOut { site: SiteId },
    /// The restore path put the row back to `Ready` (no ring line).
    Reset,
    /// The restore path re-advanced a row the tracker follows at `site`
    /// to `Submitted` (no ring line).
    Resumed { site: SiteId },
}

/// What a grid site did with a job's batch slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridStep {
    /// The execution plan reached the gatekeeper.
    Submit,
    /// The job entered the batch queue: `slot:queued` opens.
    Queued,
    /// The job was dispatched onto a CPU: `slot:run` replaces `slot:queued`.
    Start,
    /// The job completed; its slot closes.
    Complete,
    /// The site held or killed the job; its slot closes.
    Hold,
    /// The client cancelled the submission; its slot closes.
    Cancel,
}

/// What [`Telemetry::ops_poll`] lends the live ops aggregator for one
/// tick, in place under the hub lock.
pub struct OpsView<'a> {
    /// Ring events at sequence ≥ the poll cursor, oldest first.
    pub events: vec_deque::Iter<'a, TraceEvent>,
    /// Events that left the ring before this poll could see them.
    pub missed: u64,
    /// The cursor for the next poll: every event recorded so far.
    pub cursor: u64,
    /// Lifetime `wal.appends`.
    pub wal_appends: u64,
    /// Latest `monitor.queue_depth` per site.
    pub queue_depth: Option<&'a BTreeMap<u32, f64>>,
    /// Latest `monitor.staleness` (ms) per site.
    pub staleness: Option<&'a BTreeMap<u32, f64>>,
}

/// One structured trace record, stamped with simulation time only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub sim_time: SimTime,
    /// Event kind.
    pub kind: TraceKind,
    /// Dense job key ([`sphinx_dag::JobId::as_key`]-style) if the event
    /// concerns one job.
    pub job: Option<u64>,
    /// Site involved, if any.
    pub site: Option<u32>,
    /// Free-form detail (state names, counts); empty for hot-path events.
    pub detail: String,
}

impl TraceEvent {
    /// Canonical single-line JSON encoding (what [`JsonlSink`] writes).
    /// Canonical-JSON stability is what makes same-seed traces
    /// byte-comparable. Hand-rendered — byte-identical to the serde
    /// encoding (key-sorted object) but infallible.
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        out.push_str("{\"detail\":");
        let _ = serde::value::write_escaped(&mut out, &self.detail);
        match self.job {
            Some(job) => {
                let _ = write!(out, ",\"job\":{job}");
            }
            None => out.push_str(",\"job\":null"),
        }
        let _ = write!(out, ",\"kind\":\"{:?}\"", self.kind);
        let _ = write!(out, ",\"sim_time\":{}", self.sim_time.as_millis());
        match self.site {
            Some(site) => {
                let _ = write!(out, ",\"site\":{site}}}");
            }
            None => out.push_str(",\"site\":null}"),
        }
        out
    }
}

/// Receives every trace event as it is recorded.
pub trait TraceSink: Send {
    /// Observe one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flush any buffered output (end of run).
    fn flush(&mut self) {}
}

/// Sink that collects events into a shared vector (tests).
pub struct InMemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl InMemorySink {
    /// A fresh sink plus the handle its events can be read through.
    pub fn new() -> (Self, Arc<Mutex<Vec<TraceEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            InMemorySink {
                events: Arc::clone(&events),
            },
            events,
        )
    }
}

impl TraceSink for InMemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.lock().push(event.clone());
    }
}

/// Sink that writes one JSON object per line to any writer (the figure
/// harness points it at `results/telemetry_trace.jsonl`).
pub struct JsonlSink<W: Write + Send> {
    writer: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        let _ = writeln!(self.writer, "{}", event.to_json_line());
    }

    /// Flushes the *underlying writer*, so `Telemetry::flush_sinks`
    /// pushes buffered lines all the way to their destination.
    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A run that ends without an explicit `flush_sinks` call must not
/// truncate the trace file: flush when the sink is dropped (the hub
/// drops its sinks when it is itself dropped).
impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Millisecond-scale latency buckets: 10 ms … 12 h, then overflow. One
/// fixed layout for every histogram keeps snapshots comparable across
/// metrics and runs.
const BUCKET_BOUNDS_MS: [f64; 10] = [
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    60_000.0,
    300_000.0,
    900_000.0,
    3_600_000.0,
    14_400_000.0,
    43_200_000.0,
];

/// A fixed-bucket histogram (allocation only at construction).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            // One overflow bucket past the last bound.
            counts: vec![0; BUCKET_BOUNDS_MS.len() + 1],
            sum: 0.0,
            count: 0,
            max: 0.0,
        }
    }
}

impl Histogram {
    fn record(&mut self, value: f64) {
        let idx = BUCKET_BOUNDS_MS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
        if value > self.max {
            self.max = value;
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: BUCKET_BOUNDS_MS.to_vec(),
            counts: self.counts.clone(),
            sum: self.sum,
            count: self.count,
            max: self.max,
        }
    }
}

/// Serializable view of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (the final count is the overflow bucket).
    pub bounds: Vec<f64>,
    /// Observation count per bucket (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
    /// Largest observed value.
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Per-site grid activity tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SiteTally {
    /// Execution plans submitted to the site.
    pub submits: u64,
    /// SPHINX jobs dispatched onto a CPU there.
    pub starts: u64,
    /// SPHINX jobs completed there.
    pub completions: u64,
    /// SPHINX jobs held/killed there.
    pub holds: u64,
    /// Client-side cancellations (timeouts) there.
    pub cancels: u64,
}

/// Tuning for one [`Telemetry`] instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity; older events are dropped (and counted) past
    /// it. Sinks still see every event.
    pub trace_capacity: usize,
    /// Finished-span store capacity; older finished spans are dropped
    /// (and counted) past it. Live spans are never evicted.
    pub span_capacity: usize,
    /// Allow wall-clock (`wall.*`) metrics. **Off by default** so that
    /// same-seed runs produce identical snapshots.
    pub wall_clock: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 65_536,
            span_capacity: 65_536,
            wall_clock: false,
        }
    }
}

/// A job's live automaton state, with what entering it knows: the site
/// of a placed job, the upstream job whose completion made it ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Unready,
    Ready(Option<u64>),
    Submitted(SiteId),
    Queued(SiteId),
    Running(SiteId),
}

impl Stage {
    /// The `state:*` span a job holds open in this stage, and the
    /// histogram that span's length feeds when it closes.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Stage::Unready => ("state:unready", "fsa.dwell_ms.unready"),
            Stage::Ready(_) => ("state:ready", "fsa.dwell_ms.ready"),
            Stage::Submitted(_) => ("state:submitted", "fsa.dwell_ms.submitted"),
            Stage::Queued(_) => ("state:queued", "fsa.dwell_ms.queued"),
            Stage::Running(_) => ("state:running", "fsa.dwell_ms.running"),
        }
    }
}

/// The free-text detail of a ring line or span: per DAG, plan cycle or WAL
/// event, never per job transition, so it stays off the per-job path.
fn detail(args: std::fmt::Arguments<'_>) -> String {
    // sphinx-lint: allow(hot-alloc)
    format!("{args}")
}

/// Live span bookkeeping for one in-flight job.
#[derive(Default)]
struct JobTrack {
    /// The job's whole-lifetime span.
    job_span: SpanId,
    /// Its stage and open `state:*` span, whose start is the dwell clock.
    state: Option<(Stage, SpanId)>,
    /// The currently open `attempt` span (submit → finish/replanned).
    attempt_span: Option<SpanId>,
    /// The most recent closed attempt (linked from the next one).
    last_attempt: Option<SpanId>,
    /// Planning attempts so far (1-based after the first submit).
    attempts: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Per-site labelled gauge families (`monitor.staleness{site="3"}`),
    /// keyed family → site → value.
    site_gauges: BTreeMap<&'static str, BTreeMap<u32, f64>>,
    histograms: BTreeMap<&'static str, Histogram>,
    sites: BTreeMap<u32, SiteTally>,
    ring: VecDeque<TraceEvent>,
    ring_capacity: usize,
    recorded: u64,
    dropped: u64,
    sinks: Vec<Box<dyn TraceSink>>,
    /// Causal span store (live + bounded finished).
    spans: SpanStore,
    /// Open root span per DAG id.
    dag_spans: BTreeMap<u64, SpanId>,
    /// Span bookkeeping per in-flight job key.
    job_tracks: BTreeMap<u64, JobTrack>,
    /// Job-span id per job key, kept after the job finishes so later
    /// ready-cause links can resolve (one small entry per job).
    job_span_ids: BTreeMap<u64, SpanId>,
    /// Open `slot:queued`/`slot:run` span per job key (grid substrate).
    slot_spans: BTreeMap<u64, SpanId>,
    /// Latest sim time of any event: what the clockless WAL is stamped with.
    last_sim: SimTime,
}

impl Inner {
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Append one line to the ring (every sink sees it first), evicting
    /// the oldest past capacity.
    fn line(
        &mut self,
        kind: TraceKind,
        at: SimTime,
        job: Option<u64>,
        site: Option<SiteId>,
        detail: String,
    ) {
        let site = site.map(|s| s.0);
        let event = TraceEvent {
            sim_time: at,
            kind,
            job,
            site,
            detail,
        };
        self.recorded += 1;
        for sink in self.sinks.iter_mut() {
            sink.record(&event);
        }
        self.ring.push_back(event);
        if self.ring.len() > self.ring_capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
    }

    /// Everything one fact implies.
    fn record(&mut self, at: SimTime, event: Event) {
        match event {
            Event::DagSubmitted { dag, jobs } => {
                let text = detail(format_args!("dag={dag} jobs={jobs}"));
                self.count("dag.submitted", 1);
                self.line(TraceKind::DagSubmitted, at, None, None, text);
                self.open_dag(dag, jobs, at);
                for index in 0..jobs as u64 {
                    self.enter(analysis::job_key(dag, index), Stage::Unready, at);
                }
            }
            Event::DagRestored { dag, jobs } => self.open_dag(dag, jobs, at),
            Event::DagFinished { dag } => {
                let text = detail(format_args!("dag={dag}"));
                self.count("dag.finished", 1);
                self.line(TraceKind::DagFinished, at, None, None, text);
                if let Some(id) = self.dag_spans.remove(&dag) {
                    self.spans.end(id, at);
                }
            }
            Event::Job { job, step } => self.job(at, job, step),
            Event::Grid { site, job, step } => self.grid(at, site, job, step),
            Event::SiteFlag { site, flagged } => {
                let (counter, kind) = if flagged {
                    ("reliability.flagged", TraceKind::SiteFlagged)
                } else {
                    ("reliability.unflagged", TraceKind::SiteUnflagged)
                };
                self.count(counter, 1);
                self.line(kind, at, None, Some(site), String::new());
            }
            Event::SiteReport { site, age, queued } => {
                let (age, gauges) = (age.as_millis() as f64, &mut self.site_gauges);
                gauges
                    .entry("monitor.staleness")
                    .or_default()
                    .insert(site.0, age);
                let depth = gauges.entry("monitor.queue_depth").or_default();
                depth.insert(site.0, queued as f64);
                self.observe("monitor.sample_age_ms", age);
            }
            Event::PlanCycle { reports, gap } => {
                if let Some(gap) = gap {
                    self.observe("plan.cycle_gap_ms", gap.as_millis() as f64);
                }
                let text = detail(format_args!("reports={reports}"));
                self.count("plan.cycles", 1);
                self.line(TraceKind::PlanCycle, at, None, None, text);
            }
            Event::PlanCycleDone {
                hits,
                misses,
                reused,
                wall_us,
            } => {
                let tallies = [
                    ("plan.score_cache.hits", hits),
                    ("plan.score_cache.misses", misses),
                    ("plan.scratch.reused", reused),
                ];
                for (counter, n) in tallies {
                    if n > 0 {
                        self.count(counter, n);
                    }
                }
                if let Some(us) = wall_us {
                    self.observe("wall.plan_cycle_us", us as f64);
                }
            }
            Event::WalReplay { lines } => {
                self.count("wal.replays", lines);
                self.instant("wal:replay", detail(format_args!("{lines} lines replayed")));
            }
            Event::WalCheckpoint => {
                self.count("wal.rewrites", 1);
                let text = detail(format_args!("log compacted to snapshot"));
                self.instant("wal:checkpoint", text);
            }
        }
    }

    fn job(&mut self, at: SimTime, job: u64, step: JobStep) {
        let (kind, site, cause) = match step {
            JobStep::Ready { cause } => {
                self.enter(job, Stage::Ready(cause), at);
                (TraceKind::JobReady, None, "")
            }
            JobStep::Eliminated => {
                self.count("job.eliminated", 1);
                self.finish(job, at);
                (TraceKind::JobEliminated, None, "")
            }
            JobStep::Submitted { site } => {
                self.count("plan.jobs_submitted", 1);
                self.enter(job, Stage::Submitted(site), at);
                (TraceKind::JobSubmitted, Some(site), "")
            }
            JobStep::Queued { site } => {
                self.enter(job, Stage::Queued(site), at);
                (TraceKind::JobQueued, Some(site), "")
            }
            JobStep::Running { site } => {
                self.enter(job, Stage::Running(site), at);
                (TraceKind::JobRunning, Some(site), "")
            }
            JobStep::Completed { site, total } => {
                self.finish(job, at);
                self.observe("job.completion_ms", total.as_millis() as f64);
                (TraceKind::JobCompleted, Some(site), "")
            }
            JobStep::Held { site } => {
                self.enter(job, Stage::Ready(None), at);
                self.count("plan.reschedules_held", 1);
                (TraceKind::JobCancelled, Some(site), "held")
            }
            JobStep::TimedOut { site } => {
                self.enter(job, Stage::Ready(None), at);
                self.count("plan.reschedules_timeout", 1);
                (TraceKind::JobCancelled, Some(site), "timeout")
            }
            JobStep::Reset => return self.enter(job, Stage::Ready(None), at),
            JobStep::Resumed { site } => return self.enter(job, Stage::Submitted(site), at),
        };
        // Allocates only for a cancellation's cause; every other step's
        // line has an empty detail.
        // sphinx-lint: allow(hot-alloc)
        self.line(kind, at, Some(job), site, cause.to_owned());
    }

    /// The span machine of the job lifecycle. The first stage opens the
    /// job span (under its DAG root); every stage closes the previous
    /// `state:*` span (its length is that stage's dwell) and opens its
    /// own; `Submitted` opens an `attempt` span linked to the previous
    /// failed attempt; a `Ready` caused by an upstream completion links to
    /// the cause's job span (the edge critical-path extraction walks).
    fn enter(&mut self, job: u64, stage: Stage, now: SimTime) {
        let dag = analysis::job_key_dag(job);
        let track = self.job_tracks.entry(job).or_insert_with(|| {
            let parent = self.dag_spans.get(&dag).copied();
            let attrs = SpanAttrs {
                parent,
                job: Some(job),
                dag: Some(dag),
                ..SpanAttrs::default()
            };
            let job_span = self.spans.start("job", now, attrs);
            self.job_span_ids.insert(job, job_span);
            JobTrack {
                job_span,
                ..JobTrack::default()
            }
        });
        let closed = close_state(&mut self.spans, track, now);
        // The job's other spans also carry its site; they differ in
        // parent, attempt number and causal link.
        let site = match stage {
            Stage::Submitted(site) | Stage::Queued(site) | Stage::Running(site) => Some(site.0),
            Stage::Unready | Stage::Ready(_) => None,
        };
        let attrs = |parent, attempt, link| SpanAttrs {
            parent: Some(parent),
            job: Some(job),
            dag: Some(dag),
            site,
            attempt,
            link,
            detail: String::new(),
        };
        let attrs = match stage {
            Stage::Unready => attrs(track.job_span, None, None),
            Stage::Ready(cause) => {
                // A live attempt span here means the attempt failed and
                // the job came back for replanning.
                if let Some(a) = track.attempt_span.take() {
                    self.spans.end(a, now);
                    track.last_attempt = Some(a);
                }
                let link = cause.and_then(|c| self.job_span_ids.get(&c).copied());
                attrs(track.job_span, Some(track.attempts), link)
            }
            Stage::Submitted(_) => {
                track.attempts += 1;
                let attempt = Some(track.attempts);
                let opened = attrs(track.job_span, attempt, track.last_attempt);
                let id = self.spans.start("attempt", now, opened);
                track.attempt_span = Some(id);
                attrs(id, attempt, None)
            }
            Stage::Queued(_) | Stage::Running(_) => {
                let parent = track.attempt_span.unwrap_or(track.job_span);
                attrs(parent, Some(track.attempts), None)
            }
        };
        track.state = Some((stage, self.spans.start(stage.names().0, now, attrs)));
        if let Some((was, ms)) = closed {
            self.observe(was.names().1, ms as f64);
        }
    }

    /// The job finished or was eliminated: close every span it holds and
    /// drop its bookkeeping.
    fn finish(&mut self, job: u64, now: SimTime) {
        if let Some(mut track) = self.job_tracks.remove(&job) {
            if let Some((stage, ms)) = close_state(&mut self.spans, &mut track, now) {
                self.observe(stage.names().1, ms as f64);
            }
            for id in track.attempt_span.into_iter().chain([track.job_span]) {
                self.spans.end(id, now);
            }
        }
        self.move_slot(job, None, now);
    }

    fn grid(&mut self, at: SimTime, site: SiteId, job: u64, step: GridStep) {
        type Column = fn(&mut SiteTally) -> &mut u64;
        let (counter, kind, column): (&'static str, TraceKind, Column) = match step {
            GridStep::Queued => {
                self.count("grid.queues", 1);
                return self.move_slot(job, Some(("slot:queued", site)), at);
            }
            GridStep::Submit => ("grid.submits", TraceKind::GridSubmit, |t| &mut t.submits),
            GridStep::Start => {
                self.move_slot(job, Some(("slot:run", site)), at);
                ("grid.starts", TraceKind::GridStart, |t| &mut t.starts)
            }
            GridStep::Complete => ("grid.completions", TraceKind::GridComplete, |t| {
                &mut t.completions
            }),
            GridStep::Hold => ("grid.holds", TraceKind::GridHold, |t| &mut t.holds),
            GridStep::Cancel => ("grid.cancels", TraceKind::GridCancel, |t| &mut t.cancels),
        };
        // Leaving the batch system closes the slot.
        if matches!(step, GridStep::Complete | GridStep::Hold | GridStep::Cancel) {
            self.move_slot(job, None, at);
        }
        self.count(counter, 1);
        *column(self.sites.entry(site.0).or_default()) += 1;
        self.line(kind, at, Some(job), Some(site), String::new());
    }

    /// Close `job`'s open batch-slot span, if any, and open `next` (a slot
    /// name and its site) in its place, under the job's live attempt span
    /// when it has one (a tag the server never planned — grid unit tests
    /// feed those — gets a root slot span).
    fn move_slot(&mut self, job: u64, next: Option<(&'static str, SiteId)>, now: SimTime) {
        if let Some(id) = self.slot_spans.remove(&job) {
            self.spans.end(id, now);
        }
        let Some((name, site)) = next else { return };
        let track = self.job_tracks.get(&job);
        let attrs = SpanAttrs {
            parent: track.map(|t| t.attempt_span.unwrap_or(t.job_span)),
            job: Some(job),
            dag: track.map(|_| analysis::job_key_dag(job)),
            site: Some(site.0),
            attempt: track.map(|t| t.attempts),
            ..SpanAttrs::default()
        };
        let id = self.spans.start(name, now, attrs);
        self.slot_spans.insert(job, id);
    }

    /// Open DAG `dag`'s root span, unless one is live already: a hub that
    /// survived a crash (the sharded adopter's) keeps its original.
    fn open_dag(&mut self, dag: u64, jobs: usize, now: SimTime) {
        if !self.dag_spans.contains_key(&dag) {
            let text = detail(format_args!("jobs={jobs}"));
            let id = self.spans.start(
                "dag",
                now,
                SpanAttrs {
                    dag: Some(dag),
                    detail: text,
                    ..SpanAttrs::default()
                },
            );
            self.dag_spans.insert(dag, id);
        }
    }

    /// A zero-duration root span at the latest sim time the hub has seen,
    /// for the WAL, which keeps no sim clock.
    fn instant(&mut self, name: &'static str, detail: String) {
        let now = self.last_sim;
        let id = self.spans.start(
            name,
            now,
            SpanAttrs {
                detail,
                ..SpanAttrs::default()
            },
        );
        self.spans.end(id, now);
    }
}

/// Close `track`'s open `state:*` span: the stage it timed and its length
/// in ms, the stage's dwell.
fn close_state(spans: &mut SpanStore, track: &mut JobTrack, now: SimTime) -> Option<(Stage, u64)> {
    let (stage, id) = track.state.take()?;
    Some((stage, spans.end(id, now)?))
}

/// The shared telemetry hub. Cheap to clone behind an [`Arc`]; every
/// method takes `&self` (interior mutex).
pub struct Telemetry {
    config: TelemetryConfig,
    inner: Mutex<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Telemetry")
            .field("counters", &inner.counters.len())
            .field("trace_events", &inner.recorded)
            .finish()
    }
}

impl Telemetry {
    /// Default-configured hub.
    pub fn new() -> Self {
        Telemetry::with_config(TelemetryConfig::default())
    }

    /// Hub with explicit tuning.
    pub fn with_config(config: TelemetryConfig) -> Self {
        let inner = Inner {
            ring_capacity: config.trace_capacity,
            spans: SpanStore::new(config.span_capacity),
            ..Inner::default()
        };
        Telemetry {
            config,
            inner: Mutex::new(inner),
        }
    }

    /// Default hub behind an [`Arc`], ready to share across layers.
    pub fn shared() -> Arc<Telemetry> {
        Arc::new(Telemetry::new())
    }

    /// Whether `wall.*` metrics may be recorded.
    pub fn wall_clock_enabled(&self) -> bool {
        self.config.wall_clock
    }

    /// Attach a sink; it receives every event recorded from now on.
    pub fn add_sink(&self, sink: Box<dyn TraceSink>) {
        self.inner.lock().sinks.push(sink);
    }

    /// Flush all attached sinks.
    pub fn flush_sinks(&self) {
        for sink in self.inner.lock().sinks.iter_mut() {
            sink.flush();
        }
    }

    // ---- facts ----

    /// Record one fact at sim time `at`, and everything it implies, under
    /// one lock acquisition. The WAL keeps no sim clock: it passes
    /// `SimTime::default()` and is stamped with the latest time seen.
    pub fn record(&self, at: SimTime, event: Event) {
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(at);
        inner.record(at, event);
    }

    // ---- metrics ----

    /// Add to a monotonic counter.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        self.inner.lock().count(name, n);
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        self.inner.lock().gauges.insert(name, value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    // ---- tracing ----

    /// Record one free-text trace line: the infrastructure events that are
    /// no [`Event`] (monitor rounds, leases, adoption, ops alerts, recovery).
    pub fn trace(
        &self,
        kind: TraceKind,
        sim_time: SimTime,
        job: Option<u64>,
        site: Option<SiteId>,
        detail: String,
    ) {
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(sim_time);
        inner.line(kind, sim_time, job, site, detail);
    }

    /// Incremental poll for the live ops aggregator: under **one** lock
    /// acquisition, lend `read` the ring events from absolute sequence
    /// `cursor` on, `wal.appends` and the monitor gauges, in place (see
    /// [`OpsView`]; events already gone are counted, not skipped).
    pub fn ops_poll<R>(&self, cursor: u64, read: impl FnOnce(OpsView<'_>) -> R) -> R {
        let inner = self.inner.lock();
        // Sequence number of the oldest event still in the ring.
        let start = inner.recorded - inner.ring.len() as u64;
        let skip = (cursor.saturating_sub(start) as usize).min(inner.ring.len());
        read(OpsView {
            events: inner.ring.range(skip..),
            missed: start.saturating_sub(cursor),
            cursor: inner.recorded,
            wal_appends: inner.counters.get("wal.appends").copied().unwrap_or(0),
            queue_depth: inner.site_gauges.get("monitor.queue_depth"),
            staleness: inner.site_gauges.get("monitor.staleness"),
        })
    }

    /// Number of events currently buffered.
    pub fn trace_len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Take every buffered event, oldest first (the buffer empties).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.inner.lock().ring.drain(..).collect()
    }

    /// Render the buffered trace as JSONL without draining it.
    pub fn trace_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for event in &inner.ring {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }

    // ---- phase spans ----

    /// Open a root span (planner phases: `phase:reduce`, `phase:plan`,
    /// …) at `now`.
    pub fn span_start(&self, name: &'static str, now: SimTime) -> SpanId {
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(now);
        inner.spans.start(name, now, SpanAttrs::default())
    }

    /// Close a span opened with [`Telemetry::span_start`].
    pub fn span_end(&self, id: SpanId, now: SimTime) {
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(now);
        inner.spans.end(id, now);
    }

    /// Every span recorded so far: finished spans in end order, then
    /// live spans by id (deterministic for a deterministic run).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().spans.iter().cloned().collect()
    }

    /// Analyze the span graph where the store holds it (nothing copied):
    /// a critical path per DAG, the `top_n` slowest jobs, and the store's
    /// self-accounting counters.
    pub fn analyze(&self, top_n: usize) -> TraceAnalysis {
        let inner = self.inner.lock();
        let store = &inner.spans;
        let graph = SpanGraph::new(store.iter());
        // Qualified, so the lock lint's name-based call graph does not
        // also wire this call to `Telemetry::analyze`.
        let mut out = SpanGraph::analyze(&graph, top_n);
        out.spans_total = store.total();
        out.spans_live = store.live();
        out.spans_dropped = store.dropped();
        out
    }

    // ---- snapshot ----

    /// Copy out every metric. Two same-seed runs produce equal snapshots
    /// (wall-clock metrics are opt-in and default off).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock();
        let mut counters: BTreeMap<String, u64> = inner
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect();
        // Self-accounting: surface ring and span-store health as
        // ordinary counters so every exporter carries them.
        counters.insert("telemetry.trace.recorded".to_owned(), inner.recorded);
        counters.insert("telemetry.trace.dropped".to_owned(), inner.dropped);
        counters.insert("telemetry.spans.total".to_owned(), inner.spans.total());
        counters.insert("telemetry.spans.live".to_owned(), inner.spans.live());
        counters.insert("telemetry.spans.dropped".to_owned(), inner.spans.dropped());
        TelemetrySnapshot {
            counters,
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            site_gauges: inner
                .site_gauges
                .iter()
                .map(|(k, per_site)| ((*k).to_owned(), per_site.clone()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| ((*k).to_owned(), h.snapshot()))
                .collect(),
            sites: inner.sites.clone(),
            trace_recorded: inner.recorded,
            trace_dropped: inner.dropped,
            spans_total: inner.spans.total(),
            spans_live: inner.spans.live(),
            spans_dropped: inner.spans.dropped(),
        }
    }
}

/// Point-in-time copy of every metric in a [`Telemetry`] hub. Attached to
/// the run report; byte-identical across same-seed runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Per-site labelled gauge families, family → site → value
    /// (`monitor.staleness`, `monitor.queue_depth`, …).
    #[serde(default)]
    pub site_gauges: BTreeMap<String, BTreeMap<u32, f64>>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-site grid tallies, keyed by site id.
    pub sites: BTreeMap<u32, SiteTally>,
    /// Trace events recorded over the run (including any dropped from the
    /// ring).
    pub trace_recorded: u64,
    /// Trace events dropped from the ring buffer (capacity overflow).
    pub trace_dropped: u64,
    /// Spans ever started.
    #[serde(default)]
    pub spans_total: u64,
    /// Spans still live at snapshot time.
    #[serde(default)]
    pub spans_live: u64,
    /// Finished spans evicted from the bounded span store.
    #[serde(default)]
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// Number of distinct named metric series: counters + gauges +
    /// histograms. Per-site gauge families and site tallies are not
    /// counted.
    pub fn distinct_metrics(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Convenience counter lookup (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn job(tel: &Telemetry, at: SimTime, job: u64, step: JobStep) {
        tel.record(at, Event::Job { job, step });
    }

    fn grid(tel: &Telemetry, at: SimTime, site: u32, job: u64, step: GridStep) {
        let site = SiteId(site);
        tel.record(at, Event::Grid { site, job, step });
    }

    #[test]
    fn counters_gauges_histograms_round_trip_snapshot() {
        let tel = Telemetry::new();
        tel.counter_add("wal.appends", 2);
        tel.counter_add("wal.appends", 1);
        tel.gauge_set("monitor.visible_sites", 4.0);
        let (reports, gap) = (0, Some(Duration::from_secs(15)));
        tel.record(t(15), Event::PlanCycle { reports, gap });
        let snap = tel.snapshot();
        assert_eq!(snap.counter("wal.appends"), 3);
        assert_eq!(snap.counter("plan.cycles"), 1);
        assert_eq!(snap.gauges["monitor.visible_sites"], 4.0);
        let h = &snap.histograms["plan.cycle_gap_ms"];
        assert_eq!(h.count, 1);
        assert_eq!(h.mean(), 15_000.0);
        // Snapshot itself serializes and round-trips.
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::default();
        h.record(5.0); // bucket 0 (<=10ms)
        h.record(50_000.0); // <=60s
        h.record(1e9); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[4], 1);
        assert_eq!(*s.counts.last().unwrap(), 1);
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 1e9);
    }

    #[test]
    fn dwell_tracking_measures_previous_state() {
        let tel = Telemetry::new();
        let site = SiteId(2);
        job(&tel, t(0), 7, JobStep::Ready { cause: None });
        job(&tel, t(10), 7, JobStep::Submitted { site });
        job(&tel, t(12), 7, JobStep::Queued { site });
        job(&tel, t(40), 7, JobStep::Running { site });
        let total = Duration::from_secs(90);
        job(&tel, t(100), 7, JobStep::Completed { site, total });
        let snap = tel.snapshot();
        assert_eq!(snap.histograms["fsa.dwell_ms.ready"].sum, 10_000.0);
        assert_eq!(snap.histograms["fsa.dwell_ms.submitted"].sum, 2_000.0);
        assert_eq!(snap.histograms["fsa.dwell_ms.queued"].sum, 28_000.0);
        assert_eq!(snap.histograms["fsa.dwell_ms.running"].sum, 60_000.0);
        assert_eq!(snap.histograms["job.completion_ms"].sum, 90_000.0);
        // The terminal state dropped the job's bookkeeping.
        assert_eq!(tel.inner.lock().job_tracks.len(), 0);
    }

    #[test]
    fn dag_submission_opens_every_job_unready_in_one_record() {
        let tel = Telemetry::new();
        tel.record(t(1), Event::DagSubmitted { dag: 4, jobs: 3 });
        let spans = tel.spans();
        let unready = spans.iter().filter(|s| s.name == "state:unready");
        let keys: Vec<u64> = unready.filter_map(|s| s.job).collect();
        let expected: Vec<u64> = (0..3).map(|i| analysis::job_key(4, i)).collect();
        assert_eq!(keys, expected);
        let dag = spans.iter().find(|s| s.name == "dag").unwrap();
        assert_eq!((dag.dag, dag.detail.as_str()), (Some(4), "jobs=3"));
        assert_eq!(tel.counter("dag.submitted"), 1);
        assert!(tel.trace_jsonl().contains("\"detail\":\"dag=4 jobs=3\""));
        // Restoring a DAG whose root is live is a no-op.
        tel.record(t(0), Event::DagRestored { dag: 4, jobs: 3 });
        assert_eq!(tel.spans().len(), spans.len());
    }

    #[test]
    fn restore_steps_move_spans_but_leave_no_line() {
        let tel = Telemetry::new();
        let site = SiteId(1);
        job(&tel, t(0), 9, JobStep::Ready { cause: None });
        job(&tel, t(1), 9, JobStep::Submitted { site });
        let lines = tel.trace_len();
        job(&tel, t(2), 9, JobStep::Reset);
        job(&tel, t(3), 9, JobStep::Resumed { site });
        assert_eq!(tel.trace_len(), lines);
        let spans = tel.spans();
        let attempts = spans.iter().filter(|s| s.name == "attempt").count();
        assert_eq!(attempts, 2, "a resumed job gets a new attempt");
        assert_eq!(tel.counter("plan.jobs_submitted"), 1);
    }

    #[test]
    fn job_lifecycle_builds_a_connected_span_tree() {
        let tel = Telemetry::new();
        tel.record(t(0), Event::DagSubmitted { dag: 3, jobs: 1 });
        let key = analysis::job_key(3, 0);
        let site = SiteId(1);
        job(&tel, t(5), key, JobStep::Ready { cause: Some(999) });
        job(&tel, t(6), key, JobStep::Submitted { site });
        grid(&tel, t(7), 1, key, GridStep::Queued);
        grid(&tel, t(8), 1, key, GridStep::Start);
        job(&tel, t(7), key, JobStep::Queued { site });
        job(&tel, t(8), key, JobStep::Running { site });
        grid(&tel, t(20), 1, key, GridStep::Complete);
        let total = Duration::from_secs(15);
        job(&tel, t(21), key, JobStep::Completed { site, total });
        tel.record(t(21), Event::DagFinished { dag: 3 });
        let spans = tel.spans();
        let graph = SpanGraph::new(spans.clone());
        assert!(graph.validate().is_empty(), "{:?}", graph.validate());
        // dag + job + attempt + 5 states + 2 slots.
        assert_eq!(spans.len(), 10);
        assert!(spans.iter().all(|s| s.end.is_some()));
        let slot_run = spans.iter().find(|s| s.name == "slot:run").unwrap();
        let attempt = spans.iter().find(|s| s.name == "attempt").unwrap();
        assert_eq!(slot_run.parent, Some(attempt.id));
        assert_eq!(slot_run.site, Some(1));
        assert_eq!(slot_run.duration_ms(), 12_000);
        // Cause key 999 was never seen → no dangling link.
        let ready = spans.iter().find(|s| s.name == "state:ready").unwrap();
        assert_eq!(ready.link, None);
    }

    #[test]
    fn replanned_job_gets_new_attempt_linked_to_old() {
        let tel = Telemetry::new();
        tel.record(t(0), Event::DagRestored { dag: 0, jobs: 1 });
        let (first, second) = (SiteId(4), SiteId(5));
        job(&tel, t(0), 8, JobStep::Ready { cause: None });
        job(&tel, t(1), 8, JobStep::Submitted { site: first });
        job(&tel, t(2), 8, JobStep::Queued { site: first });
        // The site holds the job: back to ready, replanned elsewhere.
        job(&tel, t(10), 8, JobStep::Held { site: first });
        job(&tel, t(11), 8, JobStep::Submitted { site: second });
        job(&tel, t(12), 8, JobStep::Running { site: second });
        let total = Duration::from_secs(19);
        job(
            &tel,
            t(30),
            8,
            JobStep::Completed {
                site: second,
                total,
            },
        );
        let spans = tel.spans();
        let attempts: Vec<&Span> = spans.iter().filter(|s| s.name == "attempt").collect();
        assert_eq!(attempts.len(), 2);
        let first = attempts.iter().find(|s| s.attempt == Some(1)).unwrap();
        let second = attempts.iter().find(|s| s.attempt == Some(2)).unwrap();
        assert_eq!(first.site, Some(4));
        assert_eq!(first.end, Some(t(10)), "old attempt closed at re-ready");
        assert_eq!(second.link, Some(first.id), "new attempt links old");
        // The re-ready span is tagged with attempt 1 (fault recovery).
        let re_ready = spans
            .iter()
            .find(|s| s.name == "state:ready" && s.attempt == Some(1))
            .unwrap();
        assert_eq!(re_ready.duration_ms(), 1_000);
        assert_eq!(tel.counter("plan.reschedules_held"), 1);
        assert!(tel.trace_jsonl().contains("{\"detail\":\"held\""));
    }

    #[test]
    fn snapshot_carries_span_accounting_counters() {
        let tel = Telemetry::with_config(TelemetryConfig {
            trace_capacity: 8,
            span_capacity: 2,
            wall_clock: false,
        });
        for i in 0..4 {
            let id = tel.span_start("phase:plan", t(i));
            tel.span_end(id, t(i));
        }
        let open = tel.span_start("phase:track", t(9));
        let snap = tel.snapshot();
        assert_eq!(snap.spans_total, 5);
        assert_eq!(snap.spans_live, 1);
        assert_eq!(snap.spans_dropped, 2);
        assert_eq!(snap.counter("telemetry.spans.total"), 5);
        assert_eq!(snap.counter("telemetry.spans.live"), 1);
        assert_eq!(snap.counter("telemetry.spans.dropped"), 2);
        assert_eq!(snap.counter("telemetry.trace.dropped"), 0);
        tel.span_end(open, t(10));
    }

    #[test]
    fn wal_events_are_stamped_with_the_latest_sim_time() {
        let tel = Telemetry::new();
        tel.trace(TraceKind::PlanCycle, t(33), None, None, String::new());
        tel.record(SimTime::default(), Event::WalCheckpoint);
        tel.record(SimTime::default(), Event::WalReplay { lines: 12 });
        let spans = tel.spans();
        let wal = spans.iter().find(|s| s.name == "wal:checkpoint").unwrap();
        assert_eq!(wal.start, t(33));
        assert_eq!(wal.end, Some(t(33)));
        assert_eq!(wal.detail, "log compacted to snapshot");
        let replay = spans.iter().find(|s| s.name == "wal:replay").unwrap();
        assert_eq!(
            (replay.start, replay.detail.as_str()),
            (t(33), "12 lines replayed")
        );
        assert_eq!(tel.counter("wal.rewrites"), 1);
        assert_eq!(tel.counter("wal.replays"), 12);
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let tel = Telemetry::with_config(TelemetryConfig {
            trace_capacity: 2,
            ..TelemetryConfig::default()
        });
        for i in 0..5u64 {
            tel.trace(TraceKind::PlanCycle, t(i), None, None, String::new());
        }
        assert_eq!(tel.trace_len(), 2);
        let snap = tel.snapshot();
        assert_eq!(snap.trace_recorded, 5);
        assert_eq!(snap.trace_dropped, 3);
        let events = tel.drain_trace();
        assert_eq!(events[0].sim_time, t(3));
        assert_eq!(events[1].sim_time, t(4));
        assert_eq!(tel.trace_len(), 0);
    }

    #[test]
    fn ring_capacity_zero_retains_nothing_and_counts_every_drop() {
        let tel = Telemetry::with_config(TelemetryConfig {
            trace_capacity: 0,
            ..TelemetryConfig::default()
        });
        let (sink, handle) = InMemorySink::new();
        tel.add_sink(Box::new(sink));
        for i in 0..3u64 {
            tel.trace(TraceKind::PlanCycle, t(i), None, None, String::new());
        }
        let snap = tel.snapshot();
        assert_eq!(tel.trace_len(), 0);
        assert_eq!(snap.trace_dropped, 3);
        // Recorded = retained + dropped.
        assert_eq!(
            snap.trace_recorded,
            tel.trace_len() as u64 + snap.trace_dropped
        );
        assert_eq!(handle.lock().len(), 3, "sinks still see every event");
    }

    #[test]
    fn sinks_see_every_event_even_past_capacity() {
        let tel = Telemetry::with_config(TelemetryConfig {
            trace_capacity: 1,
            ..TelemetryConfig::default()
        });
        let (sink, handle) = InMemorySink::new();
        tel.add_sink(Box::new(sink));
        for i in 0..4u64 {
            tel.trace(
                TraceKind::GridSubmit,
                t(i),
                Some(i),
                Some(SiteId(0)),
                String::new(),
            );
        }
        assert_eq!(handle.lock().len(), 4);
        assert_eq!(handle.lock()[0].job, Some(0));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let tel = Telemetry::new();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        tel.add_sink(Box::new(JsonlSink::new(SharedBuf(Arc::clone(&buf)))));
        tel.trace(
            TraceKind::JobQueued,
            t(1),
            Some(9),
            Some(SiteId(3)),
            String::new(),
        );
        tel.trace(
            TraceKind::JobRunning,
            t(2),
            Some(9),
            Some(SiteId(3)),
            String::new(),
        );
        tel.flush_sinks();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"JobQueued\""));
        assert!(lines[1].contains("\"site\":3"));
    }

    #[test]
    fn site_tallies_accumulate_per_site() {
        let tel = Telemetry::new();
        grid(&tel, t(0), 0, 1, GridStep::Submit);
        grid(&tel, t(1), 0, 1, GridStep::Start);
        grid(&tel, t(2), 0, 1, GridStep::Complete);
        grid(&tel, t(0), 1, 2, GridStep::Submit);
        grid(&tel, t(3), 1, 2, GridStep::Hold);
        grid(&tel, t(4), 1, 2, GridStep::Cancel);
        let snap = tel.snapshot();
        assert_eq!(
            snap.sites[&0],
            SiteTally {
                submits: 1,
                starts: 1,
                completions: 1,
                holds: 0,
                cancels: 0
            }
        );
        assert_eq!(snap.sites[&1].holds, 1);
        assert_eq!(snap.sites[&1].cancels, 1);
        assert_eq!(snap.counter("grid.submits"), 2);
        assert_eq!(snap.trace_recorded, 6);
    }

    #[test]
    fn trace_events_round_trip_as_json_lines() {
        let event = TraceEvent {
            sim_time: t(42),
            kind: TraceKind::SiteFlagged,
            job: None,
            site: Some(5),
            detail: "window 3/1".to_owned(),
        };
        let line = event.to_json_line();
        let back: TraceEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn identical_operation_sequences_give_identical_jsonl() {
        let run = || {
            let tel = Telemetry::new();
            for i in 0..50u64 {
                let site = SiteId((i % 3) as u32);
                job(&tel, t(i), i % 7, JobStep::Queued { site });
                grid(&tel, t(i), site.0, i, GridStep::Submit);
            }
            (tel.trace_jsonl(), tel.snapshot())
        };
        let (ja, sa) = run();
        let (jb, sb) = run();
        assert_eq!(ja, jb, "trace bytes must match");
        assert_eq!(sa, sb, "snapshots must match");
    }

    #[test]
    fn hand_rolled_json_line_matches_serde_encoding() {
        let events = [
            TraceEvent {
                sim_time: t(0),
                kind: TraceKind::MonitorSample,
                job: None,
                site: None,
                detail: "sampled=3 lost=1".to_owned(),
            },
            TraceEvent {
                sim_time: t(77),
                kind: TraceKind::JobQueued,
                job: Some(u64::MAX),
                site: Some(14),
                detail: "quote\" slash\\ ctrl\n".to_owned(),
            },
        ];
        for event in events {
            let hand = event.to_json_line();
            let serde = serde_json::to_string(&event).unwrap();
            assert_eq!(hand, serde, "hand-rolled encoding drifted from serde");
            let back: TraceEvent = serde_json::from_str(&hand).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn site_reports_round_trip_snapshot() {
        let tel = Telemetry::new();
        let report = |site: u32, age_secs: u64, queued: usize| {
            let (site, age) = (SiteId(site), Duration::from_secs(age_secs));
            tel.record(t(300), Event::SiteReport { site, age, queued });
        };
        report(2, 120, 0);
        report(0, 0, 7);
        report(2, 240, 1);
        let snap = tel.snapshot();
        assert_eq!(snap.site_gauges["monitor.staleness"].get(&9), None);
        assert_eq!(snap.site_gauges["monitor.staleness"][&2], 240_000.0);
        assert_eq!(snap.site_gauges["monitor.queue_depth"][&0], 7.0);
        let ages = &snap.histograms["monitor.sample_age_ms"];
        assert_eq!((ages.count, ages.sum), (3, 360_000.0));
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        // Old snapshots without the field still deserialize.
        let legacy: TelemetrySnapshot = serde_json::from_str(
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"sites\":{},\
             \"trace_recorded\":0,\"trace_dropped\":0}",
        )
        .unwrap();
        assert!(legacy.site_gauges.is_empty());
    }

    /// The lent view, copied out so assertions can run after the lock.
    fn poll(tel: &Telemetry, cursor: u64) -> (Vec<TraceEvent>, u64, u64, u64, Vec<(u32, f64)>) {
        tel.ops_poll(cursor, |view| {
            let depth = view.queue_depth.into_iter().flatten();
            (
                view.events.cloned().collect(),
                view.missed,
                view.cursor,
                view.wal_appends,
                depth.map(|(s, v)| (*s, *v)).collect(),
            )
        })
    }

    #[test]
    fn ops_poll_is_cursor_incremental() {
        let tel = Telemetry::new();
        tel.counter_add("wal.appends", 4);
        let (site, age) = (SiteId(1), Duration::ZERO);
        tel.record(
            t(0),
            Event::SiteReport {
                site,
                age,
                queued: 3,
            },
        );
        for i in 0..3u64 {
            grid(&tel, t(i), 1, i, GridStep::Submit);
        }
        let (events, missed, cursor, wal, depth) = poll(&tel, 0);
        assert_eq!((cursor, missed, wal), (3, 0, 4));
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::GridSubmit);
        assert_eq!(events[2].job, Some(2));
        assert_eq!(depth, vec![(1, 3.0)]);
        // Nothing new → empty poll, same cursor.
        let (events, _, cursor2, _, _) = poll(&tel, cursor);
        assert_eq!(cursor2, 3);
        assert!(events.is_empty());
        // New events since the cursor are seen exactly once.
        grid(&tel, t(5), 1, 0, GridStep::Start);
        let (events, _, cursor3, _, _) = poll(&tel, cursor2);
        assert_eq!(cursor3, 4);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceKind::GridStart);
    }

    #[test]
    fn ops_poll_counts_events_lost_to_ring_overflow() {
        let tel = Telemetry::with_config(TelemetryConfig {
            trace_capacity: 2,
            ..TelemetryConfig::default()
        });
        for i in 0..5u64 {
            tel.trace(TraceKind::PlanCycle, t(i), None, None, String::new());
        }
        // Cursor 1, but the ring only holds sequences 3..5 → 2 missed.
        let (events, missed, cursor, _, _) = poll(&tel, 1);
        assert_eq!((cursor, missed), (5, 2));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].sim_time, t(3));
    }

    #[test]
    fn jsonl_sink_flushes_buffered_writer_on_flush_and_drop() {
        // A writer that only publishes on flush — unlike BufWriter it
        // does NOT flush itself on drop, so the sink's own Drop impl is
        // what is under test.
        struct FlushGated {
            pending: Vec<u8>,
            out: Arc<Mutex<Vec<u8>>>,
        }
        impl Write for FlushGated {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.pending.extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.out.lock().extend_from_slice(&self.pending);
                self.pending.clear();
                Ok(())
            }
        }

        // flush_sinks must reach the underlying writer through a small
        // BufWriter.
        let out = Arc::new(Mutex::new(Vec::new()));
        let gated = FlushGated {
            pending: Vec::new(),
            out: Arc::clone(&out),
        };
        let tel = Telemetry::new();
        tel.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::with_capacity(
            16, gated,
        ))));
        tel.trace(TraceKind::PlanCycle, t(1), None, None, String::new());
        assert!(out.lock().is_empty(), "nothing published before flush");
        tel.flush_sinks();
        assert_eq!(
            String::from_utf8(out.lock().clone())
                .unwrap()
                .lines()
                .count(),
            1,
            "flush_sinks flushes through BufWriter to the device"
        );

        // Dropping the hub (without flush_sinks) must not truncate.
        let out2 = Arc::new(Mutex::new(Vec::new()));
        let gated2 = FlushGated {
            pending: Vec::new(),
            out: Arc::clone(&out2),
        };
        {
            let tel = Telemetry::new();
            tel.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::with_capacity(
                16, gated2,
            ))));
            tel.trace(TraceKind::PlanCycle, t(2), None, None, String::new());
            tel.trace(TraceKind::PlanCycle, t(3), None, None, String::new());
            assert!(out2.lock().is_empty());
        }
        let text = String::from_utf8(out2.lock().clone()).unwrap();
        assert_eq!(text.lines().count(), 2, "drop flushed every buffered line");
    }
}
