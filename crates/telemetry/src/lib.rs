//! Scheduler telemetry: structured tracing + metrics across the FSA
//! pipeline.
//!
//! Every layer of the SPHINX stack reports into one shared [`Telemetry`]
//! hub, and what it reports is a *fact*: [`Telemetry::record`] takes one
//! typed [`Event`] and appends it, stamped with its sim time, to the hub's
//! event log — one fixed-size record under one lock acquisition, nothing
//! else. Only this crate knows which metric, span and [`TraceKind`] a fact
//! means, and it works that out when the log is read:
//!
//! * **Metrics** — counters, gauges and fixed-bucket [`Histogram`]s keyed
//!   by `&'static str` names, plus per-site grid tallies. The hub keeps
//!   one fold of them and advances it over the records appended since the
//!   last read, so [`Telemetry::snapshot`], [`Telemetry::counter`] and
//!   [`Telemetry::ops_poll`] cost O(new records). [`Telemetry::counter_add`]
//!   and [`Telemetry::gauge_set`] write the fold directly. The live ops
//!   plane reads no copy of its own: [`Telemetry::ops_poll`] lends it the
//!   typed events since its cursor and the folded counters and gauges in
//!   place, as an [`OpsView`].
//! * **Trace lines** — [`TraceEvent`]s stamped with **simulation time
//!   only**: [`Telemetry::trace_jsonl`] and [`Telemetry::trace_events`]
//!   render the log's lines; free-text infrastructure lines (monitor
//!   rounds, leases, adoption, ops alerts, recovery) enter it through
//!   [`Telemetry::trace`].
//! * **Causal spans** (see [`span`]) — sim-time intervals for DAGs, jobs,
//!   attempts, dwell states, batch slots, planner phases and the WAL, with
//!   parent and cause links, replayed from the log by [`Telemetry::spans`].
//!   [`analysis`] folds the log's job events into critical paths and
//!   dwell blame; [`export`] renders Chrome trace JSON and Prometheus text.
//!
//! Nothing is dropped: the log keeps every record for the hub's lifetime,
//! about 40 bytes a fact. Determinism is a hard requirement: nothing here
//! reads the wall clock, so same-seed runs produce byte-identical traces
//! and snapshots. The one wall-clock metric (`wall.plan_cycle_us`) is
//! gated by [`TelemetryConfig::wall_clock`], **off** by default.
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
//! | `wal.appends`, `db.rows.read`, `monitor.samples{,_lost}`, `ops.alerts` | counter | [`Telemetry::counter_add`] |
//! | `telemetry.trace.{recorded,dropped}`, `telemetry.spans.{total,live,dropped}` | counter | snapshot-synthesized |
//! | `monitor.staleness`, `monitor.queue_depth` | per-site gauge | [`Event::SiteReport`] |
//! | `fsa.dwell_ms.{unready,ready,submitted,queued,running}`, `job.completion_ms` | histogram | [`Event::Job`] |
//! | `monitor.sample_age_ms` | histogram | [`Event::SiteReport`] |
//! | `plan.cycle_gap_ms`, `wall.plan_cycle_us` (opt-in) | histogram | [`Event::PlanCycle`], [`Event::PlanCycleDone`] |

pub mod analysis;
pub mod export;
mod replay;
pub mod span;

pub use analysis::{
    CriticalPath, CriticalStep, DwellBreakdown, JobBlame, SpanGraph, TraceAnalysis,
};
pub use export::{chrome_trace_json, prometheus_text, validate_prometheus};
pub use span::{Span, SpanId, SpanStore};

use parking_lot::Mutex;
use replay::{Fact, Log, Machine, Note, Record, Sink};
use serde::{Deserialize, Serialize};
use sphinx_data::SiteId;
use sphinx_sim::{Duration, SimTime};
use std::collections::BTreeMap;
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
    /// [`TelemetryConfig::wall_clock`] is on. 32-bit tallies keep every
    /// event, and so every log record, at 40 bytes.
    PlanCycleDone {
        hits: u32,
        misses: u32,
        reused: u32,
        wall_us: Option<u32>,
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
    /// The restore path put the row back to `Ready` (no trace line).
    Reset,
    /// The restore path re-advanced a row the tracker follows at `site`
    /// to `Submitted` (no trace line).
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
    /// The typed events recorded since the poll cursor, oldest first.
    pub events: &'a mut dyn Iterator<Item = (SimTime, Event)>,
    /// The cursor for the next poll: every record appended so far.
    pub cursor: u64,
    /// Latest `monitor.queue_depth` per site.
    pub queue_depth: Option<&'a BTreeMap<u32, f64>>,
    /// Latest `monitor.staleness` (ms) per site.
    pub staleness: Option<&'a BTreeMap<u32, f64>>,
    /// The hub's folded counters.
    pub counters: &'a BTreeMap<&'static str, u64>,
}

/// A trace line without its free-text detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceLine {
    /// Simulation time of the event.
    pub sim_time: SimTime,
    /// Event kind.
    pub kind: TraceKind,
    /// Dense job key if the event concerns one job.
    pub job: Option<u64>,
    /// Site involved, if any.
    pub site: Option<u32>,
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
    /// Canonical single-line JSON encoding (one line of
    /// [`Telemetry::trace_jsonl`]): a key-sorted object, so same-seed
    /// traces are byte-comparable.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }
}

/// Millisecond-scale latency buckets: 10 ms … 12 h, then overflow. One
/// fixed layout for every histogram keeps snapshots comparable across
/// metrics and runs.
const BUCKET_BOUNDS_MS: [f64; 10] = [1e1, 1e2, 1e3, 1e4, 6e4, 3e5, 9e5, 3.6e6, 1.44e7, 4.32e7];

/// A fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// One overflow bucket past the last bound.
    counts: [u64; BUCKET_BOUNDS_MS.len() + 1],
    sum: f64,
    count: u64,
    max: f64,
}

impl Histogram {
    fn record(&mut self, value: f64) {
        let idx = BUCKET_BOUNDS_MS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        if let Some(count) = self.counts.get_mut(idx) {
            *count += 1;
        }
        self.sum += value;
        self.count += 1;
        if value > self.max {
            self.max = value;
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: BUCKET_BOUNDS_MS.to_vec(),
            counts: self.counts.to_vec(),
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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryConfig {
    /// Allow wall-clock (`wall.*`) metrics. **Off by default** so that
    /// same-seed runs produce identical snapshots.
    pub wall_clock: bool,
}

/// The hub's metric fold: a replay sink that counts.
#[derive(Default)]
struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Per-site labelled gauge families (`monitor.staleness{site="3"}`),
    /// keyed family → site → value.
    site_gauges: BTreeMap<&'static str, BTreeMap<u32, f64>>,
    histograms: BTreeMap<&'static str, Histogram>,
    sites: BTreeMap<u32, SiteTally>,
    /// Trace lines folded.
    lines: u64,
}

impl Metrics {
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().record(value);
    }
}

impl Sink for Metrics {
    fn fact(&mut self, record: &Record, notes: &[Note]) {
        let (line, counter) = record.show(notes);
        self.lines += u64::from(line.is_some());
        if let Some(counter) = counter {
            self.count(counter, 1);
        }
        let Fact::Event(event) = record.fact else {
            return;
        };
        match event {
            Event::Job {
                step: JobStep::Completed { total, .. },
                ..
            } => self.observe("job.completion_ms", total.as_millis() as f64),
            Event::Grid { site, step, .. } => {
                type Column = fn(&mut SiteTally) -> &mut u64;
                let column: Column = match step {
                    GridStep::Queued => return,
                    GridStep::Submit => |t| &mut t.submits,
                    GridStep::Start => |t| &mut t.starts,
                    GridStep::Complete => |t| &mut t.completions,
                    GridStep::Hold => |t| &mut t.holds,
                    GridStep::Cancel => |t| &mut t.cancels,
                };
                *column(self.sites.entry(site.0).or_default()) += 1;
            }
            Event::SiteReport { site, age, queued } => {
                let age = age.as_millis() as f64;
                let gauges = [
                    ("monitor.staleness", age),
                    ("monitor.queue_depth", queued as f64),
                ];
                for (family, value) in gauges {
                    self.site_gauges
                        .entry(family)
                        .or_default()
                        .insert(site.0, value);
                }
                self.observe("monitor.sample_age_ms", age);
            }
            Event::PlanCycle { gap: Some(gap), .. } => {
                self.observe("plan.cycle_gap_ms", gap.as_millis() as f64)
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
                for (counter, n) in tallies.into_iter().filter(|t| t.1 > 0) {
                    self.count(counter, u64::from(n));
                }
                if let Some(us) = wall_us {
                    self.observe("wall.plan_cycle_us", f64::from(us));
                }
            }
            Event::WalReplay { lines } => self.count("wal.replays", lines),
            _ => {}
        }
    }

    fn dwell(&mut self, histogram: &'static str, ms: u64) {
        self.observe(histogram, ms as f64);
    }
}

#[derive(Default)]
struct Inner {
    log: Log,
    /// The metric fold, advanced to the end of the log on every read.
    fold: Machine<Metrics>,
}

impl Inner {
    fn append(&mut self, at: SimTime, fact: Fact) {
        self.log.records.push(Record { at, fact });
    }

    /// The metric fold, caught up with the log.
    fn fold(&mut self) -> &Machine<Metrics> {
        self.fold.advance(&self.log);
        &self.fold
    }
}

/// A phase span opened by [`Telemetry::span_start`], for
/// [`Telemetry::span_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan(u32);

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
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Default-configured hub.
    pub fn new() -> Self {
        Telemetry::with_config(TelemetryConfig::default())
    }

    /// Hub with explicit tuning.
    pub fn with_config(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            inner: Mutex::new(Inner::default()),
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

    // ---- facts ----

    /// Record one fact at sim time `at`: one append to the log. The WAL
    /// keeps no sim clock: it passes `SimTime::default()`, and its spans
    /// are stamped with the latest time seen before it.
    pub fn record(&self, at: SimTime, event: Event) {
        self.inner.lock().append(at, Fact::Event(event));
    }

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
        let note = inner.log.notes.len() as u32;
        inner.log.notes.push((kind, job, site.map(|s| s.0), detail));
        inner.append(sim_time, Fact::Note(note));
    }

    /// Open a root span (planner phases: `phase:reduce`, `phase:plan`,
    /// …) at `now`.
    pub fn span_start(&self, name: &'static str, now: SimTime) -> PhaseSpan {
        let inner = &mut *self.inner.lock();
        let handle = PhaseSpan(inner.log.phases);
        inner.log.phases += 1;
        inner.append(now, Fact::Open(name));
        handle
    }

    /// Close a span opened with [`Telemetry::span_start`].
    pub fn span_end(&self, span: PhaseSpan, now: SimTime) {
        self.inner.lock().append(now, Fact::Close(span.0));
    }

    // ---- metrics ----

    /// Add to a monotonic counter.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        self.inner.lock().fold.spans.sink.count(name, n);
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        self.inner.lock().fold.spans.sink.gauges.insert(name, value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let mut inner = self.inner.lock();
        let counters = &inner.fold().spans.sink.counters;
        counters.get(name).copied().unwrap_or(0)
    }

    /// Incremental poll for the live ops aggregator: under **one** lock
    /// acquisition, lend `read` the typed events recorded from log
    /// position `cursor` on, the folded counters and the monitor gauges,
    /// in place (see [`OpsView`]).
    pub fn ops_poll<R>(&self, cursor: u64, read: impl FnOnce(OpsView<'_>) -> R) -> R {
        let inner = &mut *self.inner.lock();
        inner.fold.advance(&inner.log);
        let metrics = &inner.fold.spans.sink;
        let since = inner.log.records.since(cursor as usize);
        let mut events = since.filter_map(|r| match r.fact {
            Fact::Event(event) => Some((r.at, event)),
            _ => None,
        });
        read(OpsView {
            events: &mut events,
            cursor: inner.log.records.len() as u64,
            queue_depth: metrics.site_gauges.get("monitor.queue_depth"),
            staleness: metrics.site_gauges.get("monitor.staleness"),
            counters: &metrics.counters,
        })
    }

    // ---- projections of the whole log ----

    /// Every trace line recorded so far, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock();
        let lines = inner.log.lines(0).map(|(line, detail)| TraceEvent {
            sim_time: line.sim_time,
            kind: line.kind,
            job: line.job,
            site: line.site,
            detail: detail.to_string(),
        });
        lines.collect()
    }

    /// Render every trace line as JSONL.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.trace_events() {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Every span the log implies: finished spans in end order, then live
    /// spans by id (deterministic for a deterministic run).
    pub fn spans(&self) -> Vec<Span> {
        let mut machine = Machine::<SpanStore>::default();
        machine.advance(&self.inner.lock().log);
        machine.spans.sink.into_spans()
    }

    /// Analyze the run without building its span forest: a critical path
    /// per DAG, the `top_n` slowest jobs, and the span counts (the metric
    /// fold's, caught up with the log).
    pub fn analyze(&self, top_n: usize) -> TraceAnalysis {
        let mut inner = self.inner.lock();
        let spans = &inner.fold().spans;
        let (total, live) = (spans.next_id, spans.live);
        analysis::analyze(&inner.log, top_n, total, live)
    }

    // ---- snapshot ----

    /// Copy out every metric. Two same-seed runs produce equal snapshots
    /// (wall-clock metrics are opt-in and default off).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        fn owned<V, W>(map: &BTreeMap<&str, V>, f: impl Fn(&V) -> W) -> BTreeMap<String, W> {
            map.iter().map(|(k, v)| ((*k).to_owned(), f(v))).collect()
        }
        let mut inner = self.inner.lock();
        let fold = inner.fold();
        let (metrics, total, live) = (&fold.spans.sink, fold.spans.next_id, fold.spans.live);
        let mut counters = owned(&metrics.counters, |v| *v);
        // Self-accounting, as ordinary counters so every exporter
        // carries it.
        for (name, value) in [
            ("telemetry.trace.recorded", metrics.lines),
            ("telemetry.trace.dropped", 0),
            ("telemetry.spans.total", total),
            ("telemetry.spans.live", live),
            ("telemetry.spans.dropped", 0),
        ] {
            counters.insert(name.to_owned(), value);
        }
        TelemetrySnapshot {
            counters,
            gauges: owned(&metrics.gauges, |v| *v),
            site_gauges: owned(&metrics.site_gauges, BTreeMap::clone),
            histograms: owned(&metrics.histograms, Histogram::snapshot),
            sites: metrics.sites.clone(),
            trace_recorded: metrics.lines,
            trace_dropped: 0,
            spans_total: total,
            spans_live: live,
            spans_dropped: 0,
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
    /// Trace lines recorded over the run.
    pub trace_recorded: u64,
    /// Trace lines lost: always 0, the log keeps every record.
    pub trace_dropped: u64,
    /// Spans ever started.
    #[serde(default)]
    pub spans_total: u64,
    /// Spans still live at snapshot time.
    #[serde(default)]
    pub spans_live: u64,
    /// Spans lost: always 0, the log keeps every record.
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

/// The hub as it was before the log: every fact applied when recorded,
/// into a ring of trace lines, a span store and the metric maps. Kept as
/// the oracle every projection of the log is compared against.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::analysis::oracle::ScanGraph;

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
    pub struct Inner {
        counters: BTreeMap<&'static str, u64>,
        /// Per-site labelled gauge families (`monitor.staleness{site="3"}`),
        /// keyed family → site → value.
        site_gauges: BTreeMap<&'static str, BTreeMap<u32, f64>>,
        histograms: BTreeMap<&'static str, Histogram>,
        sites: BTreeMap<u32, SiteTally>,
        ring: Vec<TraceEvent>,
        /// Causal span store (live + finished).
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
        pub fn count(&mut self, name: &'static str, n: u64) {
            *self.counters.entry(name).or_insert(0) += n;
        }

        fn observe(&mut self, name: &'static str, value: f64) {
            self.histograms.entry(name).or_default().record(value);
        }

        /// Append one line to the ring.
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
            self.ring.push(event);
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
                            self.count(counter, u64::from(n));
                        }
                    }
                    if let Some(us) = wall_us {
                        self.observe("wall.plan_cycle_us", f64::from(us));
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
                let attrs = Span {
                    parent,
                    job: Some(job),
                    dag: Some(dag),
                    ..Span::default()
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
            let attrs = |parent, attempt, link| Span {
                parent: Some(parent),
                job: Some(job),
                dag: Some(dag),
                site,
                attempt,
                link,
                ..Span::default()
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
            let attrs = Span {
                parent: track.map(|t| t.attempt_span.unwrap_or(t.job_span)),
                job: Some(job),
                dag: track.map(|_| analysis::job_key_dag(job)),
                site: Some(site.0),
                attempt: track.map(|t| t.attempts),
                ..Span::default()
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
                    Span {
                        dag: Some(dag),
                        detail: text,
                        ..Span::default()
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
                Span {
                    detail,
                    ..Span::default()
                },
            );
            self.spans.end(id, now);
        }
    }

    /// Close `track`'s open `state:*` span: the stage it timed and its length
    /// in ms, the stage's dwell.
    fn close_state(
        spans: &mut SpanStore,
        track: &mut JobTrack,
        now: SimTime,
    ) -> Option<(Stage, u64)> {
        let (stage, id) = track.state.take()?;
        Some((stage, spans.end(id, now)?))
    }

    impl Inner {
        /// `Telemetry::record`.
        pub fn fact(&mut self, at: SimTime, event: Event) {
            self.last_sim = self.last_sim.max(at);
            self.record(at, event);
        }

        /// `Telemetry::trace`.
        pub fn note(&mut self, kind: TraceKind, at: SimTime, site: Option<SiteId>, text: &str) {
            self.last_sim = self.last_sim.max(at);
            self.line(kind, at, None, site, text.to_owned());
        }

        /// `Telemetry::span_start`.
        pub fn phase_start(&mut self, name: &'static str, at: SimTime) -> SpanId {
            self.last_sim = self.last_sim.max(at);
            self.spans.start(name, at, Span::default())
        }

        /// `Telemetry::span_end`.
        pub fn phase_end(&mut self, id: SpanId, at: SimTime) {
            self.last_sim = self.last_sim.max(at);
            self.spans.end(id, at);
        }

        pub fn spans(&self) -> Vec<Span> {
            self.spans.iter().cloned().collect()
        }

        pub fn analyze(&self, top_n: usize) -> TraceAnalysis {
            ScanGraph(&self.spans()).analyze(top_n)
        }

        pub fn trace_jsonl(&self) -> String {
            self.ring.iter().map(|e| e.to_json_line() + "\n").collect()
        }

        pub fn snapshot(&self) -> TelemetrySnapshot {
            let spans = self.spans();
            let total = spans.len() as u64;
            let live = spans.iter().filter(|s| s.end.is_none()).count() as u64;
            let recorded = self.ring.len() as u64;
            let mut counters: BTreeMap<String, u64> = self
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect();
            counters.insert("telemetry.trace.recorded".to_owned(), recorded);
            counters.insert("telemetry.trace.dropped".to_owned(), 0);
            counters.insert("telemetry.spans.total".to_owned(), total);
            counters.insert("telemetry.spans.live".to_owned(), live);
            counters.insert("telemetry.spans.dropped".to_owned(), 0);
            TelemetrySnapshot {
                counters,
                gauges: BTreeMap::new(),
                site_gauges: self
                    .site_gauges
                    .iter()
                    .map(|(k, per_site)| ((*k).to_owned(), per_site.clone()))
                    .collect(),
                histograms: self
                    .histograms
                    .iter()
                    .map(|(k, h)| ((*k).to_owned(), h.snapshot()))
                    .collect(),
                sites: self.sites.clone(),
                trace_recorded: recorded,
                trace_dropped: 0,
                spans_total: total,
                spans_live: live,
                spans_dropped: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        // The terminal state closed every span the job held.
        assert_eq!(snap.spans_live, 0);
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
        let lines = tel.trace_events().len();
        job(&tel, t(2), 9, JobStep::Reset);
        job(&tel, t(3), 9, JobStep::Resumed { site });
        assert_eq!(tel.trace_events().len(), lines);
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
        let tel = Telemetry::new();
        for i in 0..4 {
            let id = tel.span_start("phase:plan", t(i));
            tel.span_end(id, t(i));
        }
        let open = tel.span_start("phase:track", t(9));
        let snap = tel.snapshot();
        assert_eq!(snap.spans_total, 5);
        assert_eq!(snap.spans_live, 1);
        assert_eq!(snap.spans_dropped, 0);
        assert_eq!(snap.counter("telemetry.spans.total"), 5);
        assert_eq!(snap.counter("telemetry.spans.live"), 1);
        assert_eq!(snap.counter("telemetry.spans.dropped"), 0);
        assert_eq!(snap.counter("telemetry.trace.dropped"), 0);
        tel.span_end(open, t(10));
        // Closing a closed phase span is a no-op.
        tel.span_end(open, t(11));
        assert_eq!(tel.snapshot().spans_live, 0);
        assert_eq!(tel.spans().last().and_then(|s| s.end), Some(t(10)));
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

    /// The lent events and cursor, copied out so assertions can run after
    /// the lock.
    fn poll(tel: &Telemetry, cursor: u64) -> (Vec<(SimTime, Event)>, u64) {
        tel.ops_poll(cursor, |view| (view.events.collect(), view.cursor))
    }

    #[test]
    fn ops_poll_is_cursor_incremental() {
        let tel = Telemetry::new();
        tel.counter_add("wal.appends", 4);
        let (site, age) = (SiteId(1), Duration::ZERO);
        let report = Event::SiteReport {
            site,
            age,
            queued: 3,
        };
        tel.record(t(0), report);
        for i in 0..3u64 {
            grid(&tel, t(i), 1, i, GridStep::Submit);
        }
        tel.trace(TraceKind::LeaseGranted, t(3), None, None, String::new());
        // Five records, four of them typed events; the free-text line is
        // not one.
        let (wal, depth) = tel.ops_poll(0, |view| {
            let wal = view.counters.get("wal.appends").copied();
            (wal, view.queue_depth.cloned())
        });
        assert_eq!((wal, depth), (Some(4), Some(BTreeMap::from([(1, 3.0)]))));
        let (events, cursor) = poll(&tel, 0);
        assert_eq!(cursor, 5);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], (t(0), report));
        let step = GridStep::Submit;
        assert_eq!(events[3], (t(2), Event::Grid { site, job: 2, step }));
        // Nothing new → empty poll, same cursor; past the end likewise.
        let (events, cursor2) = poll(&tel, cursor);
        assert_eq!(cursor2, 5);
        assert!(events.is_empty());
        assert!(poll(&tel, u64::MAX).0.is_empty());
        // New events since the cursor are seen exactly once.
        grid(&tel, t(5), 1, 0, GridStep::Start);
        let (events, cursor3) = poll(&tel, cursor2);
        assert_eq!(cursor3, 6);
        let step = GridStep::Start;
        assert_eq!(events, vec![(t(5), Event::Grid { site, job: 0, step })]);
    }

    /// One generated sequence driven through a hub and through the
    /// record-time oracle alike. Each op is `(kind, a, b, dt)`: `dt` moves
    /// the clock 0, 1 or 2 s (so times collide), and an odd `b` stamps the op a second early, so
    /// spans may end before they start. Job ops pick one of 4 jobs of one
    /// of 3 DAGs (grid ops sometimes a tag no DAG owns); ready causes are
    /// lower-numbered siblings.
    fn drive(ops: &[(u8, u64, u64, u64)]) -> (Telemetry, oracle::Inner, TelemetrySnapshot) {
        let (tel, mut old) = (Telemetry::new(), oracle::Inner::default());
        let mut phases: Vec<(PhaseSpan, SpanId)> = Vec::new();
        let mut now = 0u64;
        let mut midway = None;
        for (i, &(kind, a, b, dt)) in ops.iter().enumerate() {
            if i == ops.len() / 2 {
                let snap = tel.snapshot();
                assert_eq!(snap, old.snapshot(), "fold at op {i}");
                midway = Some(snap);
            }
            now += 1_000 * (dt % 3);
            let at = SimTime::from_millis(now.saturating_sub(1_000 * (b % 2)));
            let (dag, index) = (a % 3, a / 3 % 4);
            let key = analysis::job_key(dag, index);
            let site = SiteId((b % 5) as u32);
            let event = match kind {
                0 => Event::DagSubmitted { dag, jobs: 4 },
                1 => Event::DagRestored { dag, jobs: 4 },
                2 => Event::DagFinished { dag },
                3..=12 => {
                    let cause =
                        (index > 0 && b % 4 != 0).then(|| analysis::job_key(dag, b % index));
                    let total = Duration::from_millis(b);
                    let step = match kind {
                        3 => JobStep::Ready { cause },
                        4 => JobStep::Eliminated,
                        5 => JobStep::Submitted { site },
                        6 => JobStep::Queued { site },
                        7 => JobStep::Running { site },
                        8 => JobStep::Completed { site, total },
                        9 => JobStep::Held { site },
                        10 => JobStep::TimedOut { site },
                        11 => JobStep::Reset,
                        _ => JobStep::Resumed { site },
                    };
                    Event::Job { job: key, step }
                }
                13 => {
                    let steps = [GridStep::Submit, GridStep::Queued, GridStep::Start];
                    let ends = [GridStep::Complete, GridStep::Hold, GridStep::Cancel];
                    let step = *steps.iter().chain(&ends).nth((b % 6) as usize).unwrap();
                    let job = if b % 7 == 0 { 1 << 40 } else { key };
                    Event::Grid { site, job, step }
                }
                14 => Event::SiteFlag {
                    site,
                    flagged: b % 2 == 0,
                },
                15 => Event::SiteReport {
                    site,
                    age: Duration::from_millis(a),
                    queued: b as usize,
                },
                16 => Event::PlanCycle {
                    reports: a as usize,
                    gap: (b % 3 != 0).then(|| Duration::from_millis(b)),
                },
                17 => Event::PlanCycleDone {
                    hits: a as u32,
                    misses: b as u32,
                    reused: (a % 2) as u32,
                    wall_us: (b % 2 == 0).then_some(a as u32),
                },
                18 => Event::WalReplay { lines: a },
                19 => Event::WalCheckpoint,
                20 => {
                    let kind = [TraceKind::MonitorSample, TraceKind::OpsAlert][(a % 2) as usize];
                    let site = (b % 3 != 0).then_some(site);
                    let text = format!("note \"{a}\"\\{b}");
                    tel.trace(kind, at, None, site, text.clone());
                    old.note(kind, at, site, &text);
                    continue;
                }
                21 => {
                    let name = ["phase:plan", "phase:track"][(a % 2) as usize];
                    phases.push((tel.span_start(name, at), old.phase_start(name, at)));
                    continue;
                }
                22 => {
                    if let Some(&(new, id)) = phases.get((b as usize) % phases.len().max(1)) {
                        tel.span_end(new, at);
                        old.phase_end(id, at);
                    }
                    continue;
                }
                _ => {
                    tel.counter_add("wal.appends", b);
                    old.count("wal.appends", b);
                    continue;
                }
            };
            // The WAL keeps no sim clock.
            let at = match event {
                Event::WalReplay { .. } | Event::WalCheckpoint => SimTime::default(),
                _ => at,
            };
            tel.record(at, event);
            old.fact(at, event);
        }
        let midway = midway.unwrap_or_default();
        (tel, old, midway)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]
        #[test]
        fn every_projection_equals_the_record_time_oracle(
            ops in proptest::collection::vec((0u8..24, 0u64..1000, 0u64..1000, 0u64..4000), 1..400),
        ) {
            let (tel, old, _) = drive(&ops);
            prop_assert_eq!(tel.spans(), old.spans());
            prop_assert_eq!(tel.snapshot(), old.snapshot());
            prop_assert_eq!(tel.trace_jsonl(), old.trace_jsonl());
            for n in [0, 3, usize::MAX] {
                prop_assert_eq!(tel.analyze(n), old.analyze(n));
            }
        }
    }
}
