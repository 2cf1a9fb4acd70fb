//! Scheduler telemetry: structured tracing + metrics across the FSA
//! pipeline.
//!
//! Every layer of the SPHINX stack (server automaton, runtime cycles,
//! reliability ledger, grid substrate, WAL, monitor) reports into one
//! shared [`Telemetry`] instance:
//!
//! * **Metrics** — monotonic counters, gauges and fixed-bucket
//!   [`Histogram`]s keyed by `&'static str` names (no per-observation
//!   allocation), plus per-site submit/start/complete/hold/cancel tallies.
//! * **Trace events** — a bounded ring buffer of [`TraceEvent`]s stamped
//!   with **simulation time only**, optionally fanned out to pluggable
//!   [`TraceSink`]s (in-memory for tests, JSONL for the figure harness).
//!
//! Determinism is a hard requirement: nothing here reads the wall clock,
//! so two runs with the same seed produce byte-identical traces and
//! [`TelemetrySnapshot`]s. The only wall-clock metrics in the system
//! (`wall.*`, recorded by the runtime around the planner) are gated by
//! [`TelemetryConfig::wall_clock`], which defaults to **off**.
//!
//! Alongside the flat streams, the hub maintains a **causal span
//! graph** (see [`span`]): sim-time intervals for DAGs, jobs, planning
//! attempts, dwell states, batch-slot occupancy, planner phases and WAL
//! activity, connected by parent and cause links. The [`analysis`]
//! module turns the graph into critical paths and dwell blame, and
//! [`export`] renders Chrome trace-event JSON and Prometheus text.
//!
//! Metric name inventory (see DESIGN.md §Telemetry for semantics):
//!
//! | name | type |
//! |------|------|
//! | `dag.submitted`, `dag.finished` | counter |
//! | `job.eliminated` | counter |
//! | `plan.cycles`, `plan.jobs_submitted` | counter |
//! | `plan.reschedules_held`, `plan.reschedules_timeout` | counter |
//! | `plan.score_cache.{hits,misses}` | counter |
//! | `plan.scratch.reused` | counter |
//! | `reliability.flagged`, `reliability.unflagged` | counter |
//! | `wal.appends`, `wal.replays`, `wal.rewrites` | counter |
//! | `db.rows.read` | counter |
//! | `monitor.samples`, `monitor.samples_lost` | counter |
//! | `grid.submits`, `grid.queues`, `grid.starts`, `grid.completions`, `grid.holds`, `grid.cancels` | counter |
//! | `monitor.staleness`, `monitor.queue_depth` | per-site gauge |
//! | `ops.alerts`, `ops.poll.missed` | counter |
//! | `telemetry.trace.{recorded,dropped}` | counter (snapshot-synthesized) |
//! | `telemetry.spans.{total,live,dropped}` | counter (snapshot-synthesized) |
//! | `fsa.dwell_ms.{ready,submitted,queued,running,unready}` | histogram |
//! | `plan.cycle_gap_ms`, `job.completion_ms`, `monitor.sample_age_ms` | histogram |
//! | `wall.plan_cycle_us` | histogram (opt-in) |

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
use std::collections::{BTreeMap, VecDeque};
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

impl TraceKind {
    /// Stable lower-case label (used in JSONL output headers and tests).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::DagSubmitted => "dag_submitted",
            TraceKind::DagFinished => "dag_finished",
            TraceKind::JobReady => "job_ready",
            TraceKind::JobEliminated => "job_eliminated",
            TraceKind::JobSubmitted => "job_submitted",
            TraceKind::JobQueued => "job_queued",
            TraceKind::JobRunning => "job_running",
            TraceKind::JobCompleted => "job_completed",
            TraceKind::JobCancelled => "job_cancelled",
            TraceKind::PlanCycle => "plan_cycle",
            TraceKind::SiteFlagged => "site_flagged",
            TraceKind::SiteUnflagged => "site_unflagged",
            TraceKind::WalReplay => "wal_replay",
            TraceKind::MonitorSample => "monitor_sample",
            TraceKind::GridSubmit => "grid_submit",
            TraceKind::GridStart => "grid_start",
            TraceKind::GridComplete => "grid_complete",
            TraceKind::GridHold => "grid_hold",
            TraceKind::GridCancel => "grid_cancel",
            TraceKind::Recovery => "recovery",
            TraceKind::LeaseGranted => "lease_granted",
            TraceKind::LeaseExpired => "lease_expired",
            TraceKind::ShardAdoption => "shard_adoption",
            TraceKind::OpsAlert => "ops_alert",
        }
    }
}

/// Allocation-free projection of a [`TraceEvent`]: everything but the
/// `detail` string. This is what the live ops aggregator consumes each
/// planner cycle via [`Telemetry::ops_poll`] — copying `detail` for
/// every event would put a per-event allocation on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEventLite {
    /// Simulation time of the event.
    pub sim_time: SimTime,
    /// Event kind.
    pub kind: TraceKind,
    /// Dense job key, if the event concerns one job.
    pub job: Option<u64>,
    /// Site involved, if any.
    pub site: Option<u32>,
}

/// Reusable buffer filled by [`Telemetry::ops_poll`]. Owning the vectors
/// on the caller side means a steady-state poll performs no allocation
/// at all: `clear` + `push` into already-grown buffers.
#[derive(Debug, Default)]
pub struct OpsPoll {
    /// Ring events at sequence ≥ the poll cursor, oldest first.
    pub events: Vec<TraceEventLite>,
    /// Events that fell off the ring (or were drained) before this poll
    /// could see them; the aggregator surfaces this as data loss.
    pub missed: u64,
    /// Every counter, name-sorted (`&'static str` keys are copied, not
    /// allocated).
    pub counters: Vec<(&'static str, u64)>,
    /// Every per-site gauge as `(family, site, value)`, sorted by family
    /// then site.
    pub site_gauges: Vec<(&'static str, u32, f64)>,
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

/// Live span bookkeeping for one in-flight job.
struct JobTrack {
    /// Owning DAG id.
    dag: u64,
    /// The job's whole-lifetime span.
    job_span: SpanId,
    /// The currently open `state:*` dwell span.
    state_span: Option<SpanId>,
    /// The currently open `attempt` span (submit → finish/replanned).
    attempt_span: Option<SpanId>,
    /// The most recent closed attempt (linked from the next one).
    last_attempt: Option<SpanId>,
    /// Planning attempts so far (1-based after the first submit).
    attempts: u64,
}

struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Per-site labelled gauge families (`monitor.staleness{site="3"}`),
    /// keyed family → site → value.
    site_gauges: BTreeMap<&'static str, BTreeMap<u32, f64>>,
    histograms: BTreeMap<&'static str, Histogram>,
    sites: BTreeMap<u32, SiteTally>,
    /// Last-known FSA state and entry time per job key (dwell tracking).
    job_states: BTreeMap<u64, (&'static str, SimTime)>,
    ring: VecDeque<TraceEvent>,
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
    /// Latest sim time seen by any hook — the clockless layers (WAL)
    /// stamp their spans with this.
    last_sim: SimTime,
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
        let spans = SpanStore::new(config.span_capacity);
        Telemetry {
            config,
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                site_gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
                sites: BTreeMap::new(),
                job_states: BTreeMap::new(),
                ring: VecDeque::new(),
                recorded: 0,
                dropped: 0,
                sinks: Vec::new(),
                spans,
                dag_spans: BTreeMap::new(),
                job_tracks: BTreeMap::new(),
                job_span_ids: BTreeMap::new(),
                slot_spans: BTreeMap::new(),
                last_sim: SimTime::default(),
            }),
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

    // ---- metrics ----

    /// Add to a monotonic counter.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        *self.inner.lock().counters.entry(name).or_insert(0) += n;
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        self.inner.lock().gauges.insert(name, value);
    }

    /// Set one site's value in a per-site labelled gauge family
    /// (`name{site="<id>"}` in the Prometheus export).
    pub fn site_gauge_set(&self, name: &'static str, site: SiteId, value: f64) {
        self.inner
            .lock()
            .site_gauges
            .entry(name)
            .or_default()
            .insert(site.0, value);
    }

    /// One site's current value in a per-site gauge family, if set.
    pub fn site_gauge(&self, name: &str, site: SiteId) -> Option<f64> {
        self.inner
            .lock()
            .site_gauges
            .get(name)
            .and_then(|per_site| per_site.get(&site.0).copied())
    }

    /// Record one value into a fixed-bucket histogram.
    pub fn observe(&self, name: &'static str, value: f64) {
        self.inner
            .lock()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Record a simulated duration (in ms) into a histogram.
    pub fn observe_ms(&self, name: &'static str, d: Duration) {
        self.observe(name, d.as_millis() as f64);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    // ---- tracing ----

    /// Record one trace event.
    pub fn trace(
        &self,
        kind: TraceKind,
        sim_time: SimTime,
        job: Option<u64>,
        site: Option<SiteId>,
        detail: String,
    ) {
        let event = TraceEvent {
            sim_time,
            kind,
            job,
            site: site.map(|s| s.0),
            detail,
        };
        let mut inner = self.inner.lock();
        inner.last_sim = inner.last_sim.max(sim_time);
        inner.recorded += 1;
        for sink in inner.sinks.iter_mut() {
            sink.record(&event);
        }
        if inner.ring.len() >= self.config.trace_capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(event);
    }

    /// Incremental poll for the live ops aggregator: under **one** lock
    /// acquisition, copy every ring event at sequence ≥ `cursor` plus
    /// the current counters and per-site gauges into `poll`'s reusable
    /// buffers, and return the new cursor (the total recorded count).
    ///
    /// The cursor is an absolute event sequence number; events that fell
    /// off the ring (capacity overflow or `drain_trace`) before the poll
    /// are reported in [`OpsPoll::missed`] rather than silently skipped.
    /// Steady-state polls allocate nothing: the buffers are cleared and
    /// refilled in place.
    pub fn ops_poll(&self, cursor: u64, poll: &mut OpsPoll) -> u64 {
        poll.events.clear();
        poll.counters.clear();
        poll.site_gauges.clear();
        let inner = self.inner.lock();
        // Sequence number of the oldest event still in the ring.
        let start = inner.recorded - inner.ring.len() as u64;
        poll.missed = start.saturating_sub(cursor);
        let skip = cursor.saturating_sub(start) as usize;
        for event in inner.ring.iter().skip(skip) {
            poll.events.push(TraceEventLite {
                sim_time: event.sim_time,
                kind: event.kind,
                job: event.job,
                site: event.site,
            });
        }
        for (name, value) in inner.counters.iter() {
            poll.counters.push((*name, *value));
        }
        for (name, per_site) in inner.site_gauges.iter() {
            for (site, value) in per_site.iter() {
                poll.site_gauges.push((*name, *site, *value));
            }
        }
        inner.recorded
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

    // ---- FSA dwell tracking + job span lifecycle ----

    /// Note that job `job` (of DAG `dag`) entered FSA state `state` at
    /// `now`, recording the dwell time of the state it left into
    /// `fsa.dwell_ms.<prev-state>`. Terminal states drop the tracking
    /// entry (bounded memory across long campaigns).
    ///
    /// This is also the span choke point for the job lifecycle: the
    /// first non-terminal state opens the job span (under its DAG root),
    /// every state opens a `state:<name>` dwell span, `submitted` opens
    /// an `attempt` span linked to the previous failed attempt, and a
    /// `ready` caused by an upstream completion carries a `link` to
    /// `cause`'s job span (the edge critical-path extraction walks).
    /// `site` tags site-bound states; `cause` is the job key whose
    /// completion made this job ready, if any.
    pub fn note_job_state(
        &self,
        job: u64,
        dag: u64,
        state: &'static str,
        site: Option<SiteId>,
        cause: Option<u64>,
        now: SimTime,
    ) {
        let terminal = matches!(state, "finished" | "eliminated");
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(now);
        let prev = if terminal {
            inner.job_states.remove(&job)
        } else {
            inner.job_states.insert(job, (state, now))
        };
        if let Some((prev_state, since)) = prev {
            let dwell = now.since(since).as_millis() as f64;
            inner
                .histograms
                .entry(dwell_metric(prev_state))
                .or_default()
                .record(dwell);
        }

        if terminal {
            if let Some(mut track) = inner.job_tracks.remove(&job) {
                if let Some(s) = track.state_span.take() {
                    inner.spans.end(s, now);
                }
                if let Some(a) = track.attempt_span.take() {
                    inner.spans.end(a, now);
                }
                inner.spans.end(track.job_span, now);
            }
            if let Some(s) = inner.slot_spans.remove(&job) {
                inner.spans.end(s, now);
            }
            return;
        }

        if !inner.job_tracks.contains_key(&job) {
            let parent = inner.dag_spans.get(&dag).copied();
            let id = inner.spans.start(
                "job",
                now,
                SpanAttrs {
                    parent,
                    job: Some(job),
                    dag: Some(dag),
                    ..SpanAttrs::default()
                },
            );
            inner.job_span_ids.insert(job, id);
            inner.job_tracks.insert(
                job,
                JobTrack {
                    dag,
                    job_span: id,
                    state_span: None,
                    attempt_span: None,
                    last_attempt: None,
                    attempts: 0,
                },
            );
        }
        let Inner {
            spans,
            job_tracks,
            job_span_ids,
            ..
        } = inner;
        let cause_link = cause.and_then(|c| job_span_ids.get(&c).copied());
        let Some(track) = job_tracks.get_mut(&job) else {
            return;
        };
        if let Some(s) = track.state_span.take() {
            spans.end(s, now);
        }
        let site = site.map(|s| s.0);
        match state {
            "unready" => {
                track.state_span = Some(spans.start(
                    "state:unready",
                    now,
                    SpanAttrs {
                        parent: Some(track.job_span),
                        job: Some(job),
                        dag: Some(dag),
                        ..SpanAttrs::default()
                    },
                ));
            }
            "ready" => {
                // A live attempt span here means the attempt failed and
                // the job came back for replanning.
                if let Some(a) = track.attempt_span.take() {
                    spans.end(a, now);
                    track.last_attempt = Some(a);
                }
                track.state_span = Some(spans.start(
                    "state:ready",
                    now,
                    SpanAttrs {
                        parent: Some(track.job_span),
                        job: Some(job),
                        dag: Some(dag),
                        attempt: Some(track.attempts),
                        link: cause_link,
                        ..SpanAttrs::default()
                    },
                ));
            }
            "submitted" => {
                track.attempts += 1;
                let attempt = spans.start(
                    "attempt",
                    now,
                    SpanAttrs {
                        parent: Some(track.job_span),
                        job: Some(job),
                        dag: Some(dag),
                        site,
                        attempt: Some(track.attempts),
                        link: track.last_attempt,
                        ..SpanAttrs::default()
                    },
                );
                track.attempt_span = Some(attempt);
                track.state_span = Some(spans.start(
                    "state:submitted",
                    now,
                    SpanAttrs {
                        parent: Some(attempt),
                        job: Some(job),
                        dag: Some(dag),
                        site,
                        attempt: Some(track.attempts),
                        ..SpanAttrs::default()
                    },
                ));
            }
            "queued" | "running" => {
                let name = if state == "queued" {
                    "state:queued"
                } else {
                    "state:running"
                };
                track.state_span = Some(spans.start(
                    name,
                    now,
                    SpanAttrs {
                        parent: Some(track.attempt_span.unwrap_or(track.job_span)),
                        job: Some(job),
                        dag: Some(dag),
                        site,
                        attempt: Some(track.attempts),
                        ..SpanAttrs::default()
                    },
                ));
            }
            _ => {}
        }
    }

    // ---- DAG / phase / WAL spans ----

    /// Open the root span for DAG `dag` (`jobs` jobs) at `now`. A no-op
    /// while the hub already holds a live root span for `dag`: a recovered
    /// server re-opens the roots of its unfinished DAGs on whatever hub it
    /// is handed, and a hub that survived the crash still has them.
    pub fn dag_span_start(&self, dag: u64, jobs: usize, now: SimTime) {
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(now);
        if inner.dag_spans.contains_key(&dag) {
            return;
        }
        let id = inner.spans.start(
            "dag",
            now,
            SpanAttrs {
                dag: Some(dag),
                detail: format!("jobs={jobs}"),
                ..SpanAttrs::default()
            },
        );
        inner.dag_spans.insert(dag, id);
    }

    /// Close DAG `dag`'s root span at `now` (every job reached a
    /// terminal state).
    pub fn dag_span_end(&self, dag: u64, now: SimTime) {
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(now);
        if let Some(id) = inner.dag_spans.remove(&dag) {
            inner.spans.end(id, now);
        }
    }

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

    /// Record a zero-duration root span stamped with the latest sim time
    /// the hub has seen. For layers without a sim clock of their own
    /// (WAL replay/checkpoint in `sphinx-db`).
    pub fn span_instant(&self, name: &'static str, detail: String) -> SpanId {
        let inner = &mut *self.inner.lock();
        let now = inner.last_sim;
        let id = inner.spans.start(
            name,
            now,
            SpanAttrs {
                detail,
                ..SpanAttrs::default()
            },
        );
        inner.spans.end(id, now);
        id
    }

    /// Every span recorded so far: finished spans in end order, then
    /// live spans by id (deterministic for a deterministic run).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().spans.spans()
    }

    /// Run the post-run analyzer over the current span graph: one
    /// critical path per DAG plus the `top_n` slowest jobs, with the
    /// span-store self-accounting counters filled in.
    pub fn analyze(&self, top_n: usize) -> TraceAnalysis {
        let (spans, total, live, dropped) = {
            let inner = self.inner.lock();
            (
                // The receiver is the `SpanStore` field, not the hub:
                // `SpanStore::spans` takes no lock. The lint's name-based
                // fan-out cannot see the receiver type and also wires
                // this call to `Telemetry::spans`, which does.
                // sphinx-lint: allow(lock-reentry)
                inner.spans.spans(),
                inner.spans.total(),
                inner.spans.live(),
                inner.spans.dropped(),
            )
        };
        let mut out = SpanGraph::new(spans).analyze(top_n);
        out.spans_total = total;
        out.spans_live = live;
        out.spans_dropped = dropped;
        out
    }

    // ---- grid per-site hooks ----

    /// Execution plan submitted to `site` for job `job`.
    pub fn grid_submit(&self, site: SiteId, job: u64, now: SimTime) {
        self.site_event(TraceKind::GridSubmit, "grid.submits", site, job, now, |t| {
            t.submits += 1
        });
    }

    /// SPHINX job entered `site`'s batch queue (after staging). Opens
    /// the `slot:queued` span — queue-wait within the batch system.
    pub fn grid_queued(&self, site: SiteId, job: u64, now: SimTime) {
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(now);
        *inner.counters.entry("grid.queues").or_insert(0) += 1;
        Telemetry::slot_open(inner, "slot:queued", site, job, now);
    }

    /// SPHINX job dispatched onto a CPU at `site`. Closes `slot:queued`
    /// and opens `slot:run` — one span per batch-slot occupancy.
    pub fn grid_start(&self, site: SiteId, job: u64, now: SimTime) {
        {
            let inner = &mut *self.inner.lock();
            Telemetry::slot_open(inner, "slot:run", site, job, now);
        }
        self.site_event(TraceKind::GridStart, "grid.starts", site, job, now, |t| {
            t.starts += 1
        });
    }

    /// SPHINX job completed at `site`.
    pub fn grid_complete(&self, site: SiteId, job: u64, now: SimTime) {
        self.slot_close(job, now);
        self.site_event(
            TraceKind::GridComplete,
            "grid.completions",
            site,
            job,
            now,
            |t| t.completions += 1,
        );
    }

    /// SPHINX job held or killed at `site`.
    pub fn grid_hold(&self, site: SiteId, job: u64, now: SimTime) {
        self.slot_close(job, now);
        self.site_event(TraceKind::GridHold, "grid.holds", site, job, now, |t| {
            t.holds += 1
        });
    }

    /// Client cancelled a submission at `site`.
    pub fn grid_cancel(&self, site: SiteId, job: u64, now: SimTime) {
        self.slot_close(job, now);
        self.site_event(TraceKind::GridCancel, "grid.cancels", site, job, now, |t| {
            t.cancels += 1
        });
    }

    /// Close any open slot span for `job` and open `name` in its place,
    /// parented under the job's live attempt span when one exists (grid
    /// unit tests feed tags the server never planned — those become
    /// root slot spans).
    fn slot_open(inner: &mut Inner, name: &'static str, site: SiteId, job: u64, now: SimTime) {
        inner.last_sim = inner.last_sim.max(now);
        let Inner {
            spans,
            job_tracks,
            slot_spans,
            ..
        } = inner;
        if let Some(prev) = slot_spans.remove(&job) {
            spans.end(prev, now);
        }
        let track = job_tracks.get(&job);
        let id = spans.start(
            name,
            now,
            SpanAttrs {
                parent: track.map(|t| t.attempt_span.unwrap_or(t.job_span)),
                job: Some(job),
                dag: track.map(|t| t.dag),
                site: Some(site.0),
                attempt: track.map(|t| t.attempts),
                ..SpanAttrs::default()
            },
        );
        slot_spans.insert(job, id);
    }

    /// Close the open slot span for `job`, if any.
    fn slot_close(&self, job: u64, now: SimTime) {
        let inner = &mut *self.inner.lock();
        inner.last_sim = inner.last_sim.max(now);
        if let Some(id) = inner.slot_spans.remove(&job) {
            inner.spans.end(id, now);
        }
    }

    fn site_event(
        &self,
        kind: TraceKind,
        counter: &'static str,
        site: SiteId,
        job: u64,
        now: SimTime,
        bump: impl FnOnce(&mut SiteTally),
    ) {
        {
            let mut inner = self.inner.lock();
            *inner.counters.entry(counter).or_insert(0) += 1;
            bump(inner.sites.entry(site.0).or_default());
        }
        self.trace(kind, now, Some(job), Some(site), String::new());
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

/// Histogram name for dwell time in a given FSA state.
fn dwell_metric(state: &str) -> &'static str {
    match state {
        "unready" => "fsa.dwell_ms.unready",
        "ready" => "fsa.dwell_ms.ready",
        "submitted" => "fsa.dwell_ms.submitted",
        "queued" => "fsa.dwell_ms.queued",
        "running" => "fsa.dwell_ms.running",
        _ => "fsa.dwell_ms.other",
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
    /// Number of distinct metric series (counters + gauges + histograms +
    /// non-empty site tally columns).
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

    #[test]
    fn counters_gauges_histograms_round_trip_snapshot() {
        let tel = Telemetry::new();
        tel.counter_add("plan.cycles", 2);
        tel.counter_add("plan.cycles", 1);
        tel.gauge_set("monitor.visible_sites", 4.0);
        tel.observe_ms("plan.cycle_gap_ms", Duration::from_secs(15));
        let snap = tel.snapshot();
        assert_eq!(snap.counter("plan.cycles"), 3);
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
        tel.note_job_state(7, 0, "ready", None, None, t(0));
        tel.note_job_state(7, 0, "submitted", Some(SiteId(2)), None, t(10));
        tel.note_job_state(7, 0, "queued", Some(SiteId(2)), None, t(12));
        tel.note_job_state(7, 0, "running", Some(SiteId(2)), None, t(40));
        tel.note_job_state(7, 0, "finished", Some(SiteId(2)), None, t(100));
        let snap = tel.snapshot();
        assert_eq!(snap.histograms["fsa.dwell_ms.ready"].sum, 10_000.0);
        assert_eq!(snap.histograms["fsa.dwell_ms.submitted"].sum, 2_000.0);
        assert_eq!(snap.histograms["fsa.dwell_ms.queued"].sum, 28_000.0);
        assert_eq!(snap.histograms["fsa.dwell_ms.running"].sum, 60_000.0);
        // Terminal state dropped the tracking entries (dwell and spans).
        assert_eq!(tel.inner.lock().job_states.len(), 0);
        assert_eq!(tel.inner.lock().job_tracks.len(), 0);
    }

    #[test]
    fn job_lifecycle_builds_a_connected_span_tree() {
        let tel = Telemetry::new();
        tel.dag_span_start(3, 1, t(0));
        let job = (3u64 << 24) | 1;
        tel.note_job_state(job, 3, "unready", None, None, t(0));
        tel.note_job_state(job, 3, "ready", None, Some(999), t(5));
        tel.note_job_state(job, 3, "submitted", Some(SiteId(1)), None, t(6));
        tel.grid_queued(SiteId(1), job, t(7));
        tel.grid_start(SiteId(1), job, t(8));
        tel.note_job_state(job, 3, "queued", Some(SiteId(1)), None, t(7));
        tel.note_job_state(job, 3, "running", Some(SiteId(1)), None, t(8));
        tel.grid_complete(SiteId(1), job, t(20));
        tel.note_job_state(job, 3, "finished", Some(SiteId(1)), None, t(21));
        tel.dag_span_end(3, t(21));
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
        tel.dag_span_start(0, 1, t(0));
        tel.note_job_state(8, 0, "ready", None, None, t(0));
        tel.note_job_state(8, 0, "submitted", Some(SiteId(4)), None, t(1));
        tel.note_job_state(8, 0, "queued", Some(SiteId(4)), None, t(2));
        // Site dies; job goes back to ready, then is replanned elsewhere.
        tel.note_job_state(8, 0, "ready", None, None, t(10));
        tel.note_job_state(8, 0, "submitted", Some(SiteId(5)), None, t(11));
        tel.note_job_state(8, 0, "running", Some(SiteId(5)), None, t(12));
        tel.note_job_state(8, 0, "finished", Some(SiteId(5)), None, t(30));
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
    fn span_instant_uses_latest_sim_time() {
        let tel = Telemetry::new();
        tel.trace(TraceKind::PlanCycle, t(33), None, None, String::new());
        tel.span_instant("wal:checkpoint", "lines=12".to_owned());
        let spans = tel.spans();
        let wal = spans.iter().find(|s| s.name == "wal:checkpoint").unwrap();
        assert_eq!(wal.start, t(33));
        assert_eq!(wal.end, Some(t(33)));
        assert_eq!(wal.detail, "lines=12");
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
        tel.grid_submit(SiteId(0), 1, t(0));
        tel.grid_start(SiteId(0), 1, t(1));
        tel.grid_complete(SiteId(0), 1, t(2));
        tel.grid_submit(SiteId(1), 2, t(0));
        tel.grid_hold(SiteId(1), 2, t(3));
        tel.grid_cancel(SiteId(1), 2, t(4));
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
        assert_eq!(TraceKind::SiteFlagged.label(), "site_flagged");
    }

    #[test]
    fn identical_operation_sequences_give_identical_jsonl() {
        let run = || {
            let tel = Telemetry::new();
            for i in 0..50u64 {
                tel.note_job_state(i % 7, 0, "queued", Some(SiteId((i % 3) as u32)), None, t(i));
                tel.grid_submit(SiteId((i % 3) as u32), i, t(i));
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
    fn site_gauges_round_trip_snapshot() {
        let tel = Telemetry::new();
        tel.site_gauge_set("monitor.staleness", SiteId(2), 120_000.0);
        tel.site_gauge_set("monitor.staleness", SiteId(0), 0.0);
        tel.site_gauge_set("monitor.staleness", SiteId(2), 240_000.0);
        tel.site_gauge_set("monitor.queue_depth", SiteId(0), 7.0);
        assert_eq!(
            tel.site_gauge("monitor.staleness", SiteId(2)),
            Some(240_000.0)
        );
        assert_eq!(tel.site_gauge("monitor.staleness", SiteId(9)), None);
        let snap = tel.snapshot();
        assert_eq!(snap.site_gauges["monitor.staleness"][&2], 240_000.0);
        assert_eq!(snap.site_gauges["monitor.queue_depth"][&0], 7.0);
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

    #[test]
    fn ops_poll_is_cursor_incremental() {
        let tel = Telemetry::new();
        tel.counter_add("plan.cycles", 1);
        tel.site_gauge_set("monitor.queue_depth", SiteId(1), 3.0);
        for i in 0..3u64 {
            tel.trace(
                TraceKind::GridSubmit,
                t(i),
                Some(i),
                Some(SiteId(1)),
                String::new(),
            );
        }
        let mut poll = OpsPoll::default();
        let cursor = tel.ops_poll(0, &mut poll);
        assert_eq!(cursor, 3);
        assert_eq!(poll.missed, 0);
        assert_eq!(poll.events.len(), 3);
        assert_eq!(poll.events[0].kind, TraceKind::GridSubmit);
        assert_eq!(poll.events[2].job, Some(2));
        assert!(poll.counters.contains(&("plan.cycles", 1)));
        assert_eq!(poll.site_gauges, vec![("monitor.queue_depth", 1, 3.0)]);
        // Nothing new → empty poll, same cursor.
        let cursor2 = tel.ops_poll(cursor, &mut poll);
        assert_eq!(cursor2, 3);
        assert!(poll.events.is_empty());
        // New events since the cursor are picked up exactly once.
        tel.trace(
            TraceKind::GridStart,
            t(5),
            Some(0),
            Some(SiteId(1)),
            String::new(),
        );
        let cursor3 = tel.ops_poll(cursor2, &mut poll);
        assert_eq!(cursor3, 4);
        assert_eq!(poll.events.len(), 1);
        assert_eq!(poll.events[0].kind, TraceKind::GridStart);
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
        let mut poll = OpsPoll::default();
        // Cursor 1, but the ring only holds sequences 3..5 → 2 missed.
        let cursor = tel.ops_poll(1, &mut poll);
        assert_eq!(cursor, 5);
        assert_eq!(poll.missed, 2);
        assert_eq!(poll.events.len(), 2);
        assert_eq!(poll.events[0].sim_time, t(3));
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
