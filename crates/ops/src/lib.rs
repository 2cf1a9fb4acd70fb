//! Live ops plane: streaming in-run aggregation, online anomaly
//! detection and an HTTP ops endpoint for SPHINX.
//!
//! The paper's central caveat is that grid monitoring is imperfect —
//! stale, lossy, noisy (§2) — and that the scheduler compensates through
//! job feedback (§3.3–3.4). The post-hoc [`reliability`] path learns
//! about a black-hole site only after a submitted job times out and its
//! cancellation report arrives: tens of minutes of wasted submissions.
//! This crate watches the run *while it happens*:
//!
//! * [`OpsAggregator`] reads the telemetry event log and the few metrics
//!   it needs in place, incrementally (cursor-based, one lock acquisition
//!   per planner cycle, nothing copied out of the hub) and maintains rolling
//!   sim-time-windowed per-site health views — queue depth, submit→start
//!   latency, completion/cancel rates, monitor-report staleness — plus
//!   per-scheduler health (plan-cycle cadence, WAL append rate, lease
//!   churn).
//! * Three **online detectors** run over those windows: a black-hole
//!   detector (submits with no starts or completions within
//!   `k_windows`), a queue-anomaly detector (windowed z-score against a
//!   rolling baseline) and a staleness detector (monitor-report age vs.
//!   the update period). Each fires a typed [`OpsAlert`], recorded as a
//!   [`TraceKind::OpsAlert`] trace event, and can optionally feed the
//!   reliability index so flagging happens cycles earlier than the
//!   post-hoc path.
//! * [`http::OpsServer`] serves `/health`, `/snapshot` (JSON),
//!   `/metrics` (validated Prometheus text) and `/` (a static dashboard
//!   polling `/snapshot`) over a hand-rolled `std::net::TcpListener` —
//!   the workspace is offline, so no HTTP dependency exists to take.
//!
//! **Determinism boundary.** Everything in [`OpsAggregator`] is driven
//! by simulation time: windows are fixed sim-time buckets, detectors
//! evaluate only closed windows, and alerts are stamped with the
//! planner-tick sim time that evaluated them — so two same-seed runs
//! emit byte-identical alert streams, aggregator on or off. Wall-clock
//! exists only inside the HTTP serving thread, which renders whatever
//! the sim last published and never feeds anything back in.
//!
//! [`reliability`]: https://docs.rs/sphinx-core

pub mod http;

use serde::{Deserialize, Serialize};
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::{OpsView, Telemetry, TraceKind, TraceLine};
use std::collections::BTreeMap;

/// Window slots retained per site. Bounds both memory and how far back
/// detectors may look; `OpsConfig` clamps its window counts under it.
pub const HISTORY: usize = 32;

/// Tuning for the live ops plane. All quantities are simulation-time;
/// nothing here touches the wall clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpsConfig {
    /// Width of one aggregation window.
    pub window: Duration,
    /// Closed windows the black-hole detector looks back over.
    pub k_windows: u32,
    /// Minimum submits inside those windows before a black-hole verdict
    /// (one unlucky submit is not evidence).
    pub min_submits: u32,
    /// Z-score at which the queue-anomaly detector fires.
    pub z_threshold: f64,
    /// Closed windows forming the queue-depth baseline.
    pub baseline_windows: u32,
    /// Baseline samples required before z-scores are trusted.
    pub min_baseline: u32,
    /// The staleness detector fires when a monitor report is older than
    /// `staleness_factor × update_period`.
    pub staleness_factor: f64,
    /// The monitor's sampling period (staleness reference).
    pub update_period: Duration,
    /// Alerts kept in the published snapshot's recent ring.
    pub recent_alerts: usize,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            window: Duration::from_mins(2),
            k_windows: 3,
            min_submits: 2,
            z_threshold: 4.0,
            baseline_windows: 12,
            min_baseline: 6,
            staleness_factor: 3.0,
            update_period: Duration::from_mins(2),
            recent_alerts: 64,
        }
    }
}

/// Which online detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpsDetector {
    /// Submits with no starts or completions within `k_windows`.
    BlackHole,
    /// Queue depth z-score against the rolling baseline.
    QueueAnomaly,
    /// Monitor report age exceeded `staleness_factor × update_period`.
    Staleness,
}

impl OpsDetector {
    /// Stable label used in `OpsAlert` trace details.
    pub fn label(self) -> &'static str {
        match self {
            OpsDetector::BlackHole => "black_hole",
            OpsDetector::QueueAnomaly => "queue_anomaly",
            OpsDetector::Staleness => "staleness",
        }
    }
}

/// One detector firing. `Copy` on purpose: alerts move through the hot
/// tick without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpsAlert {
    /// Planner-tick sim time that evaluated the windows.
    pub at: SimTime,
    /// Which detector fired.
    pub detector: OpsDetector,
    /// The site concerned.
    pub site: u32,
    /// The evidence value (submit count, z-score, staleness ms).
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

/// Rolling health view of one site, as published in [`OpsSnapshot`].
/// `*_recent` fields sum the last `k_windows` closed windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteHealth {
    /// Site id.
    pub site: u32,
    /// Latest monitored queue depth.
    pub queue_depth: f64,
    /// Latest monitor-report age in sim-milliseconds.
    pub staleness_ms: f64,
    /// Submits over the recent closed windows.
    pub submits_recent: u32,
    /// Dispatches over the recent closed windows.
    pub starts_recent: u32,
    /// Completions over the recent closed windows.
    pub completions_recent: u32,
    /// Holds/cancellations over the recent closed windows.
    pub cancels_recent: u32,
    /// Mean submit→start latency over the recent closed windows (ms; 0
    /// when nothing started).
    pub latency_mean_ms: f64,
    /// Black-hole detector currently firing.
    pub black_hole: bool,
    /// Queue-anomaly detector currently firing.
    pub queue_anomaly: bool,
    /// Staleness detector currently firing.
    pub stale: bool,
}

/// Scheduler-side health: plan cadence, WAL pressure, lease churn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerHealth {
    /// Planner cycles seen in the trace stream.
    pub plan_cycles: u64,
    /// Sim-time gap between the two most recent plan cycles (ms).
    pub last_cycle_gap_ms: u64,
    /// Lifetime WAL appends (from the metrics registry).
    pub wal_appends: u64,
    /// WAL appends inside the last closed window.
    pub wal_appends_last_window: u64,
    /// Shard leases granted.
    pub lease_grants: u64,
    /// Shard leases expired.
    pub lease_expiries: u64,
    /// Dead-shard partitions adopted.
    pub shard_adoptions: u64,
}

/// Point-in-time publication of the aggregator's state: what `/snapshot`
/// serves and what the figure harness inspects. Rebuilt in place each
/// tick (the vectors are reused, not reallocated).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpsSnapshot {
    /// Sim time of the publishing tick (ms).
    pub now_ms: u64,
    /// Window width (ms).
    pub window_ms: u64,
    /// Aggregator ticks so far.
    pub ticks: u64,
    /// Telemetry log records consumed (the poll cursor).
    pub events_seen: u64,
    /// Alerts fired over the run.
    pub alerts_total: u64,
    /// Per-site health, site-ordered.
    pub sites: Vec<SiteHealth>,
    /// Scheduler-side health.
    pub scheduler: SchedulerHealth,
    /// The most recent alerts, oldest first (bounded ring).
    pub recent_alerts: Vec<OpsAlert>,
}

/// One sim-time window's activity at one site. Slots live in a fixed
/// per-site ring indexed by `window % HISTORY`; `stamp` (window index
/// + 1, 0 = empty) detects slot reuse without any clearing sweep.
#[derive(Debug, Clone, Copy, Default)]
struct WindowSlot {
    stamp: u64,
    submits: u32,
    starts: u32,
    completions: u32,
    cancels: u32,
    latency_sum_ms: u64,
    latency_count: u32,
    queue_depth: f64,
    queue_seen: bool,
}

/// Aggregation state for one site.
#[derive(Debug, Clone)]
struct SiteState {
    slots: [WindowSlot; HISTORY],
    /// Lifetime tallies; `submits_total - starts_total - cancels_total`
    /// is the number of submissions sitting unstarted at the site.
    submits_total: u64,
    starts_total: u64,
    completions_total: u64,
    cancels_total: u64,
    /// Window of the oldest submission still pending (`None` when
    /// nothing is pending) — the black-hole detector's evidence clock.
    first_pending_w: Option<u64>,
    queue_depth: f64,
    staleness_ms: f64,
    gauges_seen: bool,
    black_hole: bool,
    queue_anomaly: bool,
    stale: bool,
}

impl Default for SiteState {
    fn default() -> Self {
        SiteState {
            slots: [WindowSlot::default(); HISTORY],
            submits_total: 0,
            starts_total: 0,
            completions_total: 0,
            cancels_total: 0,
            first_pending_w: None,
            queue_depth: 0.0,
            staleness_ms: 0.0,
            gauges_seen: false,
            black_hole: false,
            queue_anomaly: false,
            stale: false,
        }
    }
}

impl SiteState {
    /// Submissions accepted but never started or cancelled.
    fn pending(&self) -> u64 {
        self.submits_total
            .saturating_sub(self.starts_total + self.cancels_total)
    }

    /// Keep the pending-evidence clock consistent after an event.
    fn settle_pending(&mut self) {
        if self.pending() == 0 {
            self.first_pending_w = None;
        }
    }
}

impl SiteState {
    /// The slot for window `widx`, reset if it still holds an older
    /// window's tallies. `% HISTORY` keeps the index in range, so this
    /// only returns `None` on an impossible out-of-bounds — `Option`
    /// (rather than `[...]` indexing) keeps the crate free of panic
    /// sites.
    fn slot_entry(&mut self, widx: u64) -> Option<&mut WindowSlot> {
        let slot = self.slots.get_mut((widx as usize) % HISTORY)?;
        if slot.stamp != widx + 1 {
            *slot = WindowSlot {
                stamp: widx + 1,
                ..WindowSlot::default()
            };
        }
        Some(slot)
    }

    /// The slot for window `widx`, only if it holds that window.
    fn slot(&self, widx: u64) -> Option<&WindowSlot> {
        self.slots
            .get((widx as usize) % HISTORY)
            .filter(|s| s.stamp == widx + 1)
    }
}

/// The streaming aggregator. Owned by the runtime; `tick` runs at the
/// end of every planner cycle on the sim thread, and `publish_into`
/// hands a rebuilt [`OpsSnapshot`] to whatever shares it (the HTTP
/// server, the figure harness).
#[derive(Debug)]
pub struct OpsAggregator {
    config: OpsConfig,
    window_ms: u64,
    cursor: u64,
    ticks: u64,
    alerts_total: u64,
    sites: BTreeMap<u32, SiteState>,
    /// Submit sim time per in-flight job key (latency pairing). Entries
    /// leave on start, completion or cancellation — bounded by in-flight
    /// jobs.
    submit_times: BTreeMap<u64, SimTime>,
    scheduler: SchedulerHealth,
    last_plan_cycle: Option<SimTime>,
    /// WAL-append counter value at the previous tick, plus the window
    /// accumulating the delta.
    wal_prev: u64,
    wal_window: u64,
    wal_window_count: u64,
    /// Alerts fired by the current tick (reused buffer).
    fired: Vec<OpsAlert>,
    /// Bounded ring of recent alerts for the snapshot.
    recent: Vec<OpsAlert>,
}

impl OpsAggregator {
    /// A fresh aggregator. Window counts are clamped under [`HISTORY`]
    /// so detector lookbacks always fit the per-site slot ring.
    pub fn new(config: OpsConfig) -> Self {
        let mut config = config;
        let cap = (HISTORY as u32).saturating_sub(2);
        config.k_windows = config.k_windows.clamp(1, cap);
        config.baseline_windows = config.baseline_windows.clamp(1, cap);
        config.min_baseline = config.min_baseline.clamp(1, config.baseline_windows);
        let window_ms = config.window.as_millis().max(1);
        OpsAggregator {
            window_ms,
            cursor: 0,
            ticks: 0,
            alerts_total: 0,
            sites: BTreeMap::new(),
            submit_times: BTreeMap::new(),
            scheduler: SchedulerHealth::default(),
            last_plan_cycle: None,
            wal_prev: 0,
            wal_window: 0,
            wal_window_count: 0,
            fired: Vec::new(),
            recent: Vec::new(),
            config,
        }
    }

    /// The configuration in force (post-clamping).
    pub fn config(&self) -> &OpsConfig {
        &self.config
    }

    /// Consume everything recorded since the last tick, roll the
    /// windows, run the detectors, and return the alerts that fired this
    /// tick. Called from the runtime at the end of each planner cycle;
    /// steady-state ticks allocate nothing.
    // sphinx-hot
    pub fn tick(&mut self, now: SimTime, telemetry: &Telemetry) -> &[OpsAlert] {
        self.ticks += 1;
        self.fired.clear();
        telemetry.ops_poll(self.cursor, |view| self.ingest(view, now));
        self.run_detectors(now, telemetry);
        telemetry.counter_add("ops.alerts", self.fired.len() as u64);
        self.alerts_total += self.fired.len() as u64;
        for alert in self.fired.iter() {
            if self.recent.len() >= self.config.recent_alerts.max(1) {
                self.recent.remove(0);
            }
            self.recent.push(*alert);
        }
        &self.fired
    }

    fn window_of(&self, t: SimTime) -> u64 {
        t.as_millis() / self.window_ms
    }

    /// Fold what the hub lends into the windows. Runs under the hub
    /// lock, so it must not call back into the hub.
    fn ingest(&mut self, view: OpsView<'_>, now: SimTime) {
        self.cursor = view.cursor;
        for event in view.events {
            self.ingest_trace_event(event);
        }
        let widx = self.window_of(now);
        for (site, depth) in view.queue_depth.into_iter().flatten() {
            let state = self.sites.entry(*site).or_default();
            state.queue_depth = *depth;
            state.gauges_seen = true;
            if let Some(slot) = state.slot_entry(widx) {
                slot.queue_depth = *depth;
                slot.queue_seen = true;
            }
        }
        for (site, staleness) in view.staleness.into_iter().flatten() {
            let state = self.sites.entry(*site).or_default();
            state.staleness_ms = *staleness;
            state.gauges_seen = true;
        }
        if widx != self.wal_window {
            self.scheduler.wal_appends_last_window = self.wal_window_count;
            self.wal_window = widx;
            self.wal_window_count = 0;
        }
        self.wal_window_count += view.wal_appends.saturating_sub(self.wal_prev);
        self.wal_prev = view.wal_appends;
        self.scheduler.wal_appends = view.wal_appends;
    }

    fn ingest_trace_event(&mut self, event: TraceLine) {
        let widx = event.sim_time.as_millis() / self.window_ms;
        match event.kind {
            TraceKind::GridSubmit => {
                if let Some(job) = event.job {
                    self.submit_times.insert(job, event.sim_time);
                }
                if let Some(site) = event.site {
                    let state = self.sites.entry(site).or_default();
                    state.submits_total += 1;
                    if state.first_pending_w.is_none() {
                        state.first_pending_w = Some(widx);
                    }
                    if let Some(slot) = state.slot_entry(widx) {
                        slot.submits += 1;
                    }
                }
            }
            TraceKind::GridStart => {
                let latency = event
                    .job
                    .and_then(|job| self.submit_times.remove(&job))
                    .map(|submitted| event.sim_time.since(submitted).as_millis());
                if let Some(site) = event.site {
                    let state = self.sites.entry(site).or_default();
                    state.starts_total += 1;
                    state.settle_pending();
                    if let Some(slot) = state.slot_entry(widx) {
                        slot.starts += 1;
                        if let Some(ms) = latency {
                            slot.latency_sum_ms += ms;
                            slot.latency_count += 1;
                        }
                    }
                }
            }
            TraceKind::GridComplete => {
                if let Some(job) = event.job {
                    self.submit_times.remove(&job);
                }
                if let Some(site) = event.site {
                    let state = self.sites.entry(site).or_default();
                    state.completions_total += 1;
                    if let Some(slot) = state.slot_entry(widx) {
                        slot.completions += 1;
                    }
                }
            }
            TraceKind::GridHold | TraceKind::GridCancel => {
                if let Some(job) = event.job {
                    self.submit_times.remove(&job);
                }
                if let Some(site) = event.site {
                    let state = self.sites.entry(site).or_default();
                    state.cancels_total += 1;
                    state.settle_pending();
                    if let Some(slot) = state.slot_entry(widx) {
                        slot.cancels += 1;
                    }
                }
            }
            TraceKind::PlanCycle => {
                self.scheduler.plan_cycles += 1;
                if let Some(prev) = self.last_plan_cycle {
                    self.scheduler.last_cycle_gap_ms = event.sim_time.since(prev).as_millis();
                }
                self.last_plan_cycle = Some(event.sim_time);
            }
            TraceKind::LeaseGranted => self.scheduler.lease_grants += 1,
            TraceKind::LeaseExpired => self.scheduler.lease_expiries += 1,
            TraceKind::ShardAdoption => self.scheduler.shard_adoptions += 1,
            // Never re-ingest our own alerts.
            _ => {}
        }
    }

    /// Evaluate every detector over closed windows. Each detector is
    /// edge-triggered: it fires once when its condition becomes true and
    /// re-arms when the condition clears.
    fn run_detectors(&mut self, now: SimTime, telemetry: &Telemetry) {
        let cur = self.window_of(now);
        let config = &self.config;
        let fired = &mut self.fired;
        let stale_limit = config.staleness_factor * config.update_period.as_millis() as f64;
        for (site, state) in self.sites.iter_mut() {
            // Black hole: submissions sitting unstarted while the site
            // shows no starts or completions across the last k closed
            // windows — and the oldest pending submission is itself at
            // least k windows old, so silence is evidence, not recency.
            let (mut starts, mut completions) = (0u32, 0u32);
            for back in 1..=u64::from(config.k_windows) {
                if let Some(slot) = cur.checked_sub(back).and_then(|w| state.slot(w)) {
                    starts += slot.starts;
                    completions += slot.completions;
                }
            }
            let pending = state.pending();
            let ripe = state
                .first_pending_w
                .is_some_and(|w| cur >= w + u64::from(config.k_windows));
            let black =
                ripe && pending >= u64::from(config.min_submits) && starts == 0 && completions == 0;
            if black && !state.black_hole {
                push_alert(
                    fired,
                    telemetry,
                    now,
                    OpsDetector::BlackHole,
                    *site,
                    pending as f64,
                    f64::from(config.min_submits),
                );
            }
            state.black_hole = black;

            // Queue anomaly: last closed window's depth against the
            // baseline of the windows before it.
            let anomalous = cur
                .checked_sub(1)
                .and_then(|w| state.slot(w))
                .filter(|slot| slot.queue_seen)
                .and_then(|slot| {
                    let z = queue_z_score(state, cur, config)?;
                    Some((slot.queue_depth, z))
                });
            match anomalous {
                Some((_, z)) if z >= config.z_threshold => {
                    if !state.queue_anomaly {
                        push_alert(
                            fired,
                            telemetry,
                            now,
                            OpsDetector::QueueAnomaly,
                            *site,
                            z,
                            config.z_threshold,
                        );
                    }
                    state.queue_anomaly = true;
                }
                Some(_) => state.queue_anomaly = false,
                // No sample / no baseline: keep the previous verdict.
                None => {}
            }

            // Staleness: the report the planner is using is too old.
            let stale = state.gauges_seen && state.staleness_ms > stale_limit;
            if stale && !state.stale {
                push_alert(
                    fired,
                    telemetry,
                    now,
                    OpsDetector::Staleness,
                    *site,
                    state.staleness_ms,
                    stale_limit,
                );
            }
            state.stale = stale;
        }
    }

    /// Rebuild `snap` from current state, reusing its vectors.
    pub fn publish_into(&self, now: SimTime, snap: &mut OpsSnapshot) {
        snap.now_ms = now.as_millis();
        snap.window_ms = self.window_ms;
        snap.ticks = self.ticks;
        snap.events_seen = self.cursor;
        snap.alerts_total = self.alerts_total;
        snap.scheduler = self.scheduler;
        snap.sites.clear();
        let cur = self.window_of(now);
        for (site, state) in self.sites.iter() {
            let mut health = SiteHealth {
                site: *site,
                queue_depth: state.queue_depth,
                staleness_ms: state.staleness_ms,
                black_hole: state.black_hole,
                queue_anomaly: state.queue_anomaly,
                stale: state.stale,
                ..SiteHealth::default()
            };
            let mut latency_sum = 0u64;
            let mut latency_count = 0u32;
            for back in 1..=u64::from(self.config.k_windows) {
                if let Some(slot) = cur.checked_sub(back).and_then(|w| state.slot(w)) {
                    health.submits_recent += slot.submits;
                    health.starts_recent += slot.starts;
                    health.completions_recent += slot.completions;
                    health.cancels_recent += slot.cancels;
                    latency_sum += slot.latency_sum_ms;
                    latency_count += slot.latency_count;
                }
            }
            if latency_count > 0 {
                health.latency_mean_ms = latency_sum as f64 / f64::from(latency_count);
            }
            snap.sites.push(health);
        }
        snap.recent_alerts.clear();
        snap.recent_alerts.extend_from_slice(&self.recent);
    }

    /// Convenience snapshot (tests, figure harness).
    pub fn snapshot_at(&self, now: SimTime) -> OpsSnapshot {
        let mut snap = OpsSnapshot::default();
        self.publish_into(now, &mut snap);
        snap
    }
}

/// Z-score of the last closed window's queue depth against the baseline
/// windows before it. `None` until `min_baseline` sampled windows exist.
/// The deviation floor of 1 job keeps a flat baseline (σ ≈ 0) from
/// turning any activity at all into an anomaly.
fn queue_z_score(state: &SiteState, cur: u64, config: &OpsConfig) -> Option<f64> {
    let last = cur.checked_sub(1).and_then(|w| state.slot(w))?;
    if !last.queue_seen {
        return None;
    }
    let mut sum = 0.0;
    let mut count = 0u32;
    for back in 2..=u64::from(config.baseline_windows) + 1 {
        if let Some(slot) = cur.checked_sub(back).and_then(|w| state.slot(w)) {
            if slot.queue_seen {
                sum += slot.queue_depth;
                count += 1;
            }
        }
    }
    if count < config.min_baseline {
        return None;
    }
    let mean = sum / f64::from(count);
    let mut var = 0.0;
    for back in 2..=u64::from(config.baseline_windows) + 1 {
        if let Some(slot) = cur.checked_sub(back).and_then(|w| state.slot(w)) {
            if slot.queue_seen {
                let d = slot.queue_depth - mean;
                var += d * d;
            }
        }
    }
    let std = (var / f64::from(count)).sqrt().max(1.0);
    Some((last.queue_depth - mean) / std)
}

/// Record one alert: into the tick's fired buffer, the trace stream and
/// the metrics registry. The detail string is the one allocation on the
/// alert path — alerts are edge-triggered and rare, so it stays off the
/// steady-state tick.
fn push_alert(
    fired: &mut Vec<OpsAlert>,
    telemetry: &Telemetry,
    now: SimTime,
    detector: OpsDetector,
    site: u32,
    value: f64,
    threshold: f64,
) {
    fired.push(OpsAlert {
        at: now,
        detector,
        site,
        value,
        threshold,
    });
    // sphinx-lint: allow(hot-alloc)
    let detail = format!("{} value={value} threshold={threshold}", detector.label());
    telemetry.trace(
        TraceKind::OpsAlert,
        now,
        None,
        Some(sphinx_data::SiteId(site)),
        detail,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphinx_data::SiteId;
    use sphinx_telemetry::{Event, GridStep};

    fn grid(tel: &Telemetry, step: GridStep, site: u32, job: u64, at: SimTime) {
        let site = SiteId(site);
        tel.record(at, Event::Grid { site, job, step });
    }

    /// A monitor report for `site`, `age_ms` old, showing `queued` jobs.
    fn report(tel: &Telemetry, site: u32, age_ms: u64, queued: usize, at: SimTime) {
        let (site, age) = (SiteId(site), Duration::from_millis(age_ms));
        tel.record(at, Event::SiteReport { site, age, queued });
    }

    fn mins(m: u64) -> SimTime {
        SimTime::from_secs(m * 60)
    }

    fn quick_config() -> OpsConfig {
        OpsConfig {
            window: Duration::from_mins(2),
            k_windows: 3,
            min_submits: 2,
            ..OpsConfig::default()
        }
    }

    #[test]
    fn black_hole_detector_fires_once_on_silent_submits() {
        let tel = Telemetry::new();
        let mut agg = OpsAggregator::new(quick_config());
        // Site 0: submits that never start. Site 1: healthy.
        for i in 0..4u64 {
            grid(&tel, GridStep::Submit, 0, i, mins(i));
            grid(&tel, GridStep::Submit, 1, 100 + i, mins(i));
            grid(&tel, GridStep::Start, 1, 100 + i, mins(i));
        }
        // Windows 0..2 are closed at t=8min (window 4).
        let fired: Vec<OpsAlert> = agg.tick(mins(8), &tel).to_vec();
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].detector, OpsDetector::BlackHole);
        assert_eq!(fired[0].site, 0);
        // Still black, but edge-triggered: no re-fire.
        assert!(agg.tick(mins(9), &tel).is_empty());
        let snap = agg.snapshot_at(mins(9));
        let s0 = snap.sites.iter().find(|s| s.site == 0).unwrap();
        assert!(s0.black_hole);
        let s1 = snap.sites.iter().find(|s| s.site == 1).unwrap();
        assert!(!s1.black_hole);
    }

    #[test]
    fn black_hole_rearms_after_recovery() {
        let tel = Telemetry::new();
        let mut agg = OpsAggregator::new(quick_config());
        // Windows are 2 min wide; at t=8min the lookback covers windows
        // 1..=3 (sim minutes 2..8).
        grid(&tel, GridStep::Submit, 0, 1, mins(2));
        grid(&tel, GridStep::Submit, 0, 2, mins(3));
        assert_eq!(agg.tick(mins(8), &tel).len(), 1);
        // The site starts running jobs → condition clears.
        grid(&tel, GridStep::Submit, 0, 3, mins(9));
        grid(&tel, GridStep::Start, 0, 3, mins(10));
        assert!(agg.tick(mins(12), &tel).is_empty());
        assert!(!agg.snapshot_at(mins(12)).sites[0].black_hole);
        // Goes silent again → a new edge fires.
        grid(&tel, GridStep::Submit, 0, 4, mins(20));
        grid(&tel, GridStep::Submit, 0, 5, mins(21));
        let fired = agg.tick(mins(26), &tel).to_vec();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].detector, OpsDetector::BlackHole);
    }

    #[test]
    fn queue_anomaly_needs_baseline_then_fires_on_spike() {
        let tel = Telemetry::new();
        let mut agg = OpsAggregator::new(OpsConfig {
            z_threshold: 3.0,
            ..quick_config()
        });
        // Flat baseline: depth ~4 for 10 windows.
        for w in 0..10u64 {
            report(&tel, 0, 0, 4, mins(w * 2));
            agg.tick(mins(w * 2), &tel);
        }
        assert!(agg.snapshot_at(mins(20)).alerts_total == 0);
        // Spike to 40 in window 10, evaluated once window 11 is current.
        report(&tel, 0, 0, 40, mins(20));
        agg.tick(mins(20), &tel);
        let fired = agg.tick(mins(22), &tel).to_vec();
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].detector, OpsDetector::QueueAnomaly);
        assert!(fired[0].value >= 3.0);
    }

    #[test]
    fn staleness_detector_tracks_monitor_gauge() {
        let tel = Telemetry::new();
        let mut agg = OpsAggregator::new(quick_config());
        report(&tel, 3, 30_000, 0, mins(1));
        assert!(agg.tick(mins(1), &tel).is_empty());
        // Update period 2min, factor 3 → limit 6min. 10min is stale.
        report(&tel, 3, 600_000, 0, mins(2));
        let fired = agg.tick(mins(2), &tel).to_vec();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].detector, OpsDetector::Staleness);
        assert_eq!(fired[0].site, 3);
        // Fresh report clears and re-arms.
        report(&tel, 3, 1_000, 0, mins(3));
        assert!(agg.tick(mins(3), &tel).is_empty());
        assert!(!agg.snapshot_at(mins(3)).sites[0].stale);
    }

    #[test]
    fn latency_and_rates_aggregate_per_window() {
        let tel = Telemetry::new();
        let mut agg = OpsAggregator::new(quick_config());
        grid(&tel, GridStep::Submit, 2, 7, mins(2));
        grid(&tel, GridStep::Start, 2, 7, mins(3));
        grid(&tel, GridStep::Complete, 2, 7, mins(4));
        grid(&tel, GridStep::Submit, 2, 8, mins(4));
        grid(&tel, GridStep::Cancel, 2, 8, mins(5));
        agg.tick(mins(8), &tel);
        let snap = agg.snapshot_at(mins(8));
        let s = snap.sites.iter().find(|s| s.site == 2).unwrap();
        assert_eq!(s.submits_recent, 2);
        assert_eq!(s.starts_recent, 1);
        assert_eq!(s.completions_recent, 1);
        assert_eq!(s.cancels_recent, 1);
        assert_eq!(s.latency_mean_ms, 60_000.0);
        assert!(agg.snapshot_at(mins(8)).scheduler.plan_cycles == 0);
    }

    #[test]
    fn scheduler_health_counts_cycles_and_leases() {
        let tel = Telemetry::new();
        let mut agg = OpsAggregator::new(quick_config());
        tel.trace(TraceKind::PlanCycle, mins(1), None, None, String::new());
        tel.trace(TraceKind::PlanCycle, mins(2), None, None, String::new());
        tel.trace(TraceKind::LeaseGranted, mins(2), None, None, String::new());
        tel.trace(TraceKind::LeaseExpired, mins(3), None, None, String::new());
        tel.trace(TraceKind::ShardAdoption, mins(3), None, None, String::new());
        tel.counter_add("wal.appends", 17);
        agg.tick(mins(4), &tel);
        let snap = agg.snapshot_at(mins(4));
        assert_eq!(snap.scheduler.plan_cycles, 2);
        assert_eq!(snap.scheduler.last_cycle_gap_ms, 60_000);
        assert_eq!(snap.scheduler.lease_grants, 1);
        assert_eq!(snap.scheduler.lease_expiries, 1);
        assert_eq!(snap.scheduler.shard_adoptions, 1);
        assert_eq!(snap.scheduler.wal_appends, 17);
    }

    #[test]
    fn alerts_are_traced_and_counted() {
        let tel = Telemetry::new();
        let mut agg = OpsAggregator::new(quick_config());
        grid(&tel, GridStep::Submit, 0, 1, mins(2));
        grid(&tel, GridStep::Submit, 0, 2, mins(3));
        agg.tick(mins(8), &tel);
        assert_eq!(tel.counter("ops.alerts"), 1);
        let traced: Vec<_> = tel
            .trace_events()
            .into_iter()
            .filter(|e| e.kind == TraceKind::OpsAlert)
            .collect();
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].site, Some(0));
        assert!(traced[0].detail.starts_with("black_hole "));
        // The aggregator's own alert events do not loop back into it.
        assert!(agg.tick(mins(9), &tel).is_empty());
        assert_eq!(agg.snapshot_at(mins(9)).alerts_total, 1);
    }

    #[test]
    fn same_event_sequence_gives_identical_alert_stream_and_snapshot() {
        let run = || {
            let tel = Telemetry::new();
            let mut agg = OpsAggregator::new(quick_config());
            let mut alerts = Vec::new();
            for m in 0..30u64 {
                if m % 3 == 0 {
                    grid(&tel, GridStep::Submit, 0, m, mins(m));
                }
                report(&tel, 0, m * 30_000, (m % 5) as usize, mins(m));
                alerts.extend_from_slice(agg.tick(mins(m), &tel));
            }
            let json = serde_json::to_string(&alerts).unwrap();
            (json, agg.snapshot_at(mins(30)))
        };
        let (a_json, a_snap) = run();
        let (b_json, b_snap) = run();
        assert_eq!(a_json, b_json);
        assert_eq!(a_snap, b_snap);
        // Snapshots serialize round-trip.
        let json = serde_json::to_string(&a_snap).unwrap();
        let back: OpsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a_snap);
    }

    #[test]
    fn recent_alert_ring_is_bounded() {
        let tel = Telemetry::new();
        let mut agg = OpsAggregator::new(OpsConfig {
            recent_alerts: 2,
            staleness_factor: 1.0,
            update_period: Duration::from_secs(1),
            ..quick_config()
        });
        // Alternate stale / fresh on three sites to generate >2 alerts.
        for (i, site) in [0u32, 1, 2, 0, 1].into_iter().enumerate() {
            let at = mins(i as u64 + 1);
            report(&tel, site, 1_000_000_000, 0, at);
            agg.tick(at, &tel);
            report(&tel, site, 0, 0, at);
            agg.tick(at, &tel);
        }
        let snap = agg.snapshot_at(mins(10));
        assert!(snap.alerts_total >= 3);
        assert_eq!(snap.recent_alerts.len(), 2);
    }
}
