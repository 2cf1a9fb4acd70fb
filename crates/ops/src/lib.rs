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
//! * [`OpsAggregator`] is a fold of the telemetry hubs. Each planner
//!   cycle it reads, in place and from a cursor, the typed grid and
//!   plan-cycle events the run hub recorded since the last tick, the
//!   monitor gauges, and the counters the hubs already keep. It maintains
//!   rolling sim-time-windowed per-site health views — pending
//!   submissions, submit→start latency, completion/cancel rates, queue
//!   depth, monitor-report staleness — plus per-scheduler health
//!   (plan-cycle cadence, WAL append rate, lease churn, adoptions), read
//!   from the coordination hub on a sharded run.
//! * Three **online detectors** run over those windows: a black-hole
//!   detector (pending submissions with no starts or completions within
//!   [`K_WINDOWS`]), a queue-anomaly detector (windowed z-score against a
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
use sphinx_telemetry::{Event, GridStep, OpsView, Telemetry, TraceKind};
use std::collections::BTreeMap;

/// Window slots retained per site. Bounds both memory and how far back
/// detectors may look.
pub const HISTORY: usize = 32;
/// Width of one aggregation window (sim time).
pub const WINDOW: Duration = Duration::from_mins(2);
/// Closed windows the black-hole detector looks back over.
pub const K_WINDOWS: u32 = 3;
/// Pending submissions needed before a black-hole verdict (one unlucky
/// submit is not evidence).
const MIN_SUBMITS: u32 = 2;
/// Z-score at which the queue-anomaly detector fires.
const Z_THRESHOLD: f64 = 4.0;
/// Closed windows forming the queue-depth baseline.
const BASELINE_WINDOWS: u32 = 12;
/// Baseline samples required before z-scores are trusted.
const MIN_BASELINE: u32 = 6;
/// A monitor report older than `STALENESS_FACTOR × UPDATE_PERIOD` is
/// stale; `UPDATE_PERIOD` is the monitor's default sampling period.
const STALENESS_FACTOR: f64 = 3.0;
const UPDATE_PERIOD: Duration = Duration::from_mins(2);
/// Alerts kept in the published snapshot's recent ring.
const RECENT_ALERTS: usize = 64;

// Every lookback (the current window, then up to this many closed ones)
// fits the per-site slot ring, and a window is never empty.
const _: () = assert!(
    WINDOW.as_millis() > 0
        && K_WINDOWS >= 1
        && K_WINDOWS as usize + 2 <= HISTORY
        && MIN_BASELINE >= 1
        && MIN_BASELINE <= BASELINE_WINDOWS
        && BASELINE_WINDOWS as usize + 2 <= HISTORY
);

/// Switches the live ops plane on (`RuntimeConfig::ops`). It carries no
/// settings: the plane's windows and thresholds are this crate's
/// constants.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpsConfig {}

/// Which online detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpsDetector {
    /// Pending submissions with no starts or completions within
    /// [`K_WINDOWS`].
    BlackHole,
    /// Queue depth z-score against the rolling baseline.
    QueueAnomaly,
    /// Monitor report age exceeded three monitor update periods.
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
    /// The evidence value (pending count, z-score, staleness ms).
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

/// Rolling health view of one site, as published in [`OpsSnapshot`].
/// `*_recent` fields sum the last [`K_WINDOWS`] closed windows.
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
    /// Planner cycles so far (`plan.cycles` of the run hub).
    pub plan_cycles: u64,
    /// Sim-time gap between the two most recent plan cycles (ms).
    pub last_cycle_gap_ms: u64,
    /// Lifetime WAL appends (`wal.appends`).
    pub wal_appends: u64,
    /// WAL appends inside the last closed window.
    pub wal_appends_last_window: u64,
    /// Shard leases granted (`shard.leases.granted`).
    pub lease_grants: u64,
    /// Shard leases expired (`shard.leases.expired`).
    pub lease_expiries: u64,
    /// Dead-shard partitions adopted (`shard.adoptions`).
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
#[derive(Debug, Clone, Default)]
struct SiteState {
    slots: [WindowSlot; HISTORY],
    /// The site's entries in the aggregator's submit map: submissions
    /// neither started nor ended.
    pending: u32,
    /// Window of the first submission since `pending` was last zero
    /// (`None` while nothing is pending) — the black-hole detector's
    /// evidence clock.
    first_pending_w: Option<u64>,
    queue_depth: f64,
    staleness_ms: f64,
    gauges_seen: bool,
    black_hole: bool,
    queue_anomaly: bool,
    stale: bool,
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

    /// The closed windows `back` windows before `cur`, oldest last.
    fn closed(
        &self,
        cur: u64,
        back: std::ops::RangeInclusive<u64>,
    ) -> impl Iterator<Item = &WindowSlot> {
        back.filter_map(move |b| cur.checked_sub(b).and_then(|w| self.slot(w)))
    }
}

/// The streaming aggregator. Owned by the runtime; `tick_on` runs at the
/// end of every planner cycle on the sim thread, and `publish_into`
/// hands a rebuilt [`OpsSnapshot`] to whatever shares it (the HTTP
/// server, the figure harness).
#[derive(Debug, Default)]
pub struct OpsAggregator {
    cursor: u64,
    ticks: u64,
    alerts_total: u64,
    sites: BTreeMap<u32, SiteState>,
    /// Submit time and site per job key until the job starts or leaves
    /// the site (latency pairing); each site's entries are its pending
    /// submissions. Bounded by in-flight jobs.
    submitted: BTreeMap<u64, (SimTime, u32)>,
    scheduler: SchedulerHealth,
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
    /// A fresh aggregator.
    pub fn new(_: OpsConfig) -> Self {
        OpsAggregator::default()
    }

    /// [`Self::tick_on`] with one hub in both roles: a run without a
    /// coordination plane.
    pub fn tick(&mut self, now: SimTime, hub: &Telemetry) -> &[OpsAlert] {
        self.tick_on(now, hub, hub)
    }

    /// Consume everything the run hub recorded since the last tick and
    /// the scheduler counters of the coordination hub (the plane's hub on
    /// a sharded run, else the run hub), roll the windows, run the
    /// detectors, and return the alerts that fired this tick; they are
    /// recorded on the run hub. Called from the runtime at the end of
    /// each planner cycle; steady-state ticks allocate nothing.
    // sphinx-hot
    pub fn tick_on(
        &mut self,
        now: SimTime,
        run_hub: &Telemetry,
        coordination_hub: &Telemetry,
    ) -> &[OpsAlert] {
        self.ticks += 1;
        self.fired.clear();
        run_hub.ops_poll(self.cursor, |view| self.ingest(view, now));
        // Past the end of the log: counters only, no events.
        coordination_hub.ops_poll(u64::MAX, |view| self.read_coordination(&view, now));
        self.run_detectors(now, run_hub);
        run_hub.counter_add("ops.alerts", self.fired.len() as u64);
        self.alerts_total += self.fired.len() as u64;
        for alert in self.fired.iter() {
            if self.recent.len() >= RECENT_ALERTS {
                self.recent.remove(0);
            }
            self.recent.push(*alert);
        }
        &self.fired
    }

    fn window_of(t: SimTime) -> u64 {
        t.as_millis() / WINDOW.as_millis()
    }

    /// Fold what the run hub lends into the windows. Runs under the hub
    /// lock, so it must not call back into the hub.
    fn ingest(&mut self, view: OpsView<'_>, now: SimTime) {
        self.cursor = view.cursor;
        self.scheduler.plan_cycles = counter(&view, "plan.cycles");
        for (at, event) in view.events {
            match event {
                Event::Grid { site, job, step } => self.ingest_grid(at, site.0, job, step),
                Event::PlanCycle { gap: Some(gap), .. } => {
                    self.scheduler.last_cycle_gap_ms = gap.as_millis();
                }
                _ => {}
            }
        }
        let widx = Self::window_of(now);
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
    }

    /// Fold one grid step at `site` into its window and the submit map.
    fn ingest_grid(&mut self, at: SimTime, site: u32, job: u64, step: GridStep) {
        if step == GridStep::Queued {
            return;
        }
        // Every other step ends the job's pending submission, if any; a
        // submit then opens a new one.
        let ended = self.submitted.remove(&job);
        if let Some(state) = ended.and_then(|(_, from)| self.sites.get_mut(&from)) {
            state.pending = state.pending.saturating_sub(1);
            if state.pending == 0 {
                state.first_pending_w = None;
            }
        }
        let widx = Self::window_of(at);
        let state = self.sites.entry(site).or_default();
        if step == GridStep::Submit {
            self.submitted.insert(job, (at, site));
            state.pending += 1;
            state.first_pending_w.get_or_insert(widx);
        }
        let Some(slot) = state.slot_entry(widx) else {
            return;
        };
        match step {
            GridStep::Submit => slot.submits += 1,
            GridStep::Start => {
                slot.starts += 1;
                if let Some((submitted, _)) = ended {
                    slot.latency_sum_ms += at.since(submitted).as_millis();
                    slot.latency_count += 1;
                }
            }
            GridStep::Complete => slot.completions += 1,
            GridStep::Hold | GridStep::Cancel => slot.cancels += 1,
            GridStep::Queued => {}
        }
    }

    /// Read the scheduler counters the coordination hub keeps.
    fn read_coordination(&mut self, view: &OpsView<'_>, now: SimTime) {
        let widx = Self::window_of(now);
        if widx != self.wal_window {
            self.scheduler.wal_appends_last_window = self.wal_window_count;
            self.wal_window = widx;
            self.wal_window_count = 0;
        }
        let wal_appends = counter(view, "wal.appends");
        self.wal_window_count += wal_appends.saturating_sub(self.wal_prev);
        self.wal_prev = wal_appends;
        let health = &mut self.scheduler;
        health.wal_appends = wal_appends;
        health.lease_grants = counter(view, "shard.leases.granted");
        health.lease_expiries = counter(view, "shard.leases.expired");
        health.shard_adoptions = counter(view, "shard.adoptions");
    }

    /// Evaluate every detector over closed windows. Each detector is
    /// edge-triggered: it fires once when its condition becomes true and
    /// re-arms when the condition clears.
    fn run_detectors(&mut self, now: SimTime, telemetry: &Telemetry) {
        let cur = Self::window_of(now);
        let fired = &mut self.fired;
        let stale_limit = STALENESS_FACTOR * UPDATE_PERIOD.as_millis() as f64;
        for (&site, state) in self.sites.iter_mut() {
            let mut fire = |detector, value, threshold| {
                let alert = OpsAlert {
                    at: now,
                    detector,
                    site,
                    value,
                    threshold,
                };
                push_alert(fired, telemetry, alert);
            };
            // Black hole: submissions sitting unstarted while the site
            // shows no starts or completions across the last k closed
            // windows — and the first of them is itself at least k
            // windows old, so silence is evidence, not recency.
            let silent = state
                .closed(cur, 1..=u64::from(K_WINDOWS))
                .all(|slot| slot.starts == 0 && slot.completions == 0);
            let ripe = state
                .first_pending_w
                .is_some_and(|w| cur >= w + u64::from(K_WINDOWS));
            let black = ripe && state.pending >= MIN_SUBMITS && silent;
            if black && !state.black_hole {
                let pending = f64::from(state.pending);
                fire(OpsDetector::BlackHole, pending, f64::from(MIN_SUBMITS));
            }
            state.black_hole = black;

            // Queue anomaly: last closed window's depth against the
            // baseline of the windows before it. No sample or no
            // baseline keeps the previous verdict.
            if let Some(z) = queue_z_score(state, cur) {
                let anomalous = z >= Z_THRESHOLD;
                if anomalous && !state.queue_anomaly {
                    fire(OpsDetector::QueueAnomaly, z, Z_THRESHOLD);
                }
                state.queue_anomaly = anomalous;
            }

            // Staleness: the report the planner is using is too old.
            let stale = state.gauges_seen && state.staleness_ms > stale_limit;
            if stale && !state.stale {
                fire(OpsDetector::Staleness, state.staleness_ms, stale_limit);
            }
            state.stale = stale;
        }
    }

    /// Rebuild `snap` from current state, reusing its vectors.
    pub fn publish_into(&self, now: SimTime, snap: &mut OpsSnapshot) {
        snap.now_ms = now.as_millis();
        snap.window_ms = WINDOW.as_millis();
        snap.ticks = self.ticks;
        snap.events_seen = self.cursor;
        snap.alerts_total = self.alerts_total;
        snap.scheduler = self.scheduler;
        snap.sites.clear();
        let cur = Self::window_of(now);
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
            for slot in state.closed(cur, 1..=u64::from(K_WINDOWS)) {
                health.submits_recent += slot.submits;
                health.starts_recent += slot.starts;
                health.completions_recent += slot.completions;
                health.cancels_recent += slot.cancels;
                latency_sum += slot.latency_sum_ms;
                latency_count += slot.latency_count;
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

/// The lent hub's counter `name` (0 if never touched).
fn counter(view: &OpsView<'_>, name: &str) -> u64 {
    view.counters.get(name).copied().unwrap_or(0)
}

/// Z-score of the last closed window's queue depth against the baseline
/// windows before it. `None` until the last closed window has a sample
/// and `MIN_BASELINE` sampled windows precede it. The deviation floor of
/// 1 job keeps a flat baseline (σ ≈ 0) from turning any activity at all
/// into an anomaly.
fn queue_z_score(state: &SiteState, cur: u64) -> Option<f64> {
    let last = state.closed(cur, 1..=1).find(|slot| slot.queue_seen)?;
    let baseline = || {
        let windows = state.closed(cur, 2..=u64::from(BASELINE_WINDOWS) + 1);
        windows
            .filter(|slot| slot.queue_seen)
            .map(|slot| slot.queue_depth)
    };
    let count = baseline().count() as u32;
    if count < MIN_BASELINE {
        return None;
    }
    let mean = baseline().sum::<f64>() / f64::from(count);
    let var: f64 = baseline().map(|d| (d - mean) * (d - mean)).sum();
    let std = (var / f64::from(count)).sqrt().max(1.0);
    Some((last.queue_depth - mean) / std)
}

/// Record one alert: into the tick's fired buffer, the trace stream and
/// the metrics registry. The detail string is the one allocation on the
/// alert path — alerts are edge-triggered and rare, so it stays off the
/// steady-state tick.
fn push_alert(fired: &mut Vec<OpsAlert>, telemetry: &Telemetry, alert: OpsAlert) {
    fired.push(alert);
    let OpsAlert {
        detector,
        value,
        threshold,
        ..
    } = alert;
    // sphinx-lint: allow(hot-alloc)
    let detail = format!("{} value={value} threshold={threshold}", detector.label());
    let site = Some(sphinx_data::SiteId(alert.site));
    telemetry.trace(TraceKind::OpsAlert, alert.at, None, site, detail);
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

    fn aggregator() -> OpsAggregator {
        OpsAggregator::new(OpsConfig::default())
    }

    #[test]
    fn black_hole_detector_fires_once_on_silent_submits() {
        let tel = Telemetry::new();
        let mut agg = aggregator();
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
        let mut agg = aggregator();
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
        let mut agg = aggregator();
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
        assert!(fired[0].value >= Z_THRESHOLD);
    }

    #[test]
    fn staleness_detector_tracks_monitor_gauge() {
        let tel = Telemetry::new();
        let mut agg = aggregator();
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
        let mut agg = aggregator();
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
    fn black_hole_counts_a_started_then_held_job_once() {
        let tel = Telemetry::new();
        let mut agg = aggregator();
        // Job 1 starts and is then held: it left the site's pending
        // submissions when it started, so the hold takes nothing more.
        grid(&tel, GridStep::Submit, 0, 1, mins(0));
        grid(&tel, GridStep::Start, 0, 1, mins(1));
        grid(&tel, GridStep::Hold, 0, 1, mins(2));
        grid(&tel, GridStep::Submit, 0, 2, mins(3));
        grid(&tel, GridStep::Submit, 0, 3, mins(3));
        let fired = agg.tick(mins(10), &tel).to_vec();
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].detector, OpsDetector::BlackHole);
        assert_eq!(fired[0].value, 2.0);
    }

    #[test]
    fn scheduler_health_reads_both_hubs_counters() {
        let (run, coordination) = (Telemetry::new(), Telemetry::new());
        let mut agg = aggregator();
        let cycle = |at, gap| run.record(at, Event::PlanCycle { reports: 0, gap });
        cycle(mins(1), None);
        cycle(mins(2), Some(Duration::from_mins(1)));
        coordination.counter_add("shard.leases.granted", 4);
        coordination.counter_add("shard.leases.expired", 1);
        coordination.counter_add("shard.adoptions", 1);
        coordination.counter_add("wal.appends", 17);
        // Counters of the run hub that belong to the coordination hub
        // are not read.
        run.counter_add("wal.appends", 99);
        agg.tick_on(mins(4), &run, &coordination);
        let health = agg.snapshot_at(mins(4)).scheduler;
        assert_eq!(health.plan_cycles, 2);
        assert_eq!(health.last_cycle_gap_ms, 60_000);
        assert_eq!(health.lease_grants, 4);
        assert_eq!(health.lease_expiries, 1);
        assert_eq!(health.shard_adoptions, 1);
        assert_eq!(health.wal_appends, 17);
        // A window later, the closed window's WAL appends are reported.
        coordination.counter_add("wal.appends", 3);
        agg.tick_on(mins(6), &run, &coordination);
        let health = agg.snapshot_at(mins(6)).scheduler;
        assert_eq!(
            (health.wal_appends, health.wal_appends_last_window),
            (20, 17)
        );
    }

    #[test]
    fn alerts_are_traced_and_counted() {
        let tel = Telemetry::new();
        let mut agg = aggregator();
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
            let mut agg = aggregator();
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
        let mut agg = aggregator();
        // Alternate stale / fresh reports to fire more alerts than the
        // ring holds.
        let alerts = RECENT_ALERTS as u64 + 6;
        for i in 0..alerts {
            let at = mins(i + 1);
            report(&tel, (i % 3) as u32, 1_000_000_000, 0, at);
            agg.tick(at, &tel);
            report(&tel, (i % 3) as u32, 0, 0, at);
            agg.tick(at, &tel);
        }
        let snap = agg.snapshot_at(mins(alerts + 1));
        assert_eq!(snap.alerts_total, alerts);
        assert_eq!(snap.recent_alerts.len(), RECENT_ALERTS);
        assert_eq!(snap.recent_alerts.last().map(|a| a.at), Some(mins(alerts)));
    }
}
