//! Grid monitoring service with propagation latency, staleness and loss.
//!
//! SPHINX's monitoring interface "provides a buffer between external
//! monitoring services (such as MDS, GEMS, VO-Ganglia, MonALISA and
//! Hawkeye) and the SPHINX scheduling system"; the experiments "use a
//! monitoring system based on the globus toolkit \[which\] uses query jobs
//! submitted to remote sites to gather information … typical parameters
//! being monitored include various job queue lengths such as those
//! provided by condor_q and pbs" (§3.4).
//!
//! The paper's central caveat is that extant monitoring is imperfect:
//! "the infancy of extant monitoring systems … result\[s\] in stale
//! information or lack of accuracy" (§2). [`Monitor`] models exactly those
//! imperfections over the ground truth the grid simulator exposes:
//!
//! * **Update period** — query jobs run every `update_period`, not
//!   continuously.
//! * **Propagation delay** — results take `propagation_delay` to reach the
//!   scheduler, so even a fresh report describes the past.
//! * **Loss** — a site's query job fails with probability `drop_prob`
//!   (and always when the site is down), leaving the previous — possibly
//!   very stale — report in place. A down site therefore keeps *looking*
//!   healthy until the scheduler learns otherwise through job feedback,
//!   which is precisely the failure mode the paper's feedback mechanism
//!   (and Figure 2) addresses.
//! * **Noise** — queue lengths are perturbed by a relative error drawn
//!   from `±noise`.

use serde::{Deserialize, Serialize};
use sphinx_data::SiteId;
use sphinx_grid::SiteSnapshot;
use sphinx_sim::{Duration, SimRng, SimTime};
use sphinx_telemetry::{Event, Telemetry, TraceKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Imperfection parameters of the monitoring system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// How often query jobs sample the sites.
    pub update_period: Duration,
    /// How long a sample takes to become visible to the scheduler.
    pub propagation_delay: Duration,
    /// Probability that one site's sample is lost in a given round.
    pub drop_prob: f64,
    /// Relative noise applied to queue/running counts (0 = exact).
    pub noise: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        // Grid3-era defaults: minutes-scale updates, seconds-scale
        // propagation, occasional losses, mild inaccuracy.
        MonitorConfig {
            update_period: Duration::from_mins(2),
            propagation_delay: Duration::from_secs(30),
            drop_prob: 0.05,
            noise: 0.1,
        }
    }
}

impl MonitorConfig {
    /// A perfect, instantaneous monitor (for ablations).
    pub fn perfect(update_period: Duration) -> Self {
        MonitorConfig {
            update_period,
            propagation_delay: Duration::ZERO,
            drop_prob: 0.0,
            noise: 0.0,
        }
    }
}

/// One site's monitored state, as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Which site.
    pub site: SiteId,
    /// CPU count (static, always accurate — it comes from the catalog).
    pub cpus: u32,
    /// Queue length as measured (possibly noisy).
    pub queued: usize,
    /// Running jobs as measured (possibly noisy).
    pub running: usize,
    /// When the underlying sample was taken.
    pub measured_at: SimTime,
}

impl Report {
    /// Age of this report at time `now`.
    pub fn age(&self, now: SimTime) -> Duration {
        now.since(self.measured_at)
    }
}

#[derive(Debug)]
struct PendingRound {
    visible_at: SimTime,
    reports: Vec<Report>,
}

/// The monitoring service.
#[derive(Debug)]
pub struct Monitor {
    config: MonitorConfig,
    visible: BTreeMap<SiteId, Report>,
    pending: Vec<PendingRound>,
    last_sample: Option<SimTime>,
    rounds: u64,
    samples_lost: u64,
    rng: SimRng,
    telemetry: Option<Arc<Telemetry>>,
}

impl Monitor {
    /// A monitor with the given imperfections, seeded deterministically.
    pub fn new(config: MonitorConfig, seed: u64) -> Self {
        Monitor {
            config,
            visible: BTreeMap::new(),
            pending: Vec::new(),
            last_sample: None,
            rounds: 0,
            samples_lost: 0,
            rng: SimRng::new(seed).derive("monitor"),
            telemetry: None,
        }
    }

    /// Attach a telemetry hub; sampling rounds and losses are counted and
    /// each round leaves a `monitor_sample` trace event.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The configuration in force.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// When the next sampling round is due (`ZERO` before the first).
    pub fn next_sample_due(&self) -> SimTime {
        match self.last_sample {
            None => SimTime::ZERO,
            Some(t) => t + self.config.update_period,
        }
    }

    /// Run one sampling round against ground truth. The caller (the
    /// runtime's monitor wakeup) decides the cadence; this method records
    /// the round unconditionally.
    ///
    /// Down sites and dropped samples leave the previous report in place.
    pub fn sample(&mut self, now: SimTime, truth: &[SiteSnapshot]) {
        self.rounds += 1;
        self.last_sample = Some(now);
        let mut reports = Vec::with_capacity(truth.len());
        let mut lost_this_round = 0u64;
        for snap in truth {
            if !snap.up || self.rng.chance(self.config.drop_prob) {
                self.samples_lost += 1;
                lost_this_round += 1;
                continue;
            }
            reports.push(Report {
                site: snap.site,
                cpus: snap.cpus,
                queued: self.perturb(snap.queued),
                running: self.perturb(snap.running),
                measured_at: now,
            });
        }
        if let Some(t) = &self.telemetry {
            t.counter_add("monitor.samples", reports.len() as u64);
            t.counter_add("monitor.samples_lost", lost_this_round);
            t.trace(
                TraceKind::MonitorSample,
                now,
                None,
                None,
                format!("sampled={} lost={}", reports.len(), lost_this_round),
            );
        }
        self.pending.push(PendingRound {
            visible_at: now + self.config.propagation_delay,
            reports,
        });
    }

    fn perturb(&mut self, value: usize) -> usize {
        if self.config.noise <= 0.0 || value == 0 {
            return value;
        }
        let f = self
            .rng
            .range_f64(1.0 - self.config.noise, 1.0 + self.config.noise);
        (value as f64 * f).round().max(0.0) as usize
    }

    /// Promote any rounds whose propagation delay has elapsed.
    fn promote(&mut self, now: SimTime) {
        // Rounds were pushed in time order; promote the due prefix.
        let mut promoted = 0;
        for round in &self.pending {
            if round.visible_at > now {
                break;
            }
            promoted += 1;
        }
        for round in self.pending.drain(..promoted) {
            for report in round.reports {
                self.visible.insert(report.site, report);
            }
        }
    }

    /// The report currently visible for one site, if any sample has ever
    /// arrived.
    pub fn report(&mut self, now: SimTime, site: SiteId) -> Option<Report> {
        self.promote(now);
        self.visible.get(&site).cloned()
    }

    /// All currently visible reports: what the planner reads. Each is
    /// recorded as an [`Event::SiteReport`] (staleness and queue-depth
    /// gauges, sample-age histogram), so every
    /// [`sphinx_telemetry::TelemetrySnapshot`] carries the staleness the
    /// scheduler was actually planning against — the imperfection §2 of
    /// the paper warns about, made visible.
    pub fn reports(&mut self, now: SimTime) -> Vec<Report> {
        self.promote(now);
        if let Some(t) = &self.telemetry {
            for report in self.visible.values() {
                let (site, age, queued) = (report.site, report.age(now), report.queued);
                t.record(now, Event::SiteReport { site, age, queued });
            }
        }
        self.visible.values().cloned().collect()
    }

    /// Sampling rounds performed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Individual site samples lost (down sites + dropped).
    pub fn samples_lost(&self) -> u64 {
        self.samples_lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(site: u32, queued: usize, running: usize, up: bool) -> SiteSnapshot {
        SiteSnapshot {
            site: SiteId(site),
            cpus: 10,
            queued,
            running,
            up,
        }
    }

    fn perfect() -> Monitor {
        Monitor::new(MonitorConfig::perfect(Duration::from_mins(1)), 1)
    }

    #[test]
    fn perfect_monitor_reports_truth_immediately() {
        let mut m = perfect();
        m.sample(SimTime::from_secs(10), &[snap(0, 3, 7, true)]);
        let r = m.report(SimTime::from_secs(10), SiteId(0)).unwrap();
        assert_eq!(r.queued, 3);
        assert_eq!(r.running, 7);
        assert_eq!(r.cpus, 10);
        assert_eq!(r.age(SimTime::from_secs(10)), Duration::ZERO);
    }

    #[test]
    fn propagation_delay_hides_fresh_data() {
        let config = MonitorConfig {
            propagation_delay: Duration::from_secs(30),
            drop_prob: 0.0,
            noise: 0.0,
            update_period: Duration::from_mins(1),
        };
        let mut m = Monitor::new(config, 1);
        m.sample(SimTime::from_secs(0), &[snap(0, 5, 0, true)]);
        assert!(m.report(SimTime::from_secs(10), SiteId(0)).is_none());
        let r = m.report(SimTime::from_secs(30), SiteId(0)).unwrap();
        assert_eq!(r.queued, 5);
        assert_eq!(r.measured_at, SimTime::ZERO);
        // At query time the report is already 30 s old.
        assert_eq!(r.age(SimTime::from_secs(30)), Duration::from_secs(30));
    }

    #[test]
    fn down_site_keeps_stale_report() {
        let mut m = perfect();
        m.sample(SimTime::from_secs(0), &[snap(0, 2, 1, true)]);
        // Site crashes; the next two rounds get nothing from it.
        m.sample(SimTime::from_secs(60), &[snap(0, 0, 0, false)]);
        m.sample(SimTime::from_secs(120), &[snap(0, 0, 0, false)]);
        let r = m.report(SimTime::from_secs(120), SiteId(0)).unwrap();
        // Still the old healthy-looking numbers.
        assert_eq!(r.queued, 2);
        assert_eq!(r.measured_at, SimTime::ZERO);
        assert_eq!(r.age(SimTime::from_secs(120)), Duration::from_secs(120));
        assert_eq!(m.samples_lost(), 2);
    }

    #[test]
    fn drop_prob_one_never_updates() {
        let config = MonitorConfig {
            drop_prob: 1.0,
            ..MonitorConfig::perfect(Duration::from_mins(1))
        };
        let mut m = Monitor::new(config, 5);
        m.sample(SimTime::from_secs(0), &[snap(0, 9, 9, true)]);
        assert!(m.report(SimTime::from_secs(60), SiteId(0)).is_none());
        assert_eq!(m.samples_lost(), 1);
    }

    #[test]
    fn noise_perturbs_but_stays_reasonable() {
        let config = MonitorConfig {
            noise: 0.5,
            ..MonitorConfig::perfect(Duration::from_mins(1))
        };
        let mut m = Monitor::new(config, 7);
        let mut saw_different = false;
        for i in 0..50 {
            let t = SimTime::from_secs(i * 60);
            m.sample(t, &[snap(0, 100, 0, true)]);
            let r = m.report(t, SiteId(0)).unwrap();
            assert!((50..=150).contains(&r.queued), "noisy value {}", r.queued);
            if r.queued != 100 {
                saw_different = true;
            }
        }
        assert!(saw_different, "noise should actually perturb");
    }

    #[test]
    fn newer_round_replaces_older() {
        let mut m = perfect();
        m.sample(SimTime::from_secs(0), &[snap(0, 1, 0, true)]);
        m.sample(SimTime::from_secs(60), &[snap(0, 8, 0, true)]);
        let r = m.report(SimTime::from_secs(60), SiteId(0)).unwrap();
        assert_eq!(r.queued, 8);
        assert_eq!(m.rounds(), 2);
    }

    #[test]
    fn reports_lists_all_sites() {
        let mut m = perfect();
        m.sample(
            SimTime::from_secs(0),
            &[
                snap(0, 1, 0, true),
                snap(1, 2, 0, true),
                snap(2, 0, 0, false),
            ],
        );
        let rs = m.reports(SimTime::from_secs(0));
        assert_eq!(rs.len(), 2, "down site has no report yet");
    }

    #[test]
    fn next_sample_due_follows_period() {
        let mut m = perfect();
        assert_eq!(m.next_sample_due(), SimTime::ZERO);
        m.sample(SimTime::from_secs(30), &[]);
        assert_eq!(m.next_sample_due(), SimTime::from_secs(90));
    }

    #[test]
    fn telemetry_counts_samples_and_losses() {
        let tel = Telemetry::shared();
        let mut m = perfect();
        m.set_telemetry(Arc::clone(&tel));
        m.sample(
            SimTime::ZERO,
            &[
                snap(0, 1, 0, true),
                snap(1, 2, 0, true),
                snap(2, 0, 0, false),
            ],
        );
        assert_eq!(tel.counter("monitor.samples"), 2);
        assert_eq!(tel.counter("monitor.samples_lost"), 1);
        assert_eq!(
            tel.trace_events().len(),
            1,
            "one monitor_sample trace per round"
        );
    }

    #[test]
    fn reports_publishes_staleness_and_queue_depth_gauges() {
        let tel = Telemetry::shared();
        let mut m = perfect();
        m.set_telemetry(Arc::clone(&tel));
        m.sample(SimTime::ZERO, &[snap(0, 4, 1, true), snap(1, 2, 0, true)]);
        m.reports(SimTime::from_secs(90));
        let gauge = |family: &str| tel.snapshot().site_gauges[family][&0];
        assert_eq!(gauge("monitor.staleness"), 90_000.0);
        assert_eq!(gauge("monitor.queue_depth"), 4.0);
        // A lost sample leaves the old report in place; staleness grows.
        m.sample(SimTime::from_secs(120), &[snap(0, 0, 0, false)]);
        m.reports(SimTime::from_secs(180));
        assert_eq!(
            gauge("monitor.staleness"),
            180_000.0,
            "down site's visible report keeps ageing"
        );
        let snap = tel.snapshot();
        assert_eq!(snap.site_gauges["monitor.staleness"].len(), 2);
        // Each report read is also one sample-age observation.
        assert_eq!(snap.histograms["monitor.sample_age_ms"].count, 4);
    }

    #[test]
    fn zero_counts_unaffected_by_noise() {
        let config = MonitorConfig {
            noise: 0.9,
            ..MonitorConfig::perfect(Duration::from_mins(1))
        };
        let mut m = Monitor::new(config, 3);
        m.sample(SimTime::ZERO, &[snap(0, 0, 0, true)]);
        let r = m.report(SimTime::ZERO, SiteId(0)).unwrap();
        assert_eq!(r.queued, 0);
    }
}
