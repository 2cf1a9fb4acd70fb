//! The feedback ledger: per-site reliability from tracker reports.
//!
//! "The feedback provides execution status information of previously
//! submitted jobs on grid sites. The scheduling algorithms can utilize
//! this information to determine a set of reliable sites … Sites having
//! more number of cancelled jobs than completed jobs are marked
//! unreliable" (§4). The server "may use [tracker reports] to calculate
//! \[a\] reliability index for the remote sites" (§3.3).
//!
//! Two refinements over the paper's one-line rule make the index usable
//! on a *dynamic* grid (both documented in DESIGN.md):
//!
//! * **Recency window.** The cancelled-vs-completed comparison runs over
//!   the most recent [`ReliabilityConfig::window`] reports per site, not
//!   lifetime counts — a site that completed 500 jobs last hour and then
//!   died would otherwise need 501 timeouts before being flagged.
//! * **Probation.** A flagged site becomes eligible again
//!   [`ReliabilityConfig::probation`] after its last cancellation, so a
//!   repaired site can re-earn trust (and a black hole that keeps failing
//!   keeps getting re-flagged by its probation jobs).

use sphinx_data::SiteId;
use sphinx_sim::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Tuning of the reliability index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Number of most-recent reports per site the verdict considers.
    pub window: usize,
    /// How long a flagged site stays excluded after its last
    /// cancellation.
    pub probation: Duration,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            window: 20,
            probation: Duration::from_mins(120),
        }
    }
}

/// Lifetime counters for one site (reporting; the verdict uses the
/// window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteRecord {
    /// Tracker-confirmed completions.
    pub completed: u64,
    /// Cancellations (held, killed, timed out).
    pub cancelled: u64,
}

#[derive(Debug, Clone, Default)]
struct SiteHistory {
    lifetime: SiteRecord,
    /// Recent outcomes: `true` = completed.
    recent: VecDeque<bool>,
    /// Completions in `recent`, kept as outcomes enter and leave it, so a
    /// verdict does not rescan the window.
    recent_completed: usize,
    last_cancelled: Option<SimTime>,
    /// Live ops fast-path: the site is held unreliable until this time
    /// (or until a completion clears it), regardless of the window
    /// verdict. Set by [`Reliability::ops_flag`].
    ops_flag_until: Option<SimTime>,
}

/// How one recorded outcome changed a site's reliability verdict (for
/// telemetry: flag/unflag trace events fire exactly on the edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagTransition {
    /// The verdict did not change.
    Unchanged,
    /// The site just crossed from reliable to flagged.
    Flagged,
    /// The site just crossed from flagged back to reliable.
    Unflagged,
}

/// The reliability index over all sites.
#[derive(Debug, Clone)]
pub struct Reliability {
    config: ReliabilityConfig,
    sites: BTreeMap<SiteId, SiteHistory>,
}

impl Default for Reliability {
    fn default() -> Self {
        Reliability::new()
    }
}

impl Reliability {
    /// All sites start reliable (no evidence against them).
    pub fn new() -> Self {
        Reliability::with_config(ReliabilityConfig::default())
    }

    /// Custom window/probation.
    pub fn with_config(config: ReliabilityConfig) -> Self {
        Reliability {
            config,
            sites: BTreeMap::new(),
        }
    }

    fn push_outcome(&mut self, site: SiteId, completed: bool) {
        let window = self.config.window;
        let h = self.sites.entry(site).or_default();
        h.recent.push_back(completed);
        h.recent_completed += usize::from(completed);
        while h.recent.len() > window {
            if h.recent.pop_front() == Some(true) {
                h.recent_completed -= 1;
            }
        }
    }

    /// Record a completion at a site. Completions are ground truth that
    /// the site executes work, so they also clear any live-ops flag.
    pub fn record_completed(&mut self, site: SiteId) {
        let h = self.sites.entry(site).or_default();
        h.lifetime.completed += 1;
        h.ops_flag_until = None;
        self.push_outcome(site, true);
    }

    /// Record a cancellation at a site.
    pub fn record_cancelled(&mut self, site: SiteId, now: SimTime) {
        {
            let h = self.sites.entry(site).or_default();
            h.lifetime.cancelled += 1;
            h.last_cancelled = Some(now);
        }
        self.push_outcome(site, false);
    }

    /// Like [`Reliability::record_completed`], but reports whether the
    /// verdict at `now` crossed an edge.
    pub fn record_completed_at(&mut self, site: SiteId, now: SimTime) -> FlagTransition {
        let before = self.is_reliable(site, now);
        self.record_completed(site);
        Self::transition(before, self.is_reliable(site, now))
    }

    /// Like [`Reliability::record_cancelled`], but reports whether the
    /// verdict at `now` crossed an edge.
    pub fn record_cancelled_at(&mut self, site: SiteId, now: SimTime) -> FlagTransition {
        let before = self.is_reliable(site, now);
        self.record_cancelled(site, now);
        Self::transition(before, self.is_reliable(site, now))
    }

    /// Live ops fast-path: flag `site` unreliable *now*, ahead of the
    /// tracker-report evidence the window verdict needs. The flag holds
    /// for one probation period (then the site gets another chance, like
    /// a window-flagged site) and is cleared immediately by any
    /// completion — a black-hole alert on a site that is actually
    /// finishing jobs must not starve it. Returns the verdict edge so
    /// the caller can emit the same flag telemetry as the post-hoc path.
    pub fn ops_flag(&mut self, site: SiteId, now: SimTime) -> FlagTransition {
        let before = self.is_reliable(site, now);
        let until = now.saturating_add(self.config.probation);
        self.sites.entry(site).or_default().ops_flag_until = Some(until);
        Self::transition(before, self.is_reliable(site, now))
    }

    fn transition(before: bool, after: bool) -> FlagTransition {
        match (before, after) {
            (true, false) => FlagTransition::Flagged,
            (false, true) => FlagTransition::Unflagged,
            _ => FlagTransition::Unchanged,
        }
    }

    /// Restore persisted lifetime counters (recovery path). The recency
    /// window restarts empty — after a server crash the only safe
    /// assumption is "no recent evidence".
    pub fn restore(&mut self, site: SiteId, completed: u64, cancelled: u64) {
        let h = self.sites.entry(site).or_default();
        h.lifetime = SiteRecord {
            completed,
            cancelled,
        };
    }

    /// Lifetime record for one site (zeros if never seen).
    pub fn record(&self, site: SiteId) -> SiteRecord {
        self.sites
            .get(&site)
            .map(|h| h.lifetime)
            .unwrap_or_default()
    }

    /// The paper's availability indicator `A_i`, evaluated over the
    /// recency window, with probation-based re-admission.
    pub fn is_reliable(&self, site: SiteId, now: SimTime) -> bool {
        let Some(h) = self.sites.get(&site) else {
            return true;
        };
        if let Some(until) = h.ops_flag_until {
            if now < until {
                return false;
            }
        }
        let completed = h.recent_completed;
        let cancelled = h.recent.len() - completed;
        if cancelled <= completed {
            return true;
        }
        // Flagged — but let it back in once probation has elapsed.
        match h.last_cancelled {
            Some(t) => now.since(t) >= self.config.probation,
            None => true,
        }
    }

    /// Filter a site list down to reliable ones. If *every* site has been
    /// flagged unreliable the full list is returned instead — the
    /// scheduler must keep trying somewhere.
    pub fn reliable_subset(&self, sites: &[SiteId], now: SimTime) -> Vec<SiteId> {
        let reliable: Vec<SiteId> = sites
            .iter()
            .copied()
            .filter(|&s| self.is_reliable(s, now))
            .collect();
        if reliable.is_empty() {
            sites.to_vec()
        } else {
            reliable
        }
    }

    /// In-place [`Reliability::reliable_subset`]: retain only reliable
    /// sites, unless *every* site has been flagged — then the list is left
    /// untouched (the scheduler must keep trying somewhere). Used by the
    /// planner's scratch buffer to avoid a per-job allocation.
    pub fn retain_reliable(&self, sites: &mut Vec<SiteId>, now: SimTime) {
        if sites.iter().any(|&s| self.is_reliable(s, now)) {
            sites.retain(|&s| self.is_reliable(s, now));
        }
    }

    /// Total cancellations across all sites (lifetime).
    pub fn total_cancelled(&self) -> u64 {
        self.sites.values().map(|h| h.lifetime.cancelled).sum()
    }

    /// Total completions across all sites (lifetime).
    pub fn total_completed(&self) -> u64 {
        self.sites.values().map(|h| h.lifetime.completed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The verdict as it was before the window kept a running count: the
    /// window rescanned on every call. The oracle `is_reliable` is held to.
    fn rescanned(r: &Reliability, site: SiteId, now: SimTime) -> bool {
        let Some(h) = r.sites.get(&site) else {
            return true;
        };
        if h.ops_flag_until.is_some_and(|until| now < until) {
            return false;
        }
        let completed = h.recent.iter().filter(|&&c| c).count();
        if h.recent.len() - completed <= completed {
            return true;
        }
        h.last_cancelled
            .is_none_or(|t| now.since(t) >= r.config.probation)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]
        #[test]
        fn running_count_verdicts_equal_the_rescanning_oracle(
            window in 0usize..6,
            ops in proptest::collection::vec((0u8..5, 0u32..3, 0u64..40), 1..200),
        ) {
            let probation = Duration::from_mins(30);
            let mut r = Reliability::with_config(ReliabilityConfig { window, probation });
            let mut clock = 0;
            for (op, site, dt) in ops {
                clock += dt;
                let (site, now) = (SiteId(site), at(clock));
                let before = rescanned(&r, site, now);
                let edge = match op {
                    0 => r.record_completed_at(site, now),
                    1 => r.record_cancelled_at(site, now),
                    2 => r.ops_flag(site, now),
                    3 => {
                        r.restore(site, dt, clock);
                        FlagTransition::Unchanged
                    }
                    // A verdict at a later time, unrecorded.
                    _ => {
                        let later = at(clock + dt);
                        prop_assert_eq!(r.is_reliable(site, later), rescanned(&r, site, later));
                        continue;
                    }
                };
                let after = rescanned(&r, site, now);
                if op != 3 {
                    prop_assert_eq!(edge, Reliability::transition(before, after));
                }
                for s in (0..3).map(SiteId) {
                    prop_assert_eq!(r.is_reliable(s, now), rescanned(&r, s, now));
                }
            }
        }
    }

    const T0: SimTime = SimTime::ZERO;

    fn at(mins: u64) -> SimTime {
        SimTime::from_secs(mins * 60)
    }

    #[test]
    fn fresh_sites_are_reliable() {
        let r = Reliability::new();
        assert!(r.is_reliable(SiteId(0), T0));
        assert_eq!(r.record(SiteId(0)), SiteRecord::default());
    }

    #[test]
    fn more_cancelled_than_completed_flags_unreliable() {
        let mut r = Reliability::new();
        r.record_cancelled(SiteId(1), T0);
        assert!(!r.is_reliable(SiteId(1), T0));
        r.record_completed(SiteId(1));
        // Tied: benefit of the doubt per the paper's strict "more than".
        assert!(r.is_reliable(SiteId(1), T0));
        r.record_cancelled(SiteId(1), T0);
        assert!(!r.is_reliable(SiteId(1), T0));
    }

    #[test]
    fn window_forgets_ancient_glory() {
        // A site with 100 historic completions that then dies should be
        // flagged after a handful of recent failures, not 101.
        let mut r = Reliability::with_config(ReliabilityConfig {
            window: 10,
            probation: Duration::from_mins(45),
        });
        for _ in 0..100 {
            r.record_completed(SiteId(0));
        }
        for _ in 0..6 {
            r.record_cancelled(SiteId(0), at(1));
        }
        // Window of 10 now holds 4 completions + 6 cancellations.
        assert!(!r.is_reliable(SiteId(0), at(2)));
        assert_eq!(r.record(SiteId(0)).completed, 100, "lifetime intact");
    }

    #[test]
    fn probation_readmits_after_quiet_period() {
        let mut r = Reliability::with_config(ReliabilityConfig {
            window: 10,
            probation: Duration::from_mins(30),
        });
        for _ in 0..3 {
            r.record_cancelled(SiteId(0), at(0));
        }
        assert!(!r.is_reliable(SiteId(0), at(10)));
        // 30 minutes after the last cancellation the site gets another
        // chance.
        assert!(r.is_reliable(SiteId(0), at(30)));
        // If the probation job fails too, it is flagged again.
        r.record_cancelled(SiteId(0), at(31));
        assert!(!r.is_reliable(SiteId(0), at(40)));
    }

    #[test]
    fn recovery_after_repair_via_completions() {
        let mut r = Reliability::with_config(ReliabilityConfig {
            window: 6,
            probation: Duration::from_mins(30),
        });
        for _ in 0..4 {
            r.record_cancelled(SiteId(0), at(0));
        }
        assert!(!r.is_reliable(SiteId(0), at(1)));
        // Probation jobs succeed: window refills with completions.
        for _ in 0..4 {
            r.record_completed(SiteId(0));
        }
        assert!(r.is_reliable(SiteId(0), at(1)));
    }

    #[test]
    fn subset_filters_but_never_empties() {
        let mut r = Reliability::new();
        r.record_cancelled(SiteId(0), T0);
        let sites = [SiteId(0), SiteId(1)];
        assert_eq!(r.reliable_subset(&sites, T0), vec![SiteId(1)]);
        r.record_cancelled(SiteId(1), T0);
        // Everything flagged: fall back to the full list.
        assert_eq!(r.reliable_subset(&sites, T0), vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn retain_matches_subset_including_all_flagged_fallback() {
        let mut r = Reliability::new();
        r.record_cancelled(SiteId(0), T0);
        let sites = vec![SiteId(0), SiteId(1), SiteId(2)];
        let mut retained = sites.clone();
        r.retain_reliable(&mut retained, T0);
        assert_eq!(retained, r.reliable_subset(&sites, T0));
        r.record_cancelled(SiteId(1), T0);
        r.record_cancelled(SiteId(2), T0);
        let mut retained = sites.clone();
        r.retain_reliable(&mut retained, T0);
        assert_eq!(retained, r.reliable_subset(&sites, T0));
        assert_eq!(retained, sites, "all flagged: list left untouched");
    }

    #[test]
    fn totals_aggregate() {
        let mut r = Reliability::new();
        r.record_completed(SiteId(0));
        r.record_completed(SiteId(1));
        r.record_cancelled(SiteId(2), T0);
        assert_eq!(r.total_completed(), 2);
        assert_eq!(r.total_cancelled(), 1);
    }

    #[test]
    fn flag_transitions_fire_on_edges_only() {
        let mut r = Reliability::new();
        // First cancellation: 1 cancelled > 0 completed → edge.
        assert_eq!(
            r.record_cancelled_at(SiteId(0), T0),
            FlagTransition::Flagged
        );
        // Second cancellation: already flagged → no edge.
        assert_eq!(
            r.record_cancelled_at(SiteId(0), T0),
            FlagTransition::Unchanged
        );
        // Two completions: 2:2 tie → reliable again; the edge fires on
        // the crossing one only.
        assert_eq!(
            r.record_completed_at(SiteId(0), T0),
            FlagTransition::Unchanged
        );
        assert_eq!(
            r.record_completed_at(SiteId(0), T0),
            FlagTransition::Unflagged
        );
        assert_eq!(
            r.record_completed_at(SiteId(0), T0),
            FlagTransition::Unchanged
        );
    }

    #[test]
    fn ops_flag_excludes_until_probation_or_completion() {
        let mut r = Reliability::with_config(ReliabilityConfig {
            window: 10,
            probation: Duration::from_mins(30),
        });
        // Fresh site, flagged online before any tracker evidence exists.
        assert_eq!(r.ops_flag(SiteId(0), at(10)), FlagTransition::Flagged);
        assert!(!r.is_reliable(SiteId(0), at(10)));
        // Re-flagging an already-flagged site is not an edge.
        assert_eq!(r.ops_flag(SiteId(0), at(11)), FlagTransition::Unchanged);
        // Still excluded inside probation, readmitted after it.
        assert!(!r.is_reliable(SiteId(0), at(39)));
        assert!(r.is_reliable(SiteId(0), at(41)));
        // A completion clears the flag immediately.
        assert_eq!(r.ops_flag(SiteId(1), at(0)), FlagTransition::Flagged);
        assert_eq!(
            r.record_completed_at(SiteId(1), at(5)),
            FlagTransition::Unflagged
        );
        assert!(r.is_reliable(SiteId(1), at(5)));
    }

    #[test]
    fn ops_flag_respects_filtering_helpers() {
        let mut r = Reliability::new();
        r.ops_flag(SiteId(0), T0);
        let sites = [SiteId(0), SiteId(1)];
        assert_eq!(r.reliable_subset(&sites, T0), vec![SiteId(1)]);
        let mut retained = sites.to_vec();
        r.retain_reliable(&mut retained, T0);
        assert_eq!(retained, vec![SiteId(1)]);
    }

    #[test]
    fn restore_keeps_lifetime_but_resets_window() {
        let mut r = Reliability::new();
        r.restore(SiteId(5), 10, 12);
        assert_eq!(
            r.record(SiteId(5)),
            SiteRecord {
                completed: 10,
                cancelled: 12
            }
        );
        // No recent evidence: the site is given the benefit of the doubt.
        assert!(r.is_reliable(SiteId(5), T0));
    }
}
