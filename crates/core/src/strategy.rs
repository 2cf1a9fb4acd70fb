//! The §4.1 scheduling algorithms.
//!
//! Each strategy picks an execution site for one ready job from a
//! candidate list that has already been filtered by policy constraints
//! (eq. 4) and — when feedback is enabled — by the reliability index. The
//! strategies differ only in the signal they rank sites by:
//!
//! | Strategy | Signal | Paper |
//! |---|---|---|
//! | [`StrategyKind::RoundRobin`] | catalog order | "submits jobs in the order of sites in a given list" |
//! | [`StrategyKind::NumCpus`] | eq. 1: `(planned + unfinished) / cpus` from SPHINX-local bookkeeping | static-ish |
//! | [`StrategyKind::QueueLength`] | eq. 2: `(queued + running + planned) / cpus` from the (stale) monitor | dynamic |
//! | [`StrategyKind::CompletionTime`] | eq. 3: min normalised `Avg_comp` with round-robin until samples exist | hybrid |

use crate::prediction::Prediction;
use serde::{Deserialize, Serialize};
use sphinx_data::SiteId;
use sphinx_monitor::Report;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// Static information about a site, from the grid catalog.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteInfo {
    /// Identity.
    pub id: SiteId,
    /// Name (for reporting).
    pub name: String,
    /// CPU count (the only static signal the paper's strategies use).
    pub cpus: u32,
}

/// Which §4.1 algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Cycle through the site list.
    RoundRobin,
    /// Eq. 1: least outstanding-per-CPU (SPHINX-local bookkeeping only).
    NumCpus,
    /// Eq. 2: least (monitored queue + running + planned) per CPU.
    QueueLength,
    /// Eq. 3: least average completion time; round-robin until every
    /// candidate has at least one sample.
    CompletionTime,
}

impl StrategyKind {
    /// All four, in the order the paper's figures list them.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::CompletionTime,
        StrategyKind::QueueLength,
        StrategyKind::NumCpus,
        StrategyKind::RoundRobin,
    ];

    /// Label used in figures and reports.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::RoundRobin => "round-robin",
            StrategyKind::NumCpus => "num-cpus",
            StrategyKind::QueueLength => "queue-length",
            StrategyKind::CompletionTime => "completion-time",
        }
    }

    /// Whether the paper always pairs this strategy with feedback
    /// (queue-length and completion-time "utilize the feedback
    /// information" by construction).
    pub fn implies_feedback(self) -> bool {
        matches!(
            self,
            StrategyKind::QueueLength | StrategyKind::CompletionTime
        )
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything a strategy may look at when placing one job.
#[derive(Debug)]
pub struct PlanningView<'a> {
    /// Full site catalog, in list order (round-robin order).
    pub catalog: &'a [SiteInfo],
    /// Feasible candidates (already policy- and feedback-filtered),
    /// subset of the catalog.
    pub candidates: &'a [SiteId],
    /// SPHINX-local bookkeeping: jobs planned/submitted/queued/running per
    /// site and not yet finished (eq. 1/2's `planned + unfinished`).
    pub outstanding: &'a BTreeMap<SiteId, u64>,
    /// Latest visible monitoring reports (eq. 2's queue lengths).
    pub reports: &'a BTreeMap<SiteId, Report>,
    /// Completion-time statistics (eq. 3's `Avg_comp`).
    pub prediction: &'a Prediction,
}

impl<'a> PlanningView<'a> {
    fn cpus_of(&self, site: SiteId) -> u32 {
        self.catalog
            .iter()
            .find(|s| s.id == site)
            .map_or(1, |s| s.cpus.max(1))
    }

    fn outstanding_of(&self, site: SiteId) -> u64 {
        self.outstanding.get(&site).copied().unwrap_or(0)
    }
}

/// Mutable per-run strategy state (the round-robin cursor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyState {
    cursor: usize,
}

impl StrategyState {
    /// Fresh state (cursor at the head of the list).
    pub fn new() -> Self {
        StrategyState::default()
    }
}

/// `f64` with a total order (via [`f64::total_cmp`]) so scores can live in
/// a [`BinaryHeap`]. Scores here are never NaN, so the total order agrees
/// with the strategies' `<` comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Amortized per-cycle site-ranking cache — the planner hot path.
///
/// [`StrategyKind::choose`] rescores every candidate for every ready job,
/// making one plan cycle O(jobs × sites × catalog-scan). During the plan
/// phase of a single cycle the only scoring input that changes is
/// `outstanding`, and it only grows (tracker reports are drained before
/// planning), so every strategy's score for a site is non-decreasing
/// within the phase. That makes a lazy min-heap exact: pop the stored
/// minimum, recompute that one site's live score, and either confirm it
/// (still minimal — scores elsewhere can only have risen) or reinsert it
/// with the higher score and pop again. Ties break on heap position,
/// which is candidate order, reproducing `argmin`'s stable
/// first-minimum-wins rule bit for bit.
///
/// The cache is keyed on (strategy, candidate list): a job whose
/// policy/feedback/fast-lane filtering yields a different candidate list
/// rebuilds it (a miss); identical lists reuse it (a hit). It must be
/// invalidated with [`ScoreCache::begin_cycle`] at every cycle start —
/// between cycles `outstanding` may shrink and monitor/prediction data
/// move, which would break the monotonicity argument.
#[derive(Debug, Default)]
pub struct ScoreCache {
    /// Strategy + candidate list the cached structures were built for.
    strategy: Option<StrategyKind>,
    key: Vec<SiteId>,
    /// CPU counts by site (replaces the per-score linear catalog scan).
    cpus: BTreeMap<SiteId, f64>,
    /// Lazy min-heap of (stored score, position in `ranked`).
    heap: BinaryHeap<Reverse<(OrdF64, usize)>>,
    /// The sites the heap ranks, in candidate order (for completion-time
    /// this is the sampled subset; for eq. 1/2 it is all candidates).
    ranked: Vec<SiteId>,
    /// Completion-time probe set: unsampled sites with nothing in flight.
    /// Shrinks monotonically within a cycle as probes are placed.
    probeable: Vec<SiteId>,
    /// Candidate membership for O(log n) round-robin `contains`.
    members: BTreeSet<SiteId>,
    hits: u64,
    misses: u64,
}

impl ScoreCache {
    /// An empty (invalid) cache.
    pub fn new() -> Self {
        ScoreCache::default()
    }

    /// Invalidate at the start of every plan cycle: the monotonicity
    /// argument that makes the lazy heap exact only holds within one
    /// plan phase.
    pub fn begin_cycle(&mut self) {
        self.strategy = None;
        self.key.clear();
    }

    /// Drain the (hits, misses) counters accumulated since the last call.
    pub fn take_counters(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }

    fn cpus_f(&self, site: SiteId) -> f64 {
        self.cpus.get(&site).copied().unwrap_or(1.0)
    }

    fn rebuild(&mut self, strategy: StrategyKind, view: &PlanningView<'_>) {
        self.misses += 1;
        self.strategy = Some(strategy);
        self.key.clear();
        self.key.extend_from_slice(view.candidates);
        self.cpus.clear();
        for s in view.catalog {
            self.cpus.insert(s.id, s.cpus.max(1) as f64);
        }
        self.members.clear();
        self.members.extend(view.candidates.iter().copied());
        self.heap.clear();
        self.ranked.clear();
        self.probeable.clear();
        match strategy {
            StrategyKind::RoundRobin => {}
            StrategyKind::NumCpus | StrategyKind::QueueLength => {
                self.ranked.extend_from_slice(view.candidates);
            }
            StrategyKind::CompletionTime => {
                for &s in view.candidates {
                    let (samples, _) = view.prediction.stats(s);
                    if samples > 0 {
                        self.ranked.push(s);
                    } else if view.outstanding_of(s) == 0 {
                        self.probeable.push(s);
                    }
                }
            }
        }
        let ranked = std::mem::take(&mut self.ranked);
        for (pos, &site) in ranked.iter().enumerate() {
            let score = strategy.score(view, self.cpus_f(site), site);
            self.heap.push(Reverse((OrdF64(score), pos)));
        }
        self.ranked = ranked;
    }

    /// Pop the true current minimum (lazy validation, see type docs). The
    /// winning entry is pushed back so the next job still sees every site.
    /// `None` only if the heap is empty (callers guarantee it is not).
    fn pop_min(&mut self, strategy: StrategyKind, view: &PlanningView<'_>) -> Option<SiteId> {
        loop {
            let Reverse((stored, pos)) = self.heap.pop()?;
            let site = *self.ranked.get(pos)?;
            let current = strategy.score(view, self.cpus_f(site), site);
            if current.total_cmp(&stored.0).is_eq() {
                self.heap.push(Reverse((stored, pos)));
                return Some(site);
            }
            self.heap.push(Reverse((OrdF64(current), pos)));
        }
    }
}

impl StrategyKind {
    /// The scalar this strategy minimises for one site — exactly the
    /// expressions [`StrategyKind::choose`] evaluates inline, so cached
    /// and uncached paths compute bit-identical floats. `cpus` is the
    /// site's (max(1)-clamped) CPU count, pre-resolved by the cache.
    fn score(self, view: &PlanningView<'_>, cpus: f64, site: SiteId) -> f64 {
        match self {
            StrategyKind::RoundRobin => 0.0,
            StrategyKind::NumCpus => view.outstanding_of(site) as f64 / cpus,
            StrategyKind::QueueLength => {
                let (queued, running) = view
                    .reports
                    .get(&site)
                    .map(|r| (r.queued, r.running))
                    .unwrap_or((0, 0));
                (queued as f64 + running as f64 + view.outstanding_of(site) as f64) / cpus
            }
            StrategyKind::CompletionTime => {
                let avg = view.prediction.average(site).unwrap_or(f64::INFINITY);
                let pressure = view.outstanding_of(site) as f64 / cpus;
                avg * (1.0 + pressure)
            }
        }
    }

    /// [`StrategyKind::choose`] through the [`ScoreCache`]: identical
    /// decisions (same site for the same inputs, including tie-breaks and
    /// round-robin cursor motion), amortized O(log sites) per job instead
    /// of O(sites × catalog).
    // sphinx-hot
    pub fn choose_cached(
        self,
        view: &PlanningView<'_>,
        state: &mut StrategyState,
        cache: &mut ScoreCache,
    ) -> Option<SiteId> {
        if view.candidates.is_empty() {
            return None;
        }
        if cache.strategy == Some(self) && cache.key.as_slice() == view.candidates {
            cache.hits += 1;
        } else {
            cache.rebuild(self, view);
        }
        match self {
            StrategyKind::RoundRobin => {
                round_robin_set(view, state, &cache.members, view.candidates)
            }
            StrategyKind::NumCpus | StrategyKind::QueueLength => cache.pop_min(self, view),
            StrategyKind::CompletionTime => {
                if cache.ranked.is_empty() {
                    // Bootstrap: no completion-time information anywhere.
                    return round_robin_set(view, state, &cache.members, view.candidates);
                }
                // `outstanding` only grows within the cycle, so dropping
                // newly busy sites lazily keeps this list equal to a fresh
                // recomputation (in candidate order).
                cache.probeable.retain(|&s| view.outstanding_of(s) == 0);
                if !cache.probeable.is_empty() {
                    let probeable = std::mem::take(&mut cache.probeable);
                    let pick = round_robin(view, state, &probeable);
                    cache.probeable = probeable;
                    return Some(pick);
                }
                cache.pop_min(self, view)
            }
        }
    }
}

impl StrategyKind {
    /// Choose a site for one job by rescoring every candidate — the
    /// readable statement of eq. 1-3. `None` only when `candidates` is
    /// empty. Production places jobs through [`StrategyKind::choose_cached`];
    /// this is the reference it is checked against (a debug assertion on
    /// every placement, the proptests in `tests/planner_equivalence.rs`),
    /// so its two candidate lists are allocations no release build makes.
    pub fn choose(self, view: &PlanningView<'_>, state: &mut StrategyState) -> Option<SiteId> {
        if view.candidates.is_empty() {
            return None;
        }
        match self {
            StrategyKind::RoundRobin => Some(round_robin(view, state, view.candidates)),
            StrategyKind::NumCpus => Some(argmin(view.candidates, |&s| {
                view.outstanding_of(s) as f64 / view.cpus_of(s) as f64
            })),
            StrategyKind::QueueLength => Some(argmin(view.candidates, |&s| {
                let (queued, running) = view
                    .reports
                    .get(&s)
                    .map(|r| (r.queued, r.running))
                    .unwrap_or((0, 0));
                (queued as f64 + running as f64 + view.outstanding_of(s) as f64)
                    / view.cpus_of(s) as f64
            })),
            StrategyKind::CompletionTime => {
                // Hybrid (eq. 3): "SPHINX schedules jobs on [a] round robin
                // technique until it has [completion-time] information for
                // the remote sites", then exploits the minimum average.
                let sampled: Vec<SiteId> = view
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&s| view.prediction.samples(s) > 0)
                    .collect(); // sphinx-lint: allow(hot-alloc)
                if sampled.is_empty() {
                    // Bootstrap: no information anywhere yet.
                    return Some(round_robin(view, state, view.candidates));
                }
                // Probe unknown sites — but at most one in-flight probe
                // per site, so a site that never answers (black hole,
                // dead gatekeeper) absorbs one job per probation window,
                // not a whole wave of ready jobs.
                let probeable: Vec<SiteId> = view
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&s| view.prediction.samples(s) == 0 && view.outstanding_of(s) == 0)
                    .collect(); // sphinx-lint: allow(hot-alloc)
                if !probeable.is_empty() {
                    return Some(round_robin(view, state, &probeable));
                }
                // The prediction module estimates what a NEW request would
                // experience: the historical average, corrected for the
                // load SPHINX itself has already directed at the site and
                // that the history cannot reflect yet. Without the
                // correction every ready wave herds onto the single
                // fastest site and saturates it.
                Some(argmin(&sampled, |&s| {
                    let avg = view.prediction.average(s).unwrap_or(f64::INFINITY);
                    let pressure = view.outstanding_of(s) as f64 / view.cpus_of(s) as f64;
                    avg * (1.0 + pressure)
                }))
            }
        }
    }
}

/// First candidate at or after the cursor, in catalog order.
fn round_robin(view: &PlanningView<'_>, state: &mut StrategyState, from: &[SiteId]) -> SiteId {
    let n = view.catalog.len().max(1);
    for step in 0..n {
        let idx = (state.cursor + step) % n;
        let site = view.catalog[idx].id;
        if from.contains(&site) {
            state.cursor = (idx + 1) % n;
            return site;
        }
    }
    // `from` is non-empty but contains sites outside the catalog — fall
    // back to its head rather than panic.
    from[0]
}

/// [`round_robin`] with a pre-built membership set instead of a linear
/// `contains` scan per catalog step. Same walk, same cursor motion, same
/// fallback — only the membership test is faster. `None` only on an
/// empty `from` (callers guarantee it is not).
fn round_robin_set(
    view: &PlanningView<'_>,
    state: &mut StrategyState,
    members: &BTreeSet<SiteId>,
    from: &[SiteId],
) -> Option<SiteId> {
    let n = view.catalog.len().max(1);
    for step in 0..n {
        let idx = (state.cursor + step) % n;
        if let Some(site) = view.catalog.get(idx).map(|s| s.id) {
            if members.contains(&site) {
                state.cursor = (idx + 1) % n;
                return Some(site);
            }
        }
    }
    from.first().copied()
}

/// Site minimising `score`; ties go to the earlier candidate (stable).
fn argmin(candidates: &[SiteId], mut score: impl FnMut(&SiteId) -> f64) -> SiteId {
    let mut best = candidates[0];
    let mut best_score = score(&candidates[0]);
    for &c in &candidates[1..] {
        let s = score(&c);
        if s < best_score {
            best = c;
            best_score = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphinx_sim::{Duration, SimTime};

    fn catalog(cpus: &[u32]) -> Vec<SiteInfo> {
        cpus.iter()
            .enumerate()
            .map(|(i, &c)| SiteInfo {
                id: SiteId(i as u32),
                name: format!("s{i}"),
                cpus: c,
            })
            .collect()
    }

    fn report(site: u32, queued: usize, running: usize) -> (SiteId, Report) {
        (
            SiteId(site),
            Report {
                site: SiteId(site),
                cpus: 10,
                queued,
                running,
                measured_at: SimTime::ZERO,
            },
        )
    }

    fn view<'a>(
        catalog: &'a [SiteInfo],
        candidates: &'a [SiteId],
        outstanding: &'a BTreeMap<SiteId, u64>,
        reports: &'a BTreeMap<SiteId, Report>,
        prediction: &'a Prediction,
    ) -> PlanningView<'a> {
        PlanningView {
            catalog,
            candidates,
            outstanding,
            reports,
            prediction,
        }
    }

    #[test]
    fn round_robin_cycles_in_catalog_order() {
        let cat = catalog(&[1, 1, 1]);
        let cands = [SiteId(0), SiteId(1), SiteId(2)];
        let (o, r, p) = (BTreeMap::new(), BTreeMap::new(), Prediction::new());
        let v = view(&cat, &cands, &o, &r, &p);
        let mut st = StrategyState::new();
        let picks: Vec<u32> = (0..6)
            .map(|_| StrategyKind::RoundRobin.choose(&v, &mut st).unwrap().0)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_filtered_sites() {
        let cat = catalog(&[1, 1, 1]);
        let cands = [SiteId(0), SiteId(2)]; // site 1 filtered out
        let (o, r, p) = (BTreeMap::new(), BTreeMap::new(), Prediction::new());
        let v = view(&cat, &cands, &o, &r, &p);
        let mut st = StrategyState::new();
        let picks: Vec<u32> = (0..4)
            .map(|_| StrategyKind::RoundRobin.choose(&v, &mut st).unwrap().0)
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn num_cpus_picks_least_loaded_per_cpu() {
        let cat = catalog(&[10, 100]);
        let cands = [SiteId(0), SiteId(1)];
        let mut o = BTreeMap::new();
        o.insert(SiteId(0), 5u64); // 0.5 per CPU
        o.insert(SiteId(1), 80u64); // 0.8 per CPU
        let (r, p) = (BTreeMap::new(), Prediction::new());
        let v = view(&cat, &cands, &o, &r, &p);
        let mut st = StrategyState::new();
        assert_eq!(
            StrategyKind::NumCpus.choose(&v, &mut st),
            Some(SiteId(0)),
            "5/10 < 80/100"
        );
    }

    #[test]
    fn num_cpus_prefers_bigger_site_when_equally_loaded() {
        let cat = catalog(&[10, 100]);
        let cands = [SiteId(0), SiteId(1)];
        let mut o = BTreeMap::new();
        o.insert(SiteId(0), 5u64); // 0.5
        o.insert(SiteId(1), 10u64); // 0.1
        let (r, p) = (BTreeMap::new(), Prediction::new());
        let v = view(&cat, &cands, &o, &r, &p);
        let mut st = StrategyState::new();
        assert_eq!(StrategyKind::NumCpus.choose(&v, &mut st), Some(SiteId(1)));
    }

    #[test]
    fn queue_length_uses_monitor_reports() {
        let cat = catalog(&[10, 10]);
        let cands = [SiteId(0), SiteId(1)];
        let o = BTreeMap::new();
        let r: BTreeMap<SiteId, Report> =
            [report(0, 50, 10), report(1, 2, 3)].into_iter().collect();
        let p = Prediction::new();
        let v = view(&cat, &cands, &o, &r, &p);
        let mut st = StrategyState::new();
        assert_eq!(
            StrategyKind::QueueLength.choose(&v, &mut st),
            Some(SiteId(1))
        );
    }

    #[test]
    fn queue_length_treats_missing_report_as_idle() {
        let cat = catalog(&[10, 10]);
        let cands = [SiteId(0), SiteId(1)];
        let o = BTreeMap::new();
        let r: BTreeMap<SiteId, Report> = [report(0, 5, 5)].into_iter().collect();
        let p = Prediction::new();
        let v = view(&cat, &cands, &o, &r, &p);
        let mut st = StrategyState::new();
        // Site 1 has no report: optimistically assumed idle.
        assert_eq!(
            StrategyKind::QueueLength.choose(&v, &mut st),
            Some(SiteId(1))
        );
    }

    #[test]
    fn completion_time_explores_then_exploits() {
        let cat = catalog(&[10, 10, 10]);
        let cands = [SiteId(0), SiteId(1), SiteId(2)];
        let o = BTreeMap::new();
        let r = BTreeMap::new();
        let mut p = Prediction::new();
        p.record(SiteId(0), Duration::from_secs(500));
        let v = view(&cat, &cands, &o, &r, &p);
        let mut st = StrategyState::new();
        // Sites 1 and 2 have no samples: the hybrid explores them first.
        let first = StrategyKind::CompletionTime.choose(&v, &mut st).unwrap();
        assert!(first == SiteId(1) || first == SiteId(2));
        p.record(SiteId(1), Duration::from_secs(100));
        p.record(SiteId(2), Duration::from_secs(300));
        let v = view(&cat, &cands, &o, &r, &p);
        // All sampled: exploit the fastest.
        assert_eq!(
            StrategyKind::CompletionTime.choose(&v, &mut st),
            Some(SiteId(1))
        );
    }

    #[test]
    fn empty_candidates_yield_none() {
        let cat = catalog(&[1]);
        let (o, r, p) = (BTreeMap::new(), BTreeMap::new(), Prediction::new());
        let v = view(&cat, &[], &o, &r, &p);
        let mut st = StrategyState::new();
        for k in StrategyKind::ALL {
            assert_eq!(k.choose(&v, &mut st), None);
        }
    }

    #[test]
    fn cached_choose_matches_uncached_over_placement_sequences() {
        // Simulate one plan phase: outstanding only grows, each placement
        // bumping the chosen site, as plan_cycle does.
        let cat = catalog(&[4, 2, 8, 1, 6]);
        let cands: Vec<SiteId> = cat.iter().map(|s| s.id).collect();
        let r: BTreeMap<SiteId, Report> = [report(0, 3, 1), report(2, 0, 4), report(4, 7, 0)]
            .into_iter()
            .collect();
        let mut p = Prediction::new();
        p.record(SiteId(0), Duration::from_secs(200));
        p.record(SiteId(2), Duration::from_secs(90));
        p.record(SiteId(3), Duration::from_secs(400));
        for k in StrategyKind::ALL {
            let mut o_plain = BTreeMap::new();
            let mut o_cached = BTreeMap::new();
            let mut st_plain = StrategyState::new();
            let mut st_cached = StrategyState::new();
            let mut cache = ScoreCache::new();
            cache.begin_cycle();
            for step in 0..20 {
                let v = view(&cat, &cands, &o_plain, &r, &p);
                let plain = k.choose(&v, &mut st_plain).unwrap();
                let v = view(&cat, &cands, &o_cached, &r, &p);
                let cached = k.choose_cached(&v, &mut st_cached, &mut cache).unwrap();
                assert_eq!(plain, cached, "{k} diverged at placement {step}");
                *o_plain.entry(plain).or_insert(0u64) += 1;
                *o_cached.entry(cached).or_insert(0u64) += 1;
            }
            let (hits, misses) = cache.take_counters();
            assert_eq!(misses, 1, "{k}: one rebuild per (cycle, candidate set)");
            assert_eq!(hits, 19, "{k}: every later placement reuses the ranking");
        }
    }

    #[test]
    fn cache_rebuilds_when_candidates_change() {
        let cat = catalog(&[2, 2, 2]);
        let all: Vec<SiteId> = cat.iter().map(|s| s.id).collect();
        let narrowed = [SiteId(1), SiteId(2)];
        let (o, r, p) = (BTreeMap::new(), BTreeMap::new(), Prediction::new());
        let mut st = StrategyState::new();
        let mut cache = ScoreCache::new();
        cache.begin_cycle();
        let v = view(&cat, &all, &o, &r, &p);
        StrategyKind::NumCpus.choose_cached(&v, &mut st, &mut cache);
        let v = view(&cat, &narrowed, &o, &r, &p);
        let pick = StrategyKind::NumCpus
            .choose_cached(&v, &mut st, &mut cache)
            .unwrap();
        assert_ne!(pick, SiteId(0), "stale ranking must not leak filtered site");
        let (hits, misses) = cache.take_counters();
        assert_eq!((hits, misses), (0, 2));
    }

    #[test]
    fn labels_and_feedback_implication() {
        assert_eq!(StrategyKind::CompletionTime.label(), "completion-time");
        assert!(StrategyKind::QueueLength.implies_feedback());
        assert!(!StrategyKind::RoundRobin.implies_feedback());
        assert_eq!(format!("{}", StrategyKind::NumCpus), "num-cpus");
    }
}
