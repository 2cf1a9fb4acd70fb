//! Planner hot-path equivalence suite.
//!
//! The per-cycle score cache (`ScoreCache` + `StrategyKind::choose_cached`)
//! is a pure optimization of `StrategyKind::choose`, which rescores every
//! candidate per ready job and is kept as the reference. Two layers check
//! that: the property tests below drive the cache directly against full
//! rescoring under randomized catalogs, monitor reports, prediction
//! samples and placement sequences; and in debug builds (how `cargo test`
//! builds) the server's one placement call site asserts, for every job it
//! places, that the cached choice and cursor equal `choose`'s — so the
//! whole-run tests here only have to reach the cache's paths and finish.

use proptest::prelude::*;
use sphinx::core::prediction::Prediction;
use sphinx::core::report::RunReport;
use sphinx::core::strategy::{PlanningView, ScoreCache, SiteInfo, StrategyKind, StrategyState};
use sphinx::data::SiteId;
use sphinx::monitor::Report;
use sphinx::sim::{Duration, SimRng, SimTime};
use sphinx::workloads::{FaultPlan, Scenario};
use std::collections::BTreeMap;

/// The run finished with the cache engaged: placements hit it, some
/// rebuilt it, and the candidate scratch buffer was reused.
fn assert_cache_engaged(what: &str, report: &RunReport) {
    assert!(report.finished, "{what} must finish: {}", report.summary());
    for counter in [
        "plan.score_cache.hits",
        "plan.score_cache.misses",
        "plan.scratch.reused",
    ] {
        assert!(
            report.telemetry.counter(counter) > 0,
            "{what}: {counter} = 0"
        );
    }
}

#[test]
fn every_strategy_plans_a_faulty_grid_through_the_score_cache() {
    for strategy in StrategyKind::ALL {
        let report = Scenario::builder()
            .seed(7)
            .faults(FaultPlan::grid3_typical())
            .dags(2, 8)
            .strategy(strategy)
            .build()
            .run();
        assert_cache_engaged(strategy.label(), &report);
    }
}

#[test]
fn deadline_and_policy_paths_go_through_the_score_cache_too() {
    // EDF sorting and policy filtering change the candidate lists per job,
    // which is the cache's rebuild path.
    let report = Scenario::builder()
        .seed(11)
        .faults(FaultPlan::grid3_typical())
        .dags(3, 6)
        .deadline_last(1, Duration::from_secs(24 * 3600))
        .quota(sphinx::policy::Requirement::new(10_000_000, 10_000_000))
        .build()
        .run();
    assert_cache_engaged("EDF + quotas", &report);
}

/// Random scoring inputs, all derived from one seed (the vendored
/// proptest idiom used across this repo: shrinkable scalars in, `SimRng`
/// for the structure).
fn scoring_world(
    sites: u32,
    seed: u64,
) -> (
    Vec<SiteInfo>,
    BTreeMap<SiteId, u64>,
    BTreeMap<SiteId, Report>,
    Prediction,
) {
    let mut rng = SimRng::new(seed).derive("planner-equivalence");
    let catalog: Vec<SiteInfo> = (0..sites)
        .map(|i| SiteInfo {
            id: SiteId(i),
            name: format!("s{i}"),
            cpus: rng.range_u64(0, 17) as u32, // 0 exercises the max(1) clamp
        })
        .collect();
    let mut outstanding = BTreeMap::new();
    let mut reports = BTreeMap::new();
    let mut prediction = Prediction::new();
    for i in 0..sites {
        if rng.range_u64(0, 2) == 1 {
            outstanding.insert(SiteId(i), rng.range_u64(0, 6));
        }
        if rng.range_u64(0, 2) == 1 {
            reports.insert(
                SiteId(i),
                Report {
                    site: SiteId(i),
                    cpus: 10,
                    queued: rng.range_u64(0, 20) as usize,
                    running: rng.range_u64(0, 10) as usize,
                    measured_at: SimTime::ZERO,
                },
            );
        }
        for _ in 0..rng.range_u64(0, 3) {
            prediction.record(SiteId(i), Duration::from_secs(rng.range_u64(10, 1000)));
        }
    }
    (catalog, outstanding, reports, prediction)
}

proptest! {
    /// Incremental score adjustment (lazy heap + probe-list retain)
    /// matches full rescoring for every strategy under random placement
    /// sequences, including a mid-sequence candidate-list change.
    #[test]
    fn prop_cached_matches_full_rescoring(
        sites in 1u32..9,
        seed in 0u64..500,
        strategy_idx in 0usize..4,
        placements in 1usize..30,
    ) {
        let strategy = StrategyKind::ALL[strategy_idx];
        let (catalog, outstanding0, reports, prediction) = scoring_world(sites, seed);
        let all: Vec<SiteId> = catalog.iter().map(|s| s.id).collect();
        // A non-empty random subset, switched to partway through the
        // sequence (the cache-miss path plan_cycle takes when policy or
        // feedback filtering narrows the candidates).
        let mut rng = SimRng::new(seed).derive("subset");
        let subset: Vec<SiteId> = all
            .iter()
            .copied()
            .filter(|_| rng.range_u64(0, 2) == 1)
            .collect();
        let subset = if subset.is_empty() { all.clone() } else { subset };
        let switch_at = rng.range_u64(0, placements as u64 + 1) as usize;

        let mut o_plain = outstanding0.clone();
        let mut o_cached = outstanding0;
        let mut st_plain = StrategyState::new();
        let mut st_cached = StrategyState::new();
        let mut cache = ScoreCache::new();
        cache.begin_cycle();
        for step in 0..placements {
            let candidates: &[SiteId] = if step < switch_at { &all } else { &subset };
            let view_plain = PlanningView {
                catalog: &catalog,
                candidates,
                outstanding: &o_plain,
                reports: &reports,
                prediction: &prediction,
            };
            let plain = strategy.choose(&view_plain, &mut st_plain).unwrap();
            let view_cached = PlanningView {
                catalog: &catalog,
                candidates,
                outstanding: &o_cached,
                reports: &reports,
                prediction: &prediction,
            };
            let cached = strategy
                .choose_cached(&view_cached, &mut st_cached, &mut cache)
                .unwrap();
            prop_assert_eq!(plain, cached, "{} diverged at placement {}", strategy, step);
            // Mirror plan_cycle: a placement bumps the chosen site's
            // outstanding count (the only mid-phase score input change).
            *o_plain.entry(plain).or_insert(0) += 1;
            *o_cached.entry(cached).or_insert(0) += 1;
        }
    }

    /// Multi-cycle: `begin_cycle` must fully invalidate — `outstanding`
    /// shrinking between cycles (reports drained) never leaks a stale
    /// ranking into the next cycle.
    #[test]
    fn prop_cache_survives_cycle_boundaries(
        sites in 1u32..7,
        seed in 0u64..500,
        strategy_idx in 0usize..4,
        cycles in 1usize..5,
    ) {
        let strategy = StrategyKind::ALL[strategy_idx];
        let (catalog, mut outstanding, reports, mut prediction) = scoring_world(sites, seed);
        let all: Vec<SiteId> = catalog.iter().map(|s| s.id).collect();
        let mut rng = SimRng::new(seed).derive("cycles");
        let mut st_plain = StrategyState::new();
        let mut st_cached = StrategyState::new();
        let mut cache = ScoreCache::new();
        for cycle in 0..cycles {
            // Between cycles: completions shrink outstanding and add
            // prediction samples, exactly what handle_report does.
            for site in all.iter() {
                if let Some(v) = outstanding.get_mut(site) {
                    *v = v.saturating_sub(rng.range_u64(0, 3));
                }
                if rng.range_u64(0, 3) == 0 {
                    prediction.record(*site, Duration::from_secs(rng.range_u64(10, 500)));
                }
            }
            cache.begin_cycle();
            let mut o_plain = outstanding.clone();
            let mut o_cached = outstanding.clone();
            for step in 0..1 + rng.range_u64(0, 6) as usize {
                let view_plain = PlanningView {
                    catalog: &catalog,
                    candidates: &all,
                    outstanding: &o_plain,
                    reports: &reports,
                    prediction: &prediction,
                };
                let plain = strategy.choose(&view_plain, &mut st_plain).unwrap();
                let view_cached = PlanningView {
                    catalog: &catalog,
                    candidates: &all,
                    outstanding: &o_cached,
                    reports: &reports,
                    prediction: &prediction,
                };
                let cached = strategy
                    .choose_cached(&view_cached, &mut st_cached, &mut cache)
                    .unwrap();
                prop_assert_eq!(
                    plain, cached,
                    "{} diverged at cycle {} placement {}", strategy, cycle, step
                );
                *o_plain.entry(plain).or_insert(0) += 1;
                *o_cached.entry(cached).or_insert(0) += 1;
            }
            outstanding = o_plain;
        }
    }
}
