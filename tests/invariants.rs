//! Whole-system invariants, property-tested over seeds and
//! configurations. Each case is a complete scheduling run, so the case
//! count is kept small.

use proptest::prelude::*;
use sphinx::core::state::{JobRow, JobState};
use sphinx::core::strategy::StrategyKind;
use sphinx::sim::Duration;
use sphinx::workloads::{grid3, FaultPlan, Scenario};

fn strategy_from(pick: u8) -> StrategyKind {
    StrategyKind::ALL[(pick as usize) % StrategyKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Every job ends in exactly one terminal state, and the report's
    /// accounting matches the database's.
    #[test]
    fn prop_job_conservation(seed in 0u64..10_000, pick in 0u8..4) {
        let scenario = Scenario::builder()
            .seed(seed)
            .sites(grid3::catalog_small())
            .dags(2, 8)
            .strategy(strategy_from(pick))
            .horizon(Duration::from_secs(24 * 3600))
            .build();
        let mut rt = scenario.build_runtime();
        let report = rt.run();
        prop_assert!(report.finished, "{}", report.summary());
        prop_assert_eq!(report.jobs_completed + report.jobs_eliminated, 16);

        let db = rt.server().database();
        let jobs = db.scan::<JobRow>().unwrap();
        prop_assert_eq!(jobs.len(), 16);
        let finished = jobs.iter().filter(|j| j.state == JobState::Finished).count();
        let eliminated = jobs.iter().filter(|j| j.state == JobState::Eliminated).count();
        prop_assert_eq!(finished, report.jobs_completed);
        prop_assert_eq!(eliminated, report.jobs_eliminated);
        // Completed jobs carry timing data; every job ran at least once.
        for j in &jobs {
            if j.state == JobState::Finished {
                prop_assert!(j.exec_secs.unwrap_or(-1.0) > 0.0);
                prop_assert!(j.idle_secs.unwrap_or(-1.0) >= 0.0);
                prop_assert!(j.attempts >= 1);
                prop_assert!(j.site.is_some());
            }
        }
    }

    /// Site-level accounting: per-site completions sum to the job count,
    /// and reliability totals match report totals.
    #[test]
    fn prop_site_accounting(seed in 0u64..10_000, holes in 0u32..2) {
        let scenario = Scenario::builder()
            .seed(seed)
            .sites(grid3::catalog_small())
            .dags(1, 10)
            .strategy(StrategyKind::CompletionTime)
            .faults(FaultPlan { black_holes: holes, flaky: 0, ..FaultPlan::default() })
            .timeout(Duration::from_mins(10))
            .horizon(Duration::from_secs(24 * 3600))
            .build();
        let report = scenario.run();
        prop_assert!(report.finished, "{}", report.summary());
        let completed: u64 = report.sites.iter().map(|s| s.completed).sum();
        prop_assert_eq!(completed as usize, report.jobs_completed);
        let cancelled: u64 = report.sites.iter().map(|s| s.cancelled).sum();
        prop_assert_eq!(cancelled, report.timeouts + report.holds);
    }

    /// Makespan dominates every DAG completion; exec/idle averages are
    /// sane for the paper workload shape (one-minute jobs).
    #[test]
    fn prop_timing_sanity(seed in 0u64..10_000) {
        let report = Scenario::builder()
            .seed(seed)
            .sites(grid3::catalog_small())
            .dags(2, 6)
            .horizon(Duration::from_secs(24 * 3600))
            .build()
            .run();
        prop_assert!(report.finished);
        for &d in &report.dag_completion_secs {
            prop_assert!(d <= report.makespan_secs + 1e-6);
        }
        // Jobs are ~1 minute nominal on 0.7–1.3× CPUs.
        prop_assert!(report.avg_exec_secs > 30.0, "{}", report.avg_exec_secs);
        prop_assert!(report.avg_exec_secs < 180.0, "{}", report.avg_exec_secs);
    }
}

#[test]
fn report_strategy_labels_are_stable() {
    // The figure harness keys on these labels; lock them down.
    let labels: Vec<&str> = StrategyKind::ALL.iter().map(|s| s.label()).collect();
    assert_eq!(
        labels,
        vec!["completion-time", "queue-length", "num-cpus", "round-robin"]
    );
}
