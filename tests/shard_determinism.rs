//! Sharded determinism: a crash-free sharded deployment is an
//! implementation detail, not a behaviour change. The aggregate
//! [`RunReport`] and the merged report-hub trace must be invariant to
//! the shard count and the partition map itself.

use proptest::prelude::*;
use sphinx::core::shard::ShardConfig;
use sphinx::core::RunReport;
use sphinx::policy::Requirement;
use sphinx::sim::Duration;
use sphinx::workloads::{grid3, Scenario, ScenarioBuilder};
use std::collections::BTreeMap;

const DAGS: u32 = 4;
const JOBS: u32 = 8;

fn quick() -> ScenarioBuilder {
    Scenario::builder()
        .sites(grid3::catalog_small())
        .dags(DAGS, JOBS)
        .seed(7)
        .horizon(Duration::from_secs(24 * 3600))
}

fn run_with(builder: ScenarioBuilder, config: ShardConfig) -> (RunReport, String) {
    let mut rt = builder.build().build_sharded_runtime(config);
    let report = rt.try_run().expect("sharded run");
    let trace = rt.telemetry().trace_jsonl();
    (report, trace)
}

#[test]
fn report_and_trace_are_invariant_to_shard_count() {
    let (base, base_trace) = run_with(
        quick(),
        ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        },
    );
    assert!(base.finished, "baseline: {}", base.summary());
    assert_eq!(base.jobs_completed, (DAGS * JOBS) as usize);
    for shards in [2, 4, 8] {
        let (report, trace) = run_with(
            quick(),
            ShardConfig {
                shards,
                ..ShardConfig::default()
            },
        );
        assert_eq!(report, base, "{shards} shards vs single-shard baseline");
        assert_eq!(
            trace, base_trace,
            "merged trace diverged at {shards} shards"
        );
    }
}

#[test]
fn sharded_single_shard_matches_the_unsharded_runtime_outcome() {
    // The 1-shard deployment is the plain runtime plus coordination
    // tables; the schedule it produces must be the same one.
    let unsharded = quick().build().run();
    let (sharded, _) = run_with(
        quick(),
        ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        },
    );
    // The whole report minus its telemetry and analysis — the benchmark's
    // `schedule_digest` notion: everything the schedule determines, every
    // float to the last bit.
    let bare = |mut r: RunReport| {
        r.telemetry = Default::default();
        r.analysis = Default::default();
        r
    };
    assert_eq!(bare(sharded), bare(unsharded));
}

#[test]
fn report_is_invariant_under_policy_and_deadlines() {
    // Quota reservations and deadline-ordered planning exercise the shared
    // policy engine and the EDF fast lane; both must still be
    // partition-independent.
    let with_extras = || {
        quick()
            .quota(Requirement::new(10_000_000, 10_000_000))
            .deadline_last(1, Duration::from_secs(8 * 3600))
    };
    let (base, base_trace) = run_with(
        with_extras(),
        ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        },
    );
    assert!(base.finished, "{}", base.summary());
    for shards in [2, 4] {
        let (report, trace) = run_with(
            with_extras(),
            ShardConfig {
                shards,
                ..ShardConfig::default()
            },
        );
        assert_eq!(report, base, "{shards} shards with policy + deadline");
        assert_eq!(trace, base_trace);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Any explicit DAG → shard assignment produces the same aggregate
    /// report and trace as the default hash partition.
    #[test]
    fn report_is_invariant_to_the_partition_map(
        shards in 2usize..=5,
        slots in proptest::collection::vec(0usize..64, (DAGS as usize)..(DAGS as usize + 1)),
    ) {
        let (base, base_trace) = run_with(quick(), ShardConfig {
            shards,
            ..ShardConfig::default()
        });
        let assignments: BTreeMap<u64, usize> = slots
            .iter()
            .enumerate()
            .map(|(dag, &slot)| (dag as u64, slot))
            .collect();
        let (report, trace) = run_with(quick(), ShardConfig {
            shards,
            assignments: Some(assignments.clone()),
            ..ShardConfig::default()
        });
        prop_assert_eq!(
            report, base,
            "assignment {:?} over {} shards changed the report",
            assignments, shards
        );
        prop_assert_eq!(trace, base_trace);
    }
}
