//! Crash adoption: kill shards at chosen points in the planner cycle and
//! prove the survivors adopt exactly the dead shard's DAG partition — no
//! job lost, none double-submitted, replay bounded by the checkpoint
//! policy, and every failover visible in the coordination counters and
//! trace.

use proptest::prelude::*;
use sphinx::core::shard::{CrashPoint, ShardConfig, ShardCrash, ShardedRuntime};
use sphinx::core::RunReport;
use sphinx::dag::DagId;
use sphinx::db::CheckpointPolicy;
use sphinx::policy::Requirement;
use sphinx::sim::Duration;
use sphinx::workloads::{grid3, Scenario, ScenarioBuilder};

const DAGS: u32 = 4;
const JOBS: u32 = 8;
const TOTAL_JOBS: usize = (DAGS * JOBS) as usize;

fn quick() -> ScenarioBuilder {
    Scenario::builder()
        .sites(grid3::catalog_small())
        .dags(DAGS, JOBS)
        .seed(7)
        .horizon(Duration::from_secs(24 * 3600))
}

fn run_with(config: ShardConfig) -> (RunReport, ShardedRuntime) {
    let mut rt = quick().build().build_sharded_runtime(config);
    let report = rt.try_run().expect("sharded run with crashes");
    (report, rt)
}

fn crash(shard: usize, at_cycle: u64, point: CrashPoint) -> ShardConfig {
    ShardConfig {
        shards: 4,
        crashes: vec![ShardCrash {
            shard,
            at_cycle,
            point,
        }],
        ..ShardConfig::default()
    }
}

/// The DAG ids a shard owns under the hash partition, read off a fresh
/// (uncrashed) deployment with the same layout.
fn owned_dags(config: &ShardConfig, shard: usize) -> Vec<DagId> {
    let rt = quick().build().build_sharded_runtime(ShardConfig {
        crashes: Vec::new(),
        ..config.clone()
    });
    (0..u64::from(DAGS))
        .map(DagId)
        .filter(|&d| rt.owner_of(d) == shard)
        .collect()
}

/// Count `"kind":"<kind>"` lines in a JSONL trace (kinds render under
/// their Debug names, e.g. `LeaseGranted`).
fn trace_count(jsonl: &str, kind: &str) -> u64 {
    let needle = format!("\"kind\":\"{kind}\"");
    jsonl.lines().filter(|l| l.contains(&needle)).count() as u64
}

#[test]
fn every_crash_point_fails_over_without_losing_or_duplicating_jobs() {
    // MidPlan crashes land at cycle 0, the cycle that plans every DAG's
    // root jobs — later cycles may have nothing to plan, and a MidPlan
    // crash only fires while its shard is actually planning.
    for (point, at_cycle) in [
        (CrashPoint::BeforeTick, 2),
        (CrashPoint::MidPlan(1), 0),
        (CrashPoint::TornWal, 2),
    ] {
        let config = crash(1, at_cycle, point);
        let expected = owned_dags(&config, 1);
        let (report, rt) = run_with(config);
        assert!(report.finished, "{point:?}: {}", report.summary());
        // Exactly every job completes: a lost job would stall its DAG
        // (unfinished run), a double-submitted one would overshoot.
        assert_eq!(report.jobs_completed, TOTAL_JOBS, "{point:?}");
        let site_total: u64 = report.sites.iter().map(|s| s.completed).sum();
        assert_eq!(site_total, TOTAL_JOBS as u64, "{point:?}");
        assert_eq!(rt.alive_shards(), 3, "{point:?}");
        assert_eq!(
            rt.epoch(),
            1,
            "{point:?}: one adoption bumps the epoch once"
        );
        let adoptions = rt.adoptions();
        assert_eq!(adoptions.len(), 1, "{point:?}");
        let record = &adoptions[0];
        assert_eq!(record.dead, 1, "{point:?}");
        assert_eq!(record.adopter, 0, "{point:?}: lowest survivor adopts");
        assert_eq!(record.epoch, 1, "{point:?}");
        assert_eq!(
            record.dags, expected,
            "{point:?}: adopted set must be exactly the dead shard's partition"
        );
        // Adopted DAGs now route to the adopter.
        for &dag in &record.dags {
            assert_eq!(rt.owner_of(dag), record.adopter, "{point:?}");
        }
    }
}

#[test]
fn crashing_the_lowest_shard_adopts_into_the_next_survivor() {
    let config = crash(0, 2, CrashPoint::BeforeTick);
    let expected = owned_dags(&config, 0);
    let (report, rt) = run_with(config);
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.jobs_completed, TOTAL_JOBS);
    let record = &rt.adoptions()[0];
    assert_eq!((record.dead, record.adopter), (0, 1));
    assert_eq!(record.dags, expected);
}

#[test]
fn failover_counters_match_the_coordination_trace() {
    let (_, rt) = run_with(crash(2, 1, CrashPoint::TornWal));
    let coord = rt.coord_telemetry();
    let trace = coord.trace_jsonl();
    assert_eq!(coord.counter("shard.crashes"), 1);
    assert_eq!(
        coord.counter("shard.leases.granted"),
        4,
        "one lease per shard at startup"
    );
    assert_eq!(
        coord.counter("shard.leases.granted"),
        trace_count(&trace, "LeaseGranted")
    );
    assert_eq!(coord.counter("shard.leases.expired"), 1);
    assert_eq!(
        coord.counter("shard.leases.expired"),
        trace_count(&trace, "LeaseExpired")
    );
    assert_eq!(
        coord.counter("shard.adoptions"),
        rt.adoptions().len() as u64
    );
    assert_eq!(
        coord.counter("shard.adoptions"),
        trace_count(&trace, "ShardAdoption")
    );
    // Liveness is table-driven: heartbeats must actually be flowing.
    assert!(coord.counter("shard.heartbeats") > 0);
}

#[test]
fn crash_runs_are_reproducible() {
    for (point, at_cycle) in [
        (CrashPoint::BeforeTick, 2),
        (CrashPoint::MidPlan(1), 0),
        (CrashPoint::TornWal, 2),
    ] {
        let (a, rt_a) = run_with(crash(1, at_cycle, point));
        let (b, rt_b) = run_with(crash(1, at_cycle, point));
        assert_eq!(a, b, "{point:?}: same crash schedule must reproduce");
        assert_eq!(
            rt_a.telemetry().trace_jsonl(),
            rt_b.telemetry().trace_jsonl(),
            "{point:?}"
        );
        assert_eq!(
            rt_a.coord_telemetry().trace_jsonl(),
            rt_b.coord_telemetry().trace_jsonl(),
            "{point:?}: even the failover trace is deterministic"
        );
    }
}

#[test]
fn checkpoint_policy_bounds_adoption_replay() {
    // The adopter recovers the dead shard's WAL segment; an aggressive
    // checkpoint policy compacts that segment as it grows, so recovery
    // replays strictly fewer lines than with compaction disabled — with
    // an identical schedule either way.
    let with_policy = |checkpoint: CheckpointPolicy| {
        let config = ShardConfig {
            checkpoint,
            ..crash(1, 20, CrashPoint::BeforeTick)
        };
        run_with(config)
    };
    let (unbounded_report, unbounded) = with_policy(CheckpointPolicy::disabled());
    let (bounded_report, bounded) = with_policy(CheckpointPolicy {
        enabled: true,
        ratio: 1,
        min_log_bytes: 1024,
    });
    assert_eq!(
        bounded_report, unbounded_report,
        "compaction must not change the schedule"
    );
    let replay = |rt: &ShardedRuntime| rt.adoptions()[0].replayed;
    assert!(replay(&unbounded) > 0);
    assert!(
        replay(&bounded) < replay(&unbounded),
        "checkpointing must shorten adoption replay: {} vs {}",
        replay(&bounded),
        replay(&unbounded)
    );
}

/// The quota account the scheduler enforces (eq. 4, in the policy engine
/// every shard plans against) keeps no reservation beyond the leak bound
/// `reconcile_inflight` documents, one job per crash, once a
/// quota-constrained run has failed over and finished.
#[test]
fn quota_reservations_settle_through_failover() {
    for point in [CrashPoint::MidPlan(1), CrashPoint::TornWal] {
        let mut rt = quick()
            .quota(Requirement::new(10_000_000, 10_000_000))
            .build()
            .build_sharded_runtime(crash(1, 0, point));
        let report = rt.try_run().expect("quota-constrained failover run");
        assert!(report.finished, "{point:?}: {}", report.summary());
        assert_eq!(report.jobs_completed, TOTAL_JOBS, "{point:?}");
        let crashes = rt.coord_telemetry().counter("shard.crashes");
        assert_eq!(crashes, 1, "{point:?}: the crash must fire");
        let outstanding = rt.policy_mut().outstanding_reservations() as u64;
        assert!(
            outstanding <= crashes,
            "{point:?}: {outstanding} reservations outstanding after {crashes} crash(es)"
        );
    }
}

#[test]
fn two_crashes_cascade_through_two_adoptions() {
    let config = ShardConfig {
        shards: 4,
        crashes: vec![
            ShardCrash {
                shard: 1,
                at_cycle: 2,
                point: CrashPoint::BeforeTick,
            },
            ShardCrash {
                shard: 2,
                at_cycle: 8,
                point: CrashPoint::TornWal,
            },
        ],
        ..ShardConfig::default()
    };
    let first = owned_dags(&config, 1);
    let second = owned_dags(&config, 2);
    let (report, rt) = run_with(config);
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.jobs_completed, TOTAL_JOBS);
    assert_eq!(rt.alive_shards(), 2);
    assert_eq!(rt.epoch(), 2, "each adoption bumps the epoch");
    let adoptions = rt.adoptions();
    assert_eq!(adoptions.len(), 2);
    assert_eq!((adoptions[0].dead, adoptions[0].adopter), (1, 0));
    assert_eq!(adoptions[0].dags, first);
    assert_eq!((adoptions[1].dead, adoptions[1].adopter), (2, 0));
    assert_eq!(adoptions[1].dags, second);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Whatever the crash schedule — any shard, any cycle, any crash
    /// point — the run converges with every job completed exactly once
    /// and the audit counters consistent.
    #[test]
    fn any_single_crash_converges_and_conserves(
        shards in 2usize..=4,
        dead_pick in 0usize..4,
        at_cycle in 0u64..5,
        point_pick in 0usize..4,
    ) {
        let dead = dead_pick % shards;
        let point = [
            CrashPoint::BeforeTick,
            CrashPoint::MidPlan(1),
            CrashPoint::MidPlan(3),
            CrashPoint::TornWal,
        ][point_pick];
        let config = ShardConfig {
            shards,
            crashes: vec![ShardCrash { shard: dead, at_cycle, point }],
            ..ShardConfig::default()
        };
        let expected = owned_dags(&config, dead);
        let (report, rt) = run_with(config);
        prop_assert!(report.finished, "{}", report.summary());
        prop_assert_eq!(report.jobs_completed, TOTAL_JOBS);
        let coord = rt.coord_telemetry();
        let crashed = coord.counter("shard.crashes");
        // A MidPlan(k) crash only fires if the shard planned k jobs that
        // cycle, and a late crash may miss a finished run entirely.
        prop_assert!(crashed <= 1);
        prop_assert_eq!(coord.counter("shard.adoptions"), rt.adoptions().len() as u64);
        if crashed == 1 {
            prop_assert_eq!(rt.adoptions().len(), 1);
            let record = &rt.adoptions()[0];
            prop_assert_eq!(record.dead, dead);
            prop_assert_eq!(&record.dags, &expected);
            prop_assert_eq!(coord.counter("shard.leases.expired"), 1);
        } else {
            prop_assert!(rt.adoptions().is_empty());
        }
    }
}
