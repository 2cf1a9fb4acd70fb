//! Live ops plane: determinism, report-invariance and early-detection
//! guarantees (ISSUE 9's acceptance tests).
//!
//! The aggregator runs *inside* the simulation loop, so it must be a
//! pure observer unless the fast path is explicitly enabled: same seed ⇒
//! byte-identical alert stream, and turning the plane on must not change
//! the run's outcome. And when a black hole is injected, the online
//! detector has to beat the post-hoc reliability flag by whole planner
//! cycles — that head start is the tentpole's reason to exist.
//!
//! The plane is ticked by the one driver, so every case takes the
//! deployment as an input: the single scheduler, and the sharded
//! deployment at 1 and 4 shards, must all behave alike.

use sphinx_core::shard::ShardConfig;
use sphinx_core::{Driver, RunReport, StrategyKind};
use sphinx_ops::OpsConfig;
use sphinx_sim::Duration;
use sphinx_telemetry::{InMemorySink, TraceEvent, TraceKind};
use sphinx_workloads::{FaultPlan, Scenario, ScenarioBuilder};
use std::ops::DerefMut;

/// `None` is the single scheduler; `Some(n)` the sharded deployment.
const DEPLOYMENTS: [Option<usize>; 3] = [None, Some(1), Some(4)];

/// A seeded black-hole scenario: small catalog, round-robin (so the hole
/// keeps receiving work), tracker feedback on, 10-minute timeout.
fn black_hole_scenario() -> ScenarioBuilder {
    Scenario::builder()
        .sites(sphinx_workloads::grid3::catalog_small())
        .dags(2, 8)
        .seed(1905)
        .strategy(StrategyKind::RoundRobin)
        .feedback(true)
        .timeout(Duration::from_mins(10))
        .faults(FaultPlan {
            black_holes: 1,
            flaky: 0,
            ..FaultPlan::default()
        })
        .horizon(Duration::from_secs(24 * 3600))
}

/// Run a scenario on a deployment capturing every trace event, returning
/// the report and the captured events.
fn run_traced(scenario: &Scenario, shards: Option<usize>) -> (RunReport, Vec<TraceEvent>) {
    fn drive(mut rt: impl DerefMut<Target = Driver>) -> (RunReport, Vec<TraceEvent>) {
        let (sink, events) = InMemorySink::new();
        rt.telemetry().add_sink(Box::new(sink));
        let report = rt.try_run().expect("in-memory run");
        let captured = events.lock().clone();
        (report, captured)
    }
    match shards {
        None => drive(scenario.build_runtime()),
        Some(shards) => drive(scenario.build_sharded_runtime(ShardConfig {
            shards,
            ..ShardConfig::default()
        })),
    }
}

#[test]
fn ops_alert_stream_is_byte_identical_across_reruns_and_deployments() {
    let alerts_of = |shards| {
        let scenario = black_hole_scenario().ops(OpsConfig::default()).build();
        let (_, events) = run_traced(&scenario, shards);
        let lines: Vec<String> = events
            .iter()
            .filter(|e| e.kind == TraceKind::OpsAlert)
            .map(TraceEvent::to_json_line)
            .collect();
        lines.join("\n")
    };
    let single = alerts_of(None);
    assert!(
        !single.is_empty(),
        "the black-hole scenario must produce alerts"
    );
    for shards in DEPLOYMENTS {
        assert_eq!(
            alerts_of(shards).as_bytes(),
            single.as_bytes(),
            "{shards:?} shards vs the single scheduler"
        );
    }
}

#[test]
fn aggregator_is_a_pure_observer_without_the_fast_path() {
    let scrub = |mut r: RunReport| {
        // The plane adds `ops.*` counters and OpsAlert trace events, so
        // the telemetry-derived report fields legitimately differ; every
        // *outcome* field must not.
        r.telemetry = Default::default();
        r.analysis = Default::default();
        r
    };
    for shards in DEPLOYMENTS {
        let with_ops = black_hole_scenario().ops(OpsConfig::default()).build();
        let without_ops = black_hole_scenario().build();
        assert_eq!(
            scrub(run_traced(&with_ops, shards).0),
            scrub(run_traced(&without_ops, shards).0),
            "{shards:?} shards"
        );
    }
}

#[test]
fn black_hole_alert_beats_the_post_hoc_reliability_flag() {
    let ops_config = OpsConfig::default();
    let scenario = black_hole_scenario().ops(ops_config.clone()).build();
    for shards in DEPLOYMENTS {
        let (report, events) = run_traced(&scenario, shards);
        assert!(report.finished, "{shards:?}: {}", report.summary());

        let first_alert = events
            .iter()
            .find(|e| e.kind == TraceKind::OpsAlert && e.detail.starts_with("black_hole"))
            .expect("online black-hole alert");
        let victim = first_alert.site.expect("alert carries the site");
        let first_flag = events
            .iter()
            .find(|e| e.kind == TraceKind::SiteFlagged && e.site == Some(victim))
            .expect("post-hoc reliability flag for the same site");

        // The online detector must fire at least k planner cycles before
        // the post-hoc path notices (in practice it wins by minutes: the
        // flag needs a timeout + cancellation report to land first).
        let planner_period = Duration::from_secs(15); // RuntimeConfig default
        let head_start = first_flag.sim_time.since(first_alert.sim_time);
        let k_cycles =
            Duration::from_millis(planner_period.as_millis() * u64::from(ops_config.k_windows));
        assert!(
            head_start >= k_cycles,
            "{shards:?}: alert at {}, flag at {}: head start {} < {}",
            first_alert.sim_time,
            first_flag.sim_time,
            head_start,
            k_cycles
        );
    }
}

#[test]
fn fast_path_excludes_the_hole_without_changing_completion() {
    // Fast path on: the run must still finish everything, and the victim
    // site must be excluded no later than the alert fired.
    let scenario = black_hole_scenario()
        .ops(OpsConfig::default())
        .ops_fast_path(true)
        .build();
    for shards in DEPLOYMENTS {
        let (report, events) = run_traced(&scenario, shards);
        assert!(report.finished, "{shards:?}: {}", report.summary());
        assert_eq!(report.jobs_completed, 16, "{shards:?}");

        let first_alert = events
            .iter()
            .find(|e| e.kind == TraceKind::OpsAlert && e.detail.starts_with("black_hole"))
            .expect("online black-hole alert");
        let victim = first_alert.site.expect("alert carries the site");
        // With the fast path, the reliability flag lands the same cycle as
        // the alert — not after the timeout. On a sharded deployment that
        // means the verdict reached the *shared* scheduling state.
        let flag = events
            .iter()
            .find(|e| e.kind == TraceKind::SiteFlagged && e.site == Some(victim))
            .expect("fast-path flag");
        assert_eq!(flag.sim_time, first_alert.sim_time, "{shards:?}");
    }
}
