//! End-to-end critical-path extraction on a hand-built workflow.
//!
//! A three-job linear chain has exactly one possible critical path — the
//! whole chain — so the analyzer's output can be checked job by job: the
//! chain order, the per-state steps, and the invariant that the path
//! tiles the DAG's makespan exactly (every handoff between consecutive
//! states and between parent completion and child readiness happens at a
//! single server-observed instant, so a fault-free run leaves no gaps).
//!
//! Two scenario-sized cases hold the same invariant where it used to
//! break: a run that outgrows the hub's default span store, and a run
//! finished by a server recovered from its write-ahead log.

use sphinx::core::runtime::{RuntimeConfig, SphinxRuntime};
use sphinx::dag::{Dag, DagId, JobId, JobSpec};
use sphinx::data::{FileSpec, LogicalFile, SiteId, TransferModel};
use sphinx::db::{Database, MemWal};
use sphinx::grid::{GridSim, SiteSpec};
use sphinx::policy::UserId;
use sphinx::sim::{Duration, SimTime};
use sphinx::telemetry::SpanGraph;
use sphinx::workloads::{grid3, Scenario, ScenarioBuilder};
use std::sync::Arc;

/// jobs 0 -> 1 -> 2, chained by their output files.
fn chain_dag() -> Dag {
    let id = DagId(0);
    let out = |i: u32| LogicalFile::new(format!("chain.out{i}"));
    let jobs = (0..3u32)
        .map(|i| JobSpec {
            id: JobId::new(id, i),
            name: format!("link-{i}"),
            inputs: if i == 0 { vec![] } else { vec![out(i - 1)] },
            output: FileSpec::new(out(i), 50),
            // The sink's own compute is tiny, so its lifetime is
            // dominated by waiting on the 10-minute upstream links.
            compute: Duration::from_mins([10, 10, 2][i as usize]),
        })
        .collect();
    Dag::new(id, jobs).expect("chain is a valid DAG")
}

fn run_chain() -> (SphinxRuntime, sphinx::core::report::RunReport) {
    let grid = GridSim::new(
        grid3::catalog_small(),
        TransferModel::uniform(60.0, Duration::from_secs(3)),
        11,
    );
    let mut rt = SphinxRuntime::with_database(
        grid,
        RuntimeConfig::default(),
        Arc::new(Database::in_memory()),
    );
    rt.submit_dag(&chain_dag(), UserId(1));
    let report = rt.run();
    assert!(report.finished, "{}", report.summary());
    (rt, report)
}

#[test]
fn linear_chain_critical_path_is_the_whole_chain() {
    let (rt, report) = run_chain();
    assert_eq!(report.jobs_completed, 3);
    let paths = &report.analysis.critical_paths;
    assert_eq!(paths.len(), 1, "one DAG, one critical path");
    let path = &paths[0];
    assert_eq!(path.dag, 0);
    // The chain order, upstream first: job keys equal indices for DAG 0.
    assert_eq!(path.jobs, vec![0, 1, 2]);
    // Fault-free, so the causal chain tiles the makespan exactly.
    assert_eq!(
        path.path_ms, path.makespan_ms,
        "chain steps must tile the makespan: {path:?}"
    );
    assert!(path.makespan_ms > 0);
    // Steps are in time order, contiguous per job, and every one belongs
    // to a chained job on its only attempt.
    for pair in path.steps.windows(2) {
        assert!(pair[0].end_ms <= pair[1].start_ms || pair[0].job == pair[1].job);
        assert!(pair[0].start_ms <= pair[1].start_ms);
    }
    for step in &path.steps {
        assert!(path.jobs.contains(&step.job));
        assert!(step.attempt <= 1, "no replans on a fault-free grid");
        assert!(step.end_ms >= step.start_ms);
    }
    // Each chained job contributes a running step.
    for job in &path.jobs {
        assert!(
            path.steps
                .iter()
                .any(|s| s.job == *job && s.name == "state:running"),
            "job {job} must have run on the critical path"
        );
    }
    // The span graph behind the analysis is sound and rooted properly.
    let graph = SpanGraph::new(rt.telemetry().spans());
    assert!(graph.validate().is_empty(), "{:?}", graph.validate());
}

#[test]
fn chain_blames_execution_not_faults() {
    let (_, report) = run_chain();
    let slow = &report.analysis.slowest_jobs;
    assert_eq!(slow.len(), 3);
    // Job 2 lives longest: it waits for 0 and 1 before its own 15 min of
    // compute; its dependency dwell must dominate planner/queue time.
    assert_eq!(slow[0].job, 2);
    assert_eq!(slow[0].attempts, 1);
    assert_eq!(slow[0].blame, "dependencies");
    assert!(slow[0].dwell.dependency_ms > slow[0].dwell.execution_ms);
    assert_eq!(slow[0].dwell.fault_ms, 0, "no faults on a clean grid");
    // The chain root only "waits on dependencies" until the first plan
    // cycle reduces the DAG — at most one planner period.
    let root = slow.iter().find(|j| j.job == 0).expect("job 0 reported");
    assert!(root.dwell.dependency_ms <= 15_000, "{:?}", root.dwell);
    assert!(root.dwell.execution_ms >= Duration::from_mins(4).as_millis());
}

/// A fault-free grid wide enough that nothing queues into a timeout: the
/// Grid3 pattern cycled to 120 sites, background load off.
fn wide_healthy_grid() -> ScenarioBuilder {
    let pattern = grid3::catalog_with_background(false);
    let sites: Vec<SiteSpec> = (0..120)
        .map(|i| SiteSpec {
            id: SiteId(i),
            ..pattern[i as usize % pattern.len()].clone()
        })
        .collect();
    Scenario::builder().sites(sites).seed(1000)
}

#[test]
fn every_path_tiles_when_a_run_outgrows_the_default_span_store() {
    // About 9 spans a job: 8 000 jobs leave more than the hub's default
    // 65 536 finished spans, which used to evict the head of every chain.
    let mut rt = wide_healthy_grid().dags(160, 50).build().build_runtime();
    let report = rt.run();
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.timeouts + report.holds, 0, "fault-free by design");
    let analysis = &report.analysis;
    assert!(analysis.spans_total > 65_536, "{}", analysis.spans_total);
    assert_eq!(analysis.spans_dropped, 0);
    assert_eq!(analysis.critical_paths.len(), 160);
    for path in &analysis.critical_paths {
        assert_eq!(path.path_ms, path.makespan_ms, "dag {}", path.dag);
    }
    // Every path and blame of the run, byte for byte: recorded before the
    // analysis stopped replaying the span machine, and again when the
    // checkpoint trigger began to weigh bytes, which made `spans_total`
    // count two more `wal:checkpoint` spans (4 checkpoints, not 2).
    let json = serde_json::to_string(analysis).expect("the analysis encodes");
    let digest = fnv1a(json.as_bytes());
    assert_eq!(
        digest, 0xb118_36d0_8d90_506e,
        "analysis digest {digest:#018x}"
    );
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn a_recovered_run_keeps_a_sound_graph_and_a_path_per_dag() {
    let scenario = wide_healthy_grid().dags(12, 20).build();
    let wal = MemWal::shared();
    let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
    let mut rt = scenario.build_runtime_with_db(db);
    // Kill the server with every DAG admitted and about half still running.
    let crash_at = Duration::from_mins(8);
    rt.run_until(SimTime::ZERO + crash_at);
    let finished_before = rt.telemetry().counter("dag.finished");
    assert!(
        (1..12).contains(&finished_before),
        "the crash must land mid-run: {finished_before} of 12 DAGs done"
    );
    let config = rt.config().clone();
    let grid = rt.into_grid();

    let recovered = Arc::new(Database::recover(Box::new(wal)).expect("log replays"));
    let mut rt =
        SphinxRuntime::with_recovered_database(grid, config, recovered).expect("server recovers");
    let report = rt.run();
    assert!(report.finished, "{}", report.summary());
    let graph = SpanGraph::new(rt.telemetry().spans());
    assert!(graph.validate().is_empty(), "{:?}", graph.validate());
    // One path per DAG that finished on the recovered server, each
    // measured from the DAG's original submission.
    let paths = &report.analysis.critical_paths;
    assert_eq!(paths.len() as u64, 12 - finished_before);
    for path in paths {
        assert!(path.makespan_ms > crash_at.as_millis(), "{path:?}");
        assert!(path.path_ms <= path.makespan_ms, "{path:?}");
    }
}
