//! Runtime coverage of the declared FSA transition tables.
//!
//! `sphinx-analysis` verifies state-assignment *sites* statically; this
//! suite closes the other direction: every edge the tables declare is
//! actually reachable through the public server API, and the `advance()`
//! choke points reject undeclared edges at runtime (debug builds). The
//! observed edges are reconstructed from the telemetry trace — the same
//! event stream the deterministic-replay suite locks down — so the test
//! also pins the trace kinds to the transitions they stand for.

use sphinx::core::messages::{CancelCause, StatusReport};
use sphinx::core::server::{ServerConfig, SphinxServer};
use sphinx::core::state::{DagRow, DagState, JobRow, JobState};
use sphinx::core::strategy::SiteInfo;
use sphinx::dag::{JobId, WorkloadSpec};
use sphinx::data::{ReplicaService, SiteId, TransferModel};
use sphinx::db::Database;
use sphinx::policy::UserId;
use sphinx::sim::{Duration, SimRng, SimTime};
use sphinx::telemetry::TraceKind;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Edge = (JobState, JobState);

/// The job edges `can_transition_to` declares, by exhaustive enumeration.
fn declared_job_edges() -> BTreeSet<Edge> {
    JobState::VARIANTS
        .iter()
        .flat_map(|a| JobState::VARIANTS.iter().map(move |b| (*a, *b)))
        .filter(|(a, b)| a.can_transition_to(*b))
        .collect()
}

#[test]
fn declared_tables_are_exactly_the_paper_automaton() {
    use JobState::*;
    let expected: BTreeSet<Edge> = [
        (Unready, Ready),
        (Unready, Eliminated),
        (Ready, Submitted),
        (Submitted, Queued),
        (Submitted, Running),
        (Submitted, Finished),
        (Submitted, Ready),
        (Queued, Running),
        (Queued, Finished),
        (Queued, Ready),
        (Running, Finished),
        (Running, Ready),
    ]
    .into_iter()
    .collect();
    assert_eq!(declared_job_edges(), expected);

    let dag_edges: BTreeSet<(DagState, DagState)> = DagState::VARIANTS
        .iter()
        .flat_map(|a| DagState::VARIANTS.iter().map(move |b| (*a, *b)))
        .filter(|(a, b)| a.can_transition_to(*b))
        .collect();
    let expected_dag: BTreeSet<(DagState, DagState)> = [
        (DagState::Received, DagState::Running),
        (DagState::Running, DagState::Finished),
    ]
    .into_iter()
    .collect();
    assert_eq!(dag_edges, expected_dag);

    // Terminal states have no way out, and the initial states are unique.
    for terminal in [JobState::Finished, JobState::Eliminated] {
        assert!(JobState::VARIANTS
            .iter()
            .all(|n| !terminal.can_transition_to(*n)));
    }
    assert!(DagState::VARIANTS
        .iter()
        .all(|n| !DagState::Finished.can_transition_to(*n)));
    assert_eq!(
        JobState::VARIANTS.iter().filter(|s| s.is_initial()).count(),
        1
    );
    assert_eq!(
        DagState::VARIANTS.iter().filter(|s| s.is_initial()).count(),
        1
    );
}

#[cfg(debug_assertions)]
#[test]
fn advance_rejects_undeclared_edges() {
    let caught = std::panic::catch_unwind(|| {
        let mut row = JobRow::new(JobId::new(sphinx::dag::DagId(1), 0));
        row.state = JobState::Finished;
        row.advance(JobState::Running); // nothing leaves Finished
    });
    assert!(caught.is_err(), "Finished -> Running must be rejected");

    let legal = std::panic::catch_unwind(|| {
        let mut row = JobRow::new(JobId::new(sphinx::dag::DagId(1), 1));
        row.advance(JobState::Ready);
        row.advance(JobState::Submitted);
    });
    assert!(legal.is_ok());
}

fn catalog(n: u32) -> Vec<SiteInfo> {
    (0..n)
        .map(|i| SiteInfo {
            id: SiteId(i),
            name: format!("site{i}"),
            cpus: 4,
        })
        .collect()
}

/// Which job state a trace kind marks entry into.
fn entered_state(kind: TraceKind) -> Option<JobState> {
    match kind {
        TraceKind::JobReady => Some(JobState::Ready),
        TraceKind::JobEliminated => Some(JobState::Eliminated),
        TraceKind::JobSubmitted => Some(JobState::Submitted),
        TraceKind::JobQueued => Some(JobState::Queued),
        TraceKind::JobRunning => Some(JobState::Running),
        TraceKind::JobCompleted => Some(JobState::Finished),
        TraceKind::JobCancelled => Some(JobState::Ready),
        _ => None,
    }
}

#[test]
fn every_declared_job_edge_is_exercised_through_the_server() {
    let dag = WorkloadSpec::small(1, 12)
        .generate(&SimRng::new(7), 0)
        .remove(0);
    let mut server = SphinxServer::new(
        Arc::new(Database::in_memory()),
        catalog(3),
        ServerConfig::default(),
    );
    let mut rls = ReplicaService::new();
    for f in dag.external_inputs() {
        rls.register(f, SiteId(0));
    }
    // Pre-register one job's output so the reducer eliminates it
    // (the Unready -> Eliminated edge).
    rls.register(dag.jobs[0].output.file.clone(), SiteId(0));
    server.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
    let model = TransferModel::default();

    // Rotate each planned job through a different tracker-report ladder
    // so the report-coalescing and cancellation edges all appear; after
    // one full rotation, complete directly so the run terminates.
    let mut counter = 0usize;
    let mut now = SimTime::ZERO;
    let mut guard = 0;
    while !server.all_finished() {
        guard += 1;
        assert!(guard < 100, "edge-coverage drive must converge");
        now += Duration::from_secs(10);
        let plans = server
            .plan_cycle(now, &mut rls, &BTreeMap::new(), &model)
            .unwrap();
        for p in plans {
            let (job, site) = (p.job, p.site);
            let treatment = if counter < 7 { counter } else { 2 };
            counter += 1;
            now += Duration::from_secs(1);
            let send = |r: StatusReport, server: &mut SphinxServer| {
                server.handle_report(r, now).unwrap();
            };
            let complete = |server: &mut SphinxServer, rls: &mut ReplicaService, now: SimTime| {
                rls.register(dag.jobs[job.index as usize].output.file.clone(), site);
                server
                    .handle_report(
                        StatusReport::Completed {
                            job,
                            site,
                            total: Duration::from_secs(90),
                            exec: Duration::from_secs(60),
                            idle: Duration::from_secs(10),
                        },
                        now,
                    )
                    .unwrap();
            };
            let cancel = StatusReport::Cancelled {
                job,
                site,
                cause: CancelCause::Held,
            };
            match treatment {
                0 => {
                    send(StatusReport::Queued { job, site }, &mut server);
                    send(StatusReport::Running { job, site }, &mut server);
                    complete(&mut server, &mut rls, now);
                }
                1 => {
                    send(StatusReport::Running { job, site }, &mut server);
                    complete(&mut server, &mut rls, now);
                }
                3 => {
                    send(StatusReport::Queued { job, site }, &mut server);
                    complete(&mut server, &mut rls, now);
                }
                4 => send(cancel, &mut server),
                5 => {
                    send(StatusReport::Queued { job, site }, &mut server);
                    send(cancel, &mut server);
                }
                6 => {
                    send(StatusReport::Running { job, site }, &mut server);
                    send(cancel, &mut server);
                }
                _ => complete(&mut server, &mut rls, now),
            }
        }
    }
    assert!(
        counter >= 7,
        "need at least 7 plan notices to cover every ladder, got {counter}"
    );

    // Reconstruct each job's state sequence from the telemetry trace.
    let mut sequences: BTreeMap<u64, Vec<JobState>> = (0..dag.len() as u32)
        .map(|i| (JobId::new(dag.id, i).as_key(), vec![JobState::Unready]))
        .collect();
    for event in server.telemetry().trace_events() {
        let (Some(state), Some(job)) = (entered_state(event.kind), event.job) else {
            continue;
        };
        sequences
            .get_mut(&job)
            .expect("trace names a known job")
            .push(state);
    }

    let mut observed: BTreeSet<Edge> = BTreeSet::new();
    for (job, seq) in &sequences {
        for pair in seq.windows(2) {
            assert!(
                pair[0].can_transition_to(pair[1]),
                "job {job} took undeclared edge {:?} -> {:?} (sequence {seq:?})",
                pair[0],
                pair[1]
            );
            observed.insert((pair[0], pair[1]));
        }
        let last = seq.last().unwrap();
        assert!(last.is_terminal(), "job {job} ended non-terminal: {seq:?}");
    }
    assert_eq!(
        observed,
        declared_job_edges(),
        "observed edges must cover the declared table exactly"
    );

    // The DAG automaton ran its full Received -> Running -> Finished path.
    let dag_row = server.database().get::<DagRow>(dag.id.0).unwrap();
    assert_eq!(dag_row.state, DagState::Finished);
    let jobs = server.database().scan::<JobRow>().unwrap();
    assert!(jobs.iter().any(|j| j.state == JobState::Eliminated));
}
