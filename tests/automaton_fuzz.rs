//! Adversarial fuzzing of the server's scheduling automaton: random
//! interleavings of planning cycles and tracker reports — including
//! duplicated, stale and outright bogus reports — must never panic,
//! corrupt state accounting, or lose a job.

use proptest::prelude::*;
use sphinx::core::messages::{CancelCause, StatusReport};
use sphinx::core::server::{ServerConfig, SphinxServer};
use sphinx::core::state::{DagRow, DagState, JobRow};
use sphinx::core::strategy::SiteInfo;
use sphinx::dag::{JobId, WorkloadSpec};
use sphinx::data::{ReplicaService, SiteId, TransferModel};
use sphinx::db::Database;
use sphinx::policy::UserId;
use sphinx::sim::{Duration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

fn catalog(n: u32) -> Vec<SiteInfo> {
    (0..n)
        .map(|i| SiteInfo {
            id: SiteId(i),
            name: format!("site{i}"),
            cpus: 4,
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Action {
    /// Run a planner pass.
    Plan,
    /// Honest completion for the job picked by `pick` among in-flight.
    Complete { pick: usize },
    /// Honest cancellation for an in-flight job.
    Cancel { pick: usize, timeout: bool },
    /// Duplicate of a previously delivered completion.
    DuplicateComplete { pick: usize },
    /// A report about a job that was never planned (bogus tag).
    Bogus { index: u32 },
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => Just(Action::Plan),
        4 => (0usize..32).prop_map(|pick| Action::Complete { pick }),
        2 => ((0usize..32), any::<bool>())
            .prop_map(|(pick, timeout)| Action::Cancel { pick, timeout }),
        1 => (0usize..32).prop_map(|pick| Action::DuplicateComplete { pick }),
        1 => (0u32..200).prop_map(|index| Action::Bogus { index }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn prop_automaton_survives_adversarial_reports(
        seed in 0u64..5_000,
        actions in proptest::collection::vec(arb_action(), 10..120),
    ) {
        let dag = WorkloadSpec::small(1, 12)
            .generate(&SimRng::new(seed), 0)
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
        server.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let model = TransferModel::default();

        let mut now = SimTime::ZERO;
        let mut in_flight: Vec<(JobId, SiteId)> = Vec::new();
        let mut completed: Vec<(JobId, SiteId)> = Vec::new();
        for action in &actions {
            now += Duration::from_secs(10);
            match action {
                Action::Plan => {
                    let plans = server.plan_cycle(now, &mut rls, &BTreeMap::new(), &model).unwrap();
                    for p in plans {
                        // Register outputs as the grid would on success.
                        in_flight.push((p.job, p.site));
                    }
                }
                Action::Complete { pick } if !in_flight.is_empty() => {
                    let (job, site) = in_flight.remove(pick % in_flight.len());
                    rls.register(dag.jobs[job.index as usize].output.file.clone(), site);
                    server.handle_report(
                        StatusReport::Completed {
                            job,
                            site,
                            total: Duration::from_secs(100),
                            exec: Duration::from_secs(60),
                            idle: Duration::from_secs(20),
                        },
                        now,
                    ).unwrap();
                    completed.push((job, site));
                }
                Action::Cancel { pick, timeout } if !in_flight.is_empty() => {
                    let (job, site) = in_flight.remove(pick % in_flight.len());
                    server.handle_report(
                        StatusReport::Cancelled {
                            job,
                            site,
                            cause: if *timeout {
                                CancelCause::Timeout
                            } else {
                                CancelCause::Held
                            },
                        },
                        now,
                    )
                    .unwrap();
                }
                Action::DuplicateComplete { pick } if !completed.is_empty() => {
                    let (job, site) = completed[pick % completed.len()];
                    server.handle_report(
                        StatusReport::Completed {
                            job,
                            site,
                            total: Duration::from_secs(1),
                            exec: Duration::from_secs(1),
                            idle: Duration::ZERO,
                        },
                        now,
                    ).unwrap();
                }
                Action::Bogus { index } => {
                    // A report for a job id that may not even exist.
                    server.handle_report(
                        StatusReport::Queued {
                            job: JobId::new(dag.id, *index),
                            site: SiteId(1),
                        },
                        now,
                    ).unwrap();
                }
                _ => {} // pick against an empty pool: no-op
            }
        }

        // Invariants after the storm:
        let db = server.database();
        let jobs = db.scan::<JobRow>().unwrap();
        prop_assert_eq!(jobs.len(), dag.len());
        // Completion reports recorded exactly once each.
        prop_assert_eq!(server.reliability().total_completed() as usize, completed.len());
        // Finished jobs carry timing; every state is a legal enum value
        // (decode would have failed otherwise). Dag finished only if all
        // jobs terminal.
        let dag_row = db.get::<DagRow>(dag.id.0).unwrap();
        let all_terminal = jobs.iter().all(|j| j.state.is_terminal());
        prop_assert_eq!(dag_row.state == DagState::Finished, all_terminal);

        // The workload can always be driven to completion afterwards. In
        // the real system the tracker times out whatever the storm left
        // in flight; here we settle those jobs explicitly first.
        for (job, site) in in_flight.drain(..) {
            now += Duration::from_secs(1);
            rls.register(dag.jobs[job.index as usize].output.file.clone(), site);
            server.handle_report(
                StatusReport::Completed {
                    job,
                    site,
                    total: Duration::from_secs(100),
                    exec: Duration::from_secs(60),
                    idle: Duration::from_secs(20),
                },
                now,
            ).unwrap();
        }
        let mut guard = 0;
        while !server.all_finished() {
            guard += 1;
            prop_assert!(guard < 100, "post-storm drive must converge");
            now += Duration::from_secs(10);
            let plans = server.plan_cycle(now, &mut rls, &BTreeMap::new(), &model).unwrap();
            for p in plans {
                rls.register(dag.jobs[p.job.index as usize].output.file.clone(), p.site);
                server.handle_report(
                    StatusReport::Completed {
                        job: p.job,
                        site: p.site,
                        total: Duration::from_secs(100),
                        exec: Duration::from_secs(60),
                        idle: Duration::from_secs(20),
                    },
                    now,
                ).unwrap();
            }
        }
    }
}
