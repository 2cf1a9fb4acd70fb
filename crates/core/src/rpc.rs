//! The client ↔ server process boundary.
//!
//! In the original deployment the SPHINX client and server were separate
//! processes: "the communication between all the components uses
//! GSI-enabled XML-RPC services" through the Clarens framework (§3,
//! Figure 1). This module reproduces that boundary with threads: the
//! server runs in its own thread, owns its database, and is reachable
//! only through typed request/response channels — no shared memory, no
//! direct method calls. The [`ServerHandle`] is the client-side stub.
//!
//! The grid simulation stays on the caller's thread (it is the time
//! authority), so calls are synchronous round-trips, exactly like the
//! original's blocking XML-RPC. Determinism is preserved: one outstanding
//! request at a time, FIFO channels.

use crate::messages::{PlanNotice, StatusReport};
use crate::server::{ServerConfig, ServerStats, SphinxServer};
use crate::strategy::SiteInfo;
use sphinx_dag::Dag;
use sphinx_data::{ReplicaService, SiteId, TransferModel};
use sphinx_db::Database;
use sphinx_monitor::Report;
use sphinx_policy::{Requirement, UserId, VoId};
use sphinx_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Requests the client stub can issue (the RPC surface of Figure 1).
enum Request {
    SubmitDag {
        dag: Box<Dag>,
        user: UserId,
        now: SimTime,
        deadline: Option<SimTime>,
    },
    /// Tracker reports (the client's message-handling direction).
    Report {
        report: StatusReport,
        now: SimTime,
    },
    /// Run one planning pass. The replica catalog travels with the call
    /// and back — in the original both sides spoke to the same external
    /// RLS server; here the caller owns it and lends it per call.
    PlanCycle {
        now: SimTime,
        rls: Box<ReplicaService>,
        reports: BTreeMap<SiteId, Report>,
        transfers: Box<TransferModel>,
    },
    /// Policy administration.
    AddUser {
        user: UserId,
        vo: VoId,
        priority: u32,
    },
    Grant {
        user: UserId,
        site: SiteId,
        granted: Requirement,
    },
    /// Queries.
    AllFinished,
    Stats,
    /// Orderly shutdown.
    Shutdown,
}

enum Response {
    Done,
    Plans {
        plans: Vec<PlanNotice>,
        rls: Box<ReplicaService>,
    },
    Bool(bool),
    Stats(ServerStats),
}

impl Response {
    /// `Some` for the bare acknowledgement.
    fn done(self) -> Option<()> {
        matches!(self, Response::Done).then_some(())
    }
}

/// Client-side stub for a server running in its own thread.
pub struct ServerHandle {
    tx: crossbeam::channel::Sender<Request>,
    rx: crossbeam::channel::Receiver<Response>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Boot a server thread over the given database.
    pub fn spawn(db: Arc<Database>, catalog: Vec<SiteInfo>, config: ServerConfig) -> Self {
        let (req_tx, req_rx) = crossbeam::channel::unbounded::<Request>();
        let (resp_tx, resp_rx) = crossbeam::channel::unbounded::<Response>();
        let thread = std::thread::Builder::new()
            .name("sphinx-server".to_owned())
            .spawn(move || {
                let mut server = SphinxServer::new(db, catalog, config);
                while let Ok(request) = req_rx.recv() {
                    let response = match request {
                        Request::SubmitDag {
                            dag,
                            user,
                            now,
                            deadline,
                        } => {
                            server
                                .submit_dag_with_deadline(&dag, user, now, deadline)
                                .expect("dag submission");
                            Response::Done
                        }
                        Request::Report { report, now } => {
                            server.handle_report(report, now).expect("report handling");
                            Response::Done
                        }
                        Request::PlanCycle {
                            now,
                            mut rls,
                            reports,
                            transfers,
                        } => {
                            let plans = server
                                .plan_cycle(now, &mut rls, &reports, &transfers)
                                .expect("plan cycle");
                            Response::Plans { plans, rls }
                        }
                        Request::AddUser { user, vo, priority } => {
                            server.policy_mut().add_user(user, vo, priority);
                            Response::Done
                        }
                        Request::Grant {
                            user,
                            site,
                            granted,
                        } => {
                            server.policy_mut().grant(user, site, granted);
                            Response::Done
                        }
                        Request::AllFinished => Response::Bool(server.all_finished()),
                        Request::Stats => Response::Stats(server.stats()),
                        Request::Shutdown => break,
                    };
                    if resp_tx.send(response).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn server thread");
        ServerHandle {
            tx: req_tx,
            rx: resp_rx,
            thread: Some(thread),
        }
    }

    /// One blocking round trip. `open` unwraps the one response kind the
    /// request yields; any other kind is a protocol bug.
    fn call<T>(&self, request: Request, open: impl FnOnce(Response) -> Option<T>) -> T {
        self.tx.send(request).expect("server thread alive");
        let response = self.rx.recv().expect("server thread alive");
        open(response).expect("protocol: response kind matches its request")
    }

    /// Submit a DAG (optionally with a QoS deadline).
    pub fn submit_dag(&self, dag: &Dag, user: UserId, now: SimTime, deadline: Option<SimTime>) {
        let request = Request::SubmitDag {
            dag: Box::new(dag.clone()),
            user,
            now,
            deadline,
        };
        self.call(request, Response::done)
    }

    /// Deliver a tracker report.
    pub fn report(&self, report: StatusReport, now: SimTime) {
        self.call(Request::Report { report, now }, Response::done)
    }

    /// Run one planning pass, lending the replica service across the
    /// boundary for the call's duration.
    pub fn plan_cycle(
        &self,
        now: SimTime,
        rls: ReplicaService,
        reports: BTreeMap<SiteId, Report>,
        transfers: &TransferModel,
    ) -> (Vec<PlanNotice>, ReplicaService) {
        let request = Request::PlanCycle {
            now,
            rls: Box::new(rls),
            reports,
            transfers: Box::new(transfers.clone()),
        };
        self.call(request, |response| match response {
            Response::Plans { plans, rls } => Some((plans, *rls)),
            _ => None,
        })
    }

    /// Register a user (policy administration RPC).
    pub fn add_user(&self, user: UserId, vo: VoId, priority: u32) {
        self.call(Request::AddUser { user, vo, priority }, Response::done)
    }

    /// Grant quota (policy administration RPC).
    pub fn grant(&self, user: UserId, site: SiteId, granted: Requirement) {
        let request = Request::Grant {
            user,
            site,
            granted,
        };
        self.call(request, Response::done)
    }

    /// True when every submitted DAG finished.
    pub fn all_finished(&self) -> bool {
        self.call(Request::AllFinished, |response| match response {
            Response::Bool(b) => Some(b),
            _ => None,
        })
    }

    /// Server statistics.
    pub fn stats(&self) -> ServerStats {
        self.call(Request::Stats, |response| match response {
            Response::Stats(s) => Some(s),
            _ => None,
        })
    }

    /// Shut the server thread down (also done on drop).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = self.tx.send(Request::Shutdown);
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::CancelCause;
    use sphinx_dag::WorkloadSpec;
    use sphinx_sim::{Duration, SimRng};

    fn catalog(n: u32) -> Vec<SiteInfo> {
        (0..n)
            .map(|i| SiteInfo {
                id: SiteId(i),
                name: format!("site{i}"),
                cpus: 4,
            })
            .collect()
    }

    fn handle() -> ServerHandle {
        ServerHandle::spawn(
            Arc::new(Database::in_memory()),
            catalog(3),
            ServerConfig::default(),
        )
    }

    #[test]
    fn submit_plan_complete_over_rpc() {
        let server = handle();
        let dag = WorkloadSpec::small(1, 5)
            .generate(&SimRng::new(1), 0)
            .remove(0);
        let mut rls = ReplicaService::new();
        for f in dag.external_inputs() {
            rls.register(f, SiteId(0));
        }
        server.submit_dag(&dag, UserId(1), SimTime::ZERO, None);
        assert!(!server.all_finished());
        let model = TransferModel::default();
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while !server.all_finished() {
            guard += 1;
            assert!(guard < 50, "dag should finish over rpc");
            let (plans, back) = server.plan_cycle(now, rls, BTreeMap::new(), &model);
            rls = back;
            for p in plans {
                rls.register(p.output.file.clone(), p.site);
                server.report(
                    StatusReport::Completed {
                        job: p.job,
                        site: p.site,
                        total: Duration::from_secs(90),
                        exec: Duration::from_secs(60),
                        idle: Duration::from_secs(10),
                    },
                    now,
                );
            }
            now += Duration::from_secs(10);
        }
        assert_eq!(server.stats().plans as usize, dag.len());
        server.shutdown();
    }

    #[test]
    fn policy_rpcs_take_effect() {
        let server = ServerHandle::spawn(
            Arc::new(Database::in_memory()),
            catalog(2),
            ServerConfig {
                policy_enabled: true,
                feedback: false,
                strategy: crate::strategy::StrategyKind::RoundRobin,
                ..ServerConfig::default()
            },
        );
        let dag = WorkloadSpec::small(1, 4)
            .generate(&SimRng::new(2), 0)
            .remove(0);
        let mut rls = ReplicaService::new();
        for f in dag.external_inputs() {
            rls.register(f, SiteId(0));
        }
        server.add_user(UserId(1), VoId(0), 1);
        server.grant(UserId(1), SiteId(1), Requirement::new(1_000_000, 1_000_000));
        server.submit_dag(&dag, UserId(1), SimTime::ZERO, None);
        let (plans, _) = server.plan_cycle(
            SimTime::ZERO,
            rls,
            BTreeMap::new(),
            &TransferModel::default(),
        );
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.site == SiteId(1)));
    }

    #[test]
    fn cancellation_reports_count_over_rpc() {
        let server = handle();
        let dag = WorkloadSpec::small(1, 3)
            .generate(&SimRng::new(3), 0)
            .remove(0);
        let mut rls = ReplicaService::new();
        for f in dag.external_inputs() {
            rls.register(f, SiteId(0));
        }
        server.submit_dag(&dag, UserId(1), SimTime::ZERO, None);
        let (plans, _) = server.plan_cycle(
            SimTime::ZERO,
            rls,
            BTreeMap::new(),
            &TransferModel::default(),
        );
        let victim = &plans[0];
        server.report(
            StatusReport::Cancelled {
                job: victim.job,
                site: victim.site,
                cause: CancelCause::Timeout,
            },
            SimTime::from_secs(60),
        );
        assert_eq!(server.stats().reschedules_timeout, 1);
    }

    #[test]
    fn shutdown_is_clean_and_drop_safe() {
        let server = handle();
        server.shutdown();
        let server2 = handle();
        drop(server2); // Drop path also joins the thread.
    }
}
