//! The SPHINX client: submission agent + job tracker.
//!
//! "The SPHINX client interacts with both the scheduling server that
//! allocates resources for task execution, and a grid resource management
//! system such as DAGMan/Condor-G. … The tracking module in the client
//! keeps track of execution status of submitted jobs. If the execution is
//! held or killed on remote sites, then the client reports the status
//! change to the server, and requests replanning of the killed or held
//! jobs. The client also sends the job cancellation message to the remote
//! sites. … The tracker also maintains timing information for the
//! submitted jobs" (§3.3).
//!
//! The tracker additionally enforces a **timeout**: a submission that has
//! produced no completion by its deadline is cancelled at the site and
//! reported for replanning. This is the client-side mechanism behind
//! Figure 8's timeout counts — it is the only way to recover jobs sent to
//! a site that silently died or black-holed them.

use crate::messages::{CancelCause, PlanNotice, StatusReport};
use sphinx_dag::JobId;
use sphinx_data::SiteId;
use sphinx_grid::{GridSim, JobHandle, JobRequest, Notification};
use sphinx_sim::{Duration, SimTime};
use std::collections::BTreeMap;

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Submission-to-completion deadline before the tracker cancels and
    /// requests a replan.
    pub timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        // Paper workload: jobs take 3–4 minutes end to end; half an hour
        // of silence means the site is queueing us indefinitely or dead.
        ClientConfig {
            timeout: Duration::from_mins(30),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Tracked {
    job: JobId,
    site: SiteId,
    submitted_at: SimTime,
    deadline: SimTime,
}

/// The client.
#[derive(Debug)]
pub struct SphinxClient {
    config: ClientConfig,
    by_handle: BTreeMap<JobHandle, Tracked>,
    timeouts: u64,
    submissions: u64,
}

impl SphinxClient {
    /// A client with the given tracker configuration.
    pub fn new(config: ClientConfig) -> Self {
        SphinxClient {
            config,
            by_handle: BTreeMap::new(),
            timeouts: 0,
            submissions: 0,
        }
    }

    /// Execute one plan: build the submission file and hand it to the
    /// grid resource management layer.
    pub fn submit_plan(
        &mut self,
        grid: &mut GridSim,
        plan: &PlanNotice,
        now: SimTime,
    ) -> JobHandle {
        let request = JobRequest {
            tag: plan.job.as_key(),
            compute: plan.compute,
            inputs: plan.staging.clone(),
            output: plan.output.clone(),
            archive_to: plan.archive_to,
        };
        let handle = grid.submit(plan.site, request);
        self.by_handle.insert(
            handle,
            Tracked {
                job: plan.job,
                site: plan.site,
                submitted_at: now,
                deadline: now + self.config.timeout,
            },
        );
        self.submissions += 1;
        handle
    }

    /// Translate a grid notification into a tracker report for the
    /// server. Notifications for attempts the tracker no longer follows
    /// (already cancelled/replanned) are dropped.
    pub fn on_notification(
        &mut self,
        notification: &Notification,
        now: SimTime,
    ) -> Option<StatusReport> {
        match notification {
            Notification::JobQueued { handle, .. } => {
                let t = self.by_handle.get(handle)?;
                Some(StatusReport::Queued {
                    job: t.job,
                    site: t.site,
                })
            }
            Notification::JobRunning { handle, .. } => {
                let t = self.by_handle.get(handle)?;
                Some(StatusReport::Running {
                    job: t.job,
                    site: t.site,
                })
            }
            Notification::JobCompleted {
                handle,
                queued_for,
                ran_for,
                ..
            } => {
                let t = self.by_handle.remove(handle)?;
                Some(StatusReport::Completed {
                    job: t.job,
                    site: t.site,
                    total: now.since(t.submitted_at),
                    exec: *ran_for,
                    idle: *queued_for,
                })
            }
            Notification::JobHeld { handle, .. } => {
                let t = self.by_handle.remove(handle)?;
                Some(StatusReport::Cancelled {
                    job: t.job,
                    site: t.site,
                    cause: CancelCause::Held,
                })
            }
            Notification::Wakeup { .. } => None,
        }
    }

    /// Cancel every tracked submission whose deadline has passed and
    /// report them for replanning.
    pub fn scan_timeouts(&mut self, grid: &mut GridSim, now: SimTime) -> Vec<StatusReport> {
        let expired: Vec<JobHandle> = self
            .by_handle
            .iter()
            .filter(|(_, t)| t.deadline <= now)
            .map(|(&h, _)| h)
            .collect();
        let mut reports = Vec::with_capacity(expired.len());
        for handle in expired {
            let Some(t) = self.by_handle.remove(&handle) else {
                continue;
            };
            // "The client also sends the job cancellation message to the
            // remote sites" — harmless if the site lost the job already.
            grid.cancel(t.site, handle);
            self.timeouts += 1;
            reports.push(StatusReport::Cancelled {
                job: t.job,
                site: t.site,
                cause: CancelCause::Timeout,
            });
        }
        reports
    }

    /// Submissions currently tracked.
    pub fn tracked(&self) -> usize {
        self.by_handle.len()
    }

    /// The tracked jobs and the site each was submitted to. The
    /// coordination plane uses this as the survivor-side truth when
    /// reconciling an adopted shard's torn WAL tail: the tracker outlives
    /// any single scheduler shard.
    pub fn tracked_jobs(&self) -> BTreeMap<JobId, SiteId> {
        self.by_handle.values().map(|t| (t.job, t.site)).collect()
    }

    /// Lifetime timeout count.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Lifetime submission count.
    pub fn submissions(&self) -> u64 {
        self.submissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphinx_dag::DagId;
    use sphinx_data::{FileSpec, TransferModel};
    use sphinx_grid::SiteSpec;

    fn grid() -> GridSim {
        GridSim::new(
            vec![SiteSpec::new(SiteId(0), "s0", 2)],
            TransferModel::default(),
            1,
        )
    }

    fn plan(index: u32) -> PlanNotice {
        PlanNotice {
            job: JobId::new(DagId(0), index),
            site: SiteId(0),
            staging: Vec::new(),
            compute: Duration::from_mins(1),
            output: FileSpec::new(format!("o{index}"), 10),
            planned_at: SimTime::ZERO,
            archive_to: None,
        }
    }

    #[test]
    fn lifecycle_reports_flow_through() {
        let mut g = grid();
        let mut c = SphinxClient::new(ClientConfig::default());
        let now = g.now();
        c.submit_plan(&mut g, &plan(0), now);
        let mut reports = Vec::new();
        while g.step() {
            let now = g.now();
            for n in g.poll() {
                if let Some(r) = c.on_notification(&n, now) {
                    reports.push(r);
                }
            }
        }
        assert!(matches!(reports[0], StatusReport::Queued { .. }));
        assert!(matches!(reports[1], StatusReport::Running { .. }));
        match &reports[2] {
            StatusReport::Completed { total, exec, .. } => {
                assert!(total >= exec, "total includes submission latency");
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(c.tracked(), 0);
        assert_eq!(c.submissions(), 1);
    }

    #[test]
    fn timeout_cancels_and_reports() {
        let mut g = GridSim::new(
            vec![SiteSpec::new(SiteId(0), "hole", 2)
                .with_faults(sphinx_grid::FaultProfile::black_hole())],
            TransferModel::default(),
            1,
        );
        let mut c = SphinxClient::new(ClientConfig {
            timeout: Duration::from_mins(5),
        });
        let now = g.now();
        c.submit_plan(&mut g, &plan(0), now);
        g.run_until(SimTime::from_secs(6 * 60));
        // Drain queue notifications (job is queued, never runs).
        let now = g.now();
        for n in g.poll() {
            c.on_notification(&n, now);
        }
        // The event clock stalls once the hole swallows the job; the
        // tracker's wall clock has still advanced past the deadline.
        let reports = c.scan_timeouts(&mut g, SimTime::from_secs(6 * 60));
        assert_eq!(reports.len(), 1);
        assert!(matches!(
            reports[0],
            StatusReport::Cancelled {
                cause: CancelCause::Timeout,
                ..
            }
        ));
        assert_eq!(c.timeouts(), 1);
        // The black hole's queue is empty again after the cancel.
        assert_eq!(g.snapshot(SiteId(0)).unwrap().queued, 0);
    }

    #[test]
    fn stale_notifications_after_timeout_are_dropped() {
        let mut g = grid();
        let mut c = SphinxClient::new(ClientConfig {
            timeout: Duration::ZERO, // expire immediately
        });
        let now = g.now();
        c.submit_plan(&mut g, &plan(0), now);
        let now = g.now();
        let reports = c.scan_timeouts(&mut g, now);
        assert_eq!(reports.len(), 1);
        // Any late notification for the cancelled handle is ignored.
        while g.step() {
            let now = g.now();
            for n in g.poll() {
                assert!(c.on_notification(&n, now).is_none());
            }
        }
    }

    #[test]
    fn no_timeouts_before_deadline() {
        let mut g = grid();
        let mut c = SphinxClient::new(ClientConfig::default());
        let now = g.now();
        c.submit_plan(&mut g, &plan(0), now);
        assert!(c
            .scan_timeouts(&mut g, SimTime::from_secs(29 * 60))
            .is_empty());
        assert_eq!(c.tracked(), 1);
    }
}
