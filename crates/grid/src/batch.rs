//! Per-site FCFS batch scheduler (the Condor/PBS stand-in).
//!
//! SPHINX "submits the file to the grid resource management system like
//! condor" and from then on "local schedulers on the sites make the
//! execution schedule of the submitted jobs" (§3.3, §4.3). This module is
//! that local scheduler: a first-come-first-served queue over a fixed CPU
//! pool, opaque to the grid scheduler except through queue-length counts
//! and job status changes.

use serde::{Deserialize, Serialize};
use sphinx_sim::Duration;
use std::collections::{BTreeMap, VecDeque};

/// Who owns a batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOwner {
    /// A SPHINX-planned job; `handle` is the grid-wide job handle.
    Sphinx {
        /// Grid-wide handle assigned at submission.
        handle: u64,
    },
    /// A competing-VO job generated by the background load model.
    Background,
}

/// One job inside a site's batch system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchJob {
    /// Site-local batch id.
    pub id: u64,
    /// Owner.
    pub owner: JobOwner,
    /// Wall-clock runtime once dispatched (already divided by CPU speed).
    pub runtime: Duration,
}

/// A site's FCFS batch queue.
#[derive(Debug, Clone, Default)]
pub struct BatchQueue {
    cpus: u32,
    next_id: u64,
    queue: VecDeque<BatchJob>,
    running: BTreeMap<u64, BatchJob>,
    /// Black-hole mode: accept but never dispatch.
    dispatch_frozen: bool,
    completed_total: u64,
    dispatched_total: u64,
    cancelled_total: u64,
}

impl BatchQueue {
    /// An empty queue over `cpus` workers.
    pub fn new(cpus: u32) -> Self {
        BatchQueue {
            cpus,
            ..BatchQueue::default()
        }
    }

    /// Freeze or unfreeze dispatch (black-hole behaviour).
    pub fn set_frozen(&mut self, frozen: bool) {
        self.dispatch_frozen = frozen;
    }

    /// Add a job at the tail of the queue; returns its batch id.
    pub fn enqueue(&mut self, owner: JobOwner, runtime: Duration) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(BatchJob { id, owner, runtime });
        id
    }

    /// Dispatch queued jobs onto free CPUs (FCFS). Returns the jobs that
    /// just started; the caller schedules their finish events.
    pub fn dispatch(&mut self) -> Vec<BatchJob> {
        if self.dispatch_frozen {
            return Vec::new();
        }
        let mut started = Vec::new();
        while (self.running.len() as u32) < self.cpus {
            let Some(job) = self.queue.pop_front() else {
                break;
            };
            self.running.insert(job.id, job);
            started.push(job);
        }
        self.dispatched_total += started.len() as u64;
        started
    }

    /// A running job finished; returns it if it was indeed running (a
    /// stale finish event for a cancelled job returns `None`).
    pub fn finish(&mut self, batch_id: u64) -> Option<BatchJob> {
        let job = self.running.remove(&batch_id);
        if job.is_some() {
            self.completed_total += 1;
        }
        job
    }

    /// Remove a job wherever it is. Returns whether it was found and
    /// whether it was running (as opposed to queued).
    pub fn cancel(&mut self, batch_id: u64) -> Option<(BatchJob, bool)> {
        if let Some(job) = self.running.remove(&batch_id) {
            self.cancelled_total += 1;
            return Some((job, true));
        }
        if let Some(pos) = self.queue.iter().position(|j| j.id == batch_id) {
            let job = self.queue.remove(pos).expect("position just found");
            self.cancelled_total += 1;
            return Some((job, false));
        }
        None
    }

    /// Kill every job (site crash). Returns `(queued, running)` jobs.
    pub fn kill_all(&mut self) -> (Vec<BatchJob>, Vec<BatchJob>) {
        let queued: Vec<BatchJob> = self.queue.drain(..).collect();
        let running: Vec<BatchJob> = std::mem::take(&mut self.running).into_values().collect();
        (queued, running)
    }

    /// True if the given batch id is currently running.
    pub fn is_running(&self, batch_id: u64) -> bool {
        self.running.contains_key(&batch_id)
    }

    /// Number of waiting jobs.
    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Free CPUs.
    pub fn free_cpus(&self) -> u32 {
        self.cpus - self.running.len() as u32
    }

    /// Jobs completed over this queue's lifetime.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Jobs dispatched onto CPUs over this queue's lifetime.
    pub fn dispatched_total(&self) -> u64 {
        self.dispatched_total
    }

    /// Jobs cancelled (queued or running) over this queue's lifetime.
    /// `kill_all` is accounted separately via its return value.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rt(secs: u64) -> Duration {
        Duration::from_secs(secs)
    }

    #[test]
    fn fcfs_dispatch_up_to_cpu_count() {
        let mut q = BatchQueue::new(2);
        for i in 0..4 {
            q.enqueue(JobOwner::Sphinx { handle: i }, rt(60));
        }
        let started = q.dispatch();
        assert_eq!(started.len(), 2);
        assert_eq!(
            started[0].owner,
            JobOwner::Sphinx { handle: 0 },
            "FCFS order"
        );
        assert_eq!(q.queued_count(), 2);
        assert_eq!(q.running_count(), 2);
        assert_eq!(q.free_cpus(), 0);
        // No CPUs free: nothing more starts.
        assert!(q.dispatch().is_empty());
    }

    #[test]
    fn finish_frees_cpu_and_next_starts() {
        let mut q = BatchQueue::new(1);
        let a = q.enqueue(JobOwner::Background, rt(10));
        q.enqueue(JobOwner::Background, rt(10));
        q.dispatch();
        assert!(q.is_running(a));
        let done = q.finish(a).unwrap();
        assert_eq!(done.id, a);
        assert_eq!(q.completed_total(), 1);
        let started = q.dispatch();
        assert_eq!(started.len(), 1);
    }

    #[test]
    fn stale_finish_is_ignored() {
        let mut q = BatchQueue::new(1);
        let a = q.enqueue(JobOwner::Background, rt(10));
        q.dispatch();
        q.cancel(a);
        assert!(q.finish(a).is_none());
        assert_eq!(q.completed_total(), 0);
    }

    #[test]
    fn cancel_queued_vs_running() {
        let mut q = BatchQueue::new(1);
        let a = q.enqueue(JobOwner::Sphinx { handle: 1 }, rt(10));
        let b = q.enqueue(JobOwner::Sphinx { handle: 2 }, rt(10));
        q.dispatch();
        let (_, was_running) = q.cancel(a).unwrap();
        assert!(was_running);
        let (_, was_running) = q.cancel(b).unwrap();
        assert!(!was_running);
        assert!(q.cancel(99).is_none());
    }

    #[test]
    fn lifetime_totals_track_dispatch_and_cancel() {
        let mut q = BatchQueue::new(2);
        let a = q.enqueue(JobOwner::Background, rt(10));
        let b = q.enqueue(JobOwner::Background, rt(10));
        let c = q.enqueue(JobOwner::Background, rt(10));
        assert_eq!(q.dispatch().len(), 2);
        assert_eq!(q.dispatched_total(), 2);
        q.cancel(a); // running
        q.cancel(c); // queued
        assert_eq!(q.cancelled_total(), 2);
        q.cancel(a); // already gone: not double-counted
        assert_eq!(q.cancelled_total(), 2);
        q.finish(b);
        q.dispatch();
        assert_eq!(
            q.dispatched_total(),
            2,
            "queue drained, nothing new started"
        );
        assert_eq!(q.completed_total(), 1);
    }

    #[test]
    fn frozen_queue_never_dispatches() {
        let mut q = BatchQueue::new(8);
        q.set_frozen(true);
        q.enqueue(JobOwner::Background, rt(1));
        assert!(q.dispatch().is_empty());
        assert_eq!(q.queued_count(), 1);
        q.set_frozen(false);
        assert_eq!(q.dispatch().len(), 1);
    }

    #[test]
    fn kill_all_reports_both_populations() {
        let mut q = BatchQueue::new(1);
        q.enqueue(JobOwner::Sphinx { handle: 1 }, rt(10));
        q.enqueue(JobOwner::Sphinx { handle: 2 }, rt(10));
        q.dispatch();
        let (queued, running) = q.kill_all();
        assert_eq!(queued.len(), 1);
        assert_eq!(running.len(), 1);
        assert_eq!(q.queued_count(), 0);
        assert_eq!(q.running_count(), 0);
    }

    proptest! {
        /// running never exceeds the CPU count; counts stay consistent.
        #[test]
        fn prop_cpu_bound_respected(
            cpus in 1u32..8,
            ops in proptest::collection::vec((0u8..3, 0u64..20), 1..100),
        ) {
            let mut q = BatchQueue::new(cpus);
            let mut ids = Vec::new();
            for (op, pick) in ops {
                match op {
                    0 => {
                        ids.push(q.enqueue(JobOwner::Background, rt(10)));
                        q.dispatch();
                    }
                    1 => {
                        if !ids.is_empty() {
                            let id = ids[(pick as usize) % ids.len()];
                            q.finish(id);
                            q.dispatch();
                        }
                    }
                    _ => {
                        if !ids.is_empty() {
                            let id = ids[(pick as usize) % ids.len()];
                            q.cancel(id);
                            q.dispatch();
                        }
                    }
                }
                prop_assert!(q.running_count() as u32 <= cpus);
                prop_assert_eq!(q.free_cpus(), cpus - q.running_count() as u32);
            }
        }
    }
}
