//! Ready-set tracking.
//!
//! "Choose a set of jobs that are ready for execution according to the
//! input data availability" (§3.2, *Planner*, step 1). A [`Frontier`] keeps
//! the per-job count of unfinished parents and yields jobs the instant they
//! become schedulable.

use crate::spec::{children_of, Dag};
use std::collections::BTreeSet;

/// Incremental ready-set tracker over one DAG.
#[derive(Debug, Clone)]
pub struct Frontier {
    /// Remaining unfinished parents per job index.
    waiting_on: Vec<u32>,
    /// Children adjacency.
    children: Vec<Vec<u32>>,
    /// Jobs currently ready and not yet taken.
    ready: BTreeSet<u32>,
    /// Jobs already reported complete.
    completed: Vec<bool>,
    total: usize,
    done: usize,
}

impl Frontier {
    /// Build the tracker; roots are immediately ready.
    pub fn new(dag: &Dag) -> Self {
        let parents = dag.parents();
        let waiting_on: Vec<u32> = parents.iter().map(|p| p.len() as u32).collect();
        let ready = waiting_on
            .iter()
            .enumerate()
            .filter(|(_, &w)| w == 0)
            .map(|(i, _)| i as u32)
            .collect();
        Frontier {
            children: children_of(&parents),
            completed: vec![false; dag.len()],
            total: dag.len(),
            done: 0,
            waiting_on,
            ready,
        }
    }

    /// Build the tracker with some jobs pre-completed (the output of the
    /// DAG reducer): those jobs count as finished from the start.
    pub fn with_completed(dag: &Dag, pre_completed: &[u32]) -> Self {
        let mut f = Frontier::new(dag);
        for &j in pre_completed {
            // A pre-completed job may not be ready yet (its parents may
            // also be pre-completed, in any order); force-complete it.
            f.ready.remove(&j);
            f.complete_inner(j);
        }
        f
    }

    /// Jobs that are ready right now, in index order.
    pub fn ready(&self) -> Vec<u32> {
        self.ready.iter().copied().collect()
    }

    /// Non-allocating view of the ready set, in index order (what the
    /// planner walks every cycle; same order as [`Frontier::ready`]).
    // sphinx-hot
    pub fn ready_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ready.iter().copied()
    }

    /// Number of jobs ready right now.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Remove a job from the ready set (it is being planned). Returns
    /// whether it was actually ready.
    pub fn take(&mut self, job: u32) -> bool {
        self.ready.remove(&job)
    }

    /// Put a previously taken job back into the ready set (its plan was
    /// cancelled and it must be replanned).
    pub fn put_back(&mut self, job: u32) {
        if !self.completed[job as usize] {
            self.ready.insert(job);
        }
    }

    fn complete_inner(&mut self, job: u32) {
        if self.completed[job as usize] {
            return;
        }
        self.completed[job as usize] = true;
        self.done += 1;
        // Detach the child list so sibling state can be mutated while
        // walking it; restored below, so no allocation per completion.
        let children = std::mem::take(&mut self.children[job as usize]);
        for &c in &children {
            let w = &mut self.waiting_on[c as usize];
            debug_assert!(*w > 0);
            *w -= 1;
            if *w == 0 && !self.completed[c as usize] {
                self.ready.insert(c);
            }
        }
        self.children[job as usize] = children;
    }

    /// Mark a job finished, releasing any children whose last dependency
    /// it was. Idempotent.
    pub fn complete(&mut self, job: u32) {
        self.ready.remove(&job);
        self.complete_inner(job);
    }

    /// Number of completed jobs.
    pub fn completed_count(&self) -> usize {
        self.done
    }

    /// True when every job has completed.
    pub fn is_finished(&self) -> bool {
        self.done == self.total
    }

    /// True if this job has completed.
    pub fn is_completed(&self, job: u32) -> bool {
        self.completed[job as usize]
    }

    /// True if this job is in the ready set right now.
    pub fn is_ready(&self, job: u32) -> bool {
        self.ready.contains(&job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DagId, FileSpec, JobId, JobSpec, LogicalFile};
    use proptest::prelude::*;
    use sphinx_sim::Duration;

    fn job(dag: DagId, index: u32, inputs: &[&str], output: &str) -> JobSpec {
        JobSpec {
            id: JobId::new(dag, index),
            name: format!("job{index}"),
            inputs: inputs.iter().map(|&s| LogicalFile::from(s)).collect(),
            output: FileSpec::new(output, 10),
            compute: Duration::from_mins(1),
        }
    }

    fn diamond() -> Dag {
        let d = DagId(1);
        Dag::new(
            d,
            vec![
                job(d, 0, &[], "f0"),
                job(d, 1, &["f0"], "f1"),
                job(d, 2, &["f0"], "f2"),
                job(d, 3, &["f1", "f2"], "f3"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roots_start_ready() {
        let f = Frontier::new(&diamond());
        assert_eq!(f.ready(), vec![0]);
    }

    #[test]
    fn completion_releases_children() {
        let mut f = Frontier::new(&diamond());
        f.complete(0);
        assert_eq!(f.ready(), vec![1, 2]);
        f.complete(1);
        assert_eq!(f.ready(), vec![2]); // 3 still waits on 2
        f.complete(2);
        assert_eq!(f.ready(), vec![3]);
        f.complete(3);
        assert!(f.is_finished());
        assert_eq!(f.completed_count(), 4);
    }

    #[test]
    fn complete_is_idempotent() {
        let mut f = Frontier::new(&diamond());
        f.complete(0);
        f.complete(0);
        assert_eq!(f.completed_count(), 1);
        assert_eq!(f.ready(), vec![1, 2]);
    }

    #[test]
    fn ready_iter_matches_ready() {
        let mut f = Frontier::new(&diamond());
        f.complete(0);
        assert_eq!(f.ready_iter().collect::<Vec<_>>(), f.ready());
        assert_eq!(f.ready_len(), 2);
    }

    #[test]
    fn take_and_put_back() {
        let mut f = Frontier::new(&diamond());
        assert!(f.take(0));
        assert!(f.ready().is_empty());
        assert!(!f.take(0));
        f.put_back(0);
        assert_eq!(f.ready(), vec![0]);
    }

    #[test]
    fn put_back_after_complete_is_noop() {
        let mut f = Frontier::new(&diamond());
        f.complete(0);
        f.put_back(0);
        assert!(!f.ready().contains(&0));
    }

    #[test]
    fn pre_completed_jobs_skip_execution() {
        let dag = diamond();
        let f = Frontier::with_completed(&dag, &[0, 1]);
        assert!(f.is_completed(0));
        assert!(f.is_completed(1));
        assert_eq!(f.completed_count(), 2);
        assert_eq!(f.ready(), vec![2]);
    }

    #[test]
    fn pre_completed_order_does_not_matter() {
        let dag = diamond();
        let a = Frontier::with_completed(&dag, &[1, 0]);
        let b = Frontier::with_completed(&dag, &[0, 1]);
        assert_eq!(a.ready(), b.ready());
    }

    /// Random layered DAG for property tests.
    fn arb_dag() -> impl Strategy<Value = Dag> {
        (2u32..30, 0u64..1000).prop_map(|(n, seed)| {
            let d = DagId(seed);
            let mut rng = sphinx_sim::SimRng::new(seed);
            let jobs: Vec<JobSpec> = (0..n)
                .map(|i| {
                    let n_inputs = rng.range_u64(0, 3.min(i as u64 + 1)) as u32;
                    let inputs: Vec<LogicalFile> = (0..n_inputs)
                        .map(|_| {
                            let p = rng.range_u64(0, i as u64) as u32;
                            LogicalFile::new(format!("d{seed}-f{p}"))
                        })
                        .collect();
                    JobSpec {
                        id: JobId::new(d, i),
                        name: format!("j{i}"),
                        inputs,
                        output: FileSpec::new(format!("d{seed}-f{i}"), 1),
                        compute: Duration::from_mins(1),
                    }
                })
                .collect();
            Dag::new(d, jobs).unwrap()
        })
    }

    proptest! {
        /// Completing jobs in any valid order finishes the DAG, and no job
        /// is ever ready before all its parents completed.
        #[test]
        fn prop_frontier_schedules_everything(dag in arb_dag(), seed in 0u64..1000) {
            let mut f = Frontier::new(&dag);
            let parents = dag.parents();
            let mut rng = sphinx_sim::SimRng::new(seed);
            let mut steps = 0;
            while !f.is_finished() {
                let ready = f.ready();
                prop_assert!(!ready.is_empty(), "stuck with unfinished jobs");
                for &j in &ready {
                    for &p in &parents[j as usize] {
                        prop_assert!(f.is_completed(p), "job ready before parent");
                    }
                }
                let pick = *rng.choose(&ready);
                f.complete(pick);
                steps += 1;
                prop_assert!(steps <= dag.len());
            }
            prop_assert_eq!(f.completed_count(), dag.len());
        }

        /// The children a walk derives from the parents it holds are
        /// `Dag::children`, and by definition the jobs that read each
        /// job's output.
        #[test]
        fn prop_children_derive_from_parents(dag in arb_dag()) {
            let children = children_of(&dag.parents());
            prop_assert_eq!(&children, &dag.children());
            for (job, kids) in dag.jobs.iter().zip(&children) {
                let readers: Vec<u32> = dag
                    .jobs
                    .iter()
                    .filter(|c| c.inputs.contains(&job.output.file))
                    .map(|c| c.id.index)
                    .collect();
                prop_assert_eq!(kids, &readers);
            }
        }
    }
}
