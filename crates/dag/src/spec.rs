//! DAG and job specifications.

use serde::{Deserialize, Serialize};
use sphinx_sim::Duration;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a DAG within one SPHINX server.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DagId(pub u64);

impl DagId {
    /// The [`JobId::as_key`] keys of every job of this DAG: one contiguous
    /// range, because the key leads with the DAG id.
    pub fn job_keys(self) -> std::ops::RangeInclusive<u64> {
        let first = JobId::new(self, 0).as_key();
        first..=first | JobId::INDEX_MASK
    }
}

impl fmt::Display for DagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dag{}", self.0)
    }
}

/// Identifier of a job: its DAG plus its index within the DAG.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobId {
    /// Owning DAG.
    pub dag: DagId,
    /// Index of the job within [`Dag::jobs`].
    pub index: u32,
}

impl JobId {
    /// Bits of [`JobId::as_key`] that hold the job index.
    const INDEX_BITS: u32 = 24;
    const INDEX_MASK: u64 = (1 << Self::INDEX_BITS) - 1;

    /// Job `index` of DAG `dag`.
    pub fn new(dag: DagId, index: u32) -> Self {
        JobId { dag, index }
    }

    /// A dense `u64` encoding usable as a database primary key.
    pub fn as_key(self) -> u64 {
        (self.dag.0 << Self::INDEX_BITS) | self.index as u64
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/j{}", self.dag, self.index)
    }
}

pub use sphinx_data::{FileSpec, LogicalFile};

/// One job of an abstract DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The job's identity.
    pub id: JobId,
    /// Human-readable name (transformation name in Chimera terms).
    pub name: String,
    /// Logical input files. Inputs produced by another job of the same DAG
    /// create a dependency edge; the rest must pre-exist in a replica
    /// catalog.
    pub inputs: Vec<LogicalFile>,
    /// The single output file the job derives.
    pub output: FileSpec,
    /// Nominal compute duration on a reference CPU.
    pub compute: Duration,
}

/// What a DAG validation can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagValidationError {
    /// Two jobs claim to derive the same logical output.
    DuplicateOutput(LogicalFile),
    /// A job's id does not match its position / owning DAG.
    MisnumberedJob { expected: JobId, found: JobId },
    /// The file-dependency relation has a cycle through this file.
    Cycle(LogicalFile),
    /// A job lists the same file as both input and output.
    SelfDependency(JobId),
}

impl fmt::Display for DagValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagValidationError::DuplicateOutput(file) => {
                write!(f, "output `{file}` derived by more than one job")
            }
            DagValidationError::MisnumberedJob { expected, found } => {
                write!(f, "job numbered {found} where {expected} expected")
            }
            DagValidationError::Cycle(file) => {
                write!(f, "dependency cycle through `{file}`")
            }
            DagValidationError::SelfDependency(job) => {
                write!(f, "job {job} consumes its own output")
            }
        }
    }
}

impl std::error::Error for DagValidationError {}

/// An abstract DAG: a set of jobs whose edges are derived from logical
/// file dependencies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dag {
    /// Identity of the DAG.
    pub id: DagId,
    /// The jobs, indexed by [`JobId::index`].
    pub jobs: Vec<JobSpec>,
}

impl Dag {
    /// Build and validate a DAG.
    pub fn new(id: DagId, jobs: Vec<JobSpec>) -> Result<Self, DagValidationError> {
        let dag = Dag { id, jobs };
        dag.validate()?;
        Ok(dag)
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the DAG has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The job with the given index.
    pub fn job(&self, index: u32) -> Option<&JobSpec> {
        self.jobs.get(index as usize)
    }

    /// Map from logical output file to the index of the job deriving it.
    pub fn producers(&self) -> BTreeMap<&LogicalFile, u32> {
        self.jobs
            .iter()
            .map(|j| (&j.output.file, j.id.index))
            .collect()
    }

    /// For each job, the indices of the jobs it depends on (parents),
    /// derived from file dependencies. Sorted, deduplicated.
    pub fn parents(&self) -> Vec<Vec<u32>> {
        let producers = self.producers();
        self.jobs
            .iter()
            .map(|j| {
                let mut ps: Vec<u32> = j
                    .inputs
                    .iter()
                    .filter_map(|f| producers.get(f).copied())
                    .collect();
                ps.sort_unstable();
                ps.dedup();
                ps
            })
            .collect()
    }

    /// For each job, the indices of the jobs depending on it (children).
    pub fn children(&self) -> Vec<Vec<u32>> {
        children_of(&self.parents())
    }

    /// Inputs that no job of this DAG produces — they must pre-exist in a
    /// replica catalog.
    pub fn external_inputs(&self) -> BTreeSet<LogicalFile> {
        let produced: BTreeSet<&LogicalFile> = self.jobs.iter().map(|j| &j.output.file).collect();
        self.jobs
            .iter()
            .flat_map(|j| j.inputs.iter())
            .filter(|f| !produced.contains(f))
            .cloned()
            .collect()
    }

    /// A topological order of job indices (parents before children).
    /// `None` if the DAG is cyclic.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let (order, _) = kahn(&self.parents());
        (order.len() == self.jobs.len()).then_some(order)
    }

    /// Longest path length in jobs (the critical-path depth); 0 for an
    /// empty DAG.
    pub fn depth(&self) -> usize {
        let parents = self.parents();
        let (order, _) = kahn(&parents);
        if order.len() < self.jobs.len() {
            return 0;
        }
        let mut level = vec![0usize; self.jobs.len()];
        let mut max = 0;
        for j in order {
            let l = parents[j as usize]
                .iter()
                .map(|&p| level[p as usize] + 1)
                .max()
                .unwrap_or(1);
            level[j as usize] = l;
            max = max.max(l);
        }
        max
    }

    /// Check structural invariants (see [`DagValidationError`]).
    pub fn validate(&self) -> Result<(), DagValidationError> {
        let mut seen_outputs: BTreeSet<&LogicalFile> = BTreeSet::new();
        for (i, job) in self.jobs.iter().enumerate() {
            let expected = JobId::new(self.id, i as u32);
            if job.id != expected {
                return Err(DagValidationError::MisnumberedJob {
                    expected,
                    found: job.id,
                });
            }
            if job.inputs.contains(&job.output.file) {
                return Err(DagValidationError::SelfDependency(job.id));
            }
            if !seen_outputs.insert(&job.output.file) {
                return Err(DagValidationError::DuplicateOutput(job.output.file.clone()));
            }
        }
        let (order, unmet) = kahn(&self.parents());
        if order.len() < self.jobs.len() {
            // Identify some file on a cycle for the error message. Cheap
            // heuristic: report the output of the first job whose
            // dependencies never resolve.
            let stuck = unmet.iter().position(|&d| d > 0).unwrap_or(0);
            return Err(DagValidationError::Cycle(
                self.jobs[stuck].output.file.clone(),
            ));
        }
        Ok(())
    }
}

/// For each job, the jobs that list it among their `parents` (as
/// [`Dag::parents`] gives them), in index order: the children, derived
/// without building the producer map again.
pub(crate) fn children_of(parents: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); parents.len()];
    for (child, ps) in parents.iter().enumerate() {
        for &p in ps {
            out[p as usize].push(child as u32);
        }
    }
    out
}

/// Kahn's walk over `parents`: the jobs in a topological order, and for
/// each job how many of its parents the walk never reached (all zero
/// unless the DAG has a cycle, when the order is short).
fn kahn(parents: &[Vec<u32>]) -> (Vec<u32>, Vec<usize>) {
    let children = children_of(parents);
    let mut unmet: Vec<usize> = parents.iter().map(Vec::len).collect();
    let mut order: Vec<u32> = unmet
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i as u32)
        .collect();
    let mut head = 0;
    while let Some(&j) = order.get(head) {
        head += 1;
        for &c in &children[j as usize] {
            unmet[c as usize] -= 1;
            if unmet[c as usize] == 0 {
                order.push(c);
            }
        }
    }
    (order, unmet)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(dag: DagId, index: u32, inputs: &[&str], output: &str) -> JobSpec {
        JobSpec {
            id: JobId::new(dag, index),
            name: format!("job{index}"),
            inputs: inputs.iter().map(|&s| LogicalFile::from(s)).collect(),
            output: FileSpec::new(output, 100),
            compute: Duration::from_mins(1),
        }
    }

    /// in0 -> j0 -> f0 -> j1 -> f1
    ///              \-> j2 -> f2 ; j3 consumes f1+f2
    fn diamond() -> Dag {
        let d = DagId(1);
        Dag::new(
            d,
            vec![
                job(d, 0, &["in0"], "f0"),
                job(d, 1, &["f0"], "f1"),
                job(d, 2, &["f0"], "f2"),
                job(d, 3, &["f1", "f2"], "f3"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn parents_and_children_derive_from_files() {
        let dag = diamond();
        let parents = dag.parents();
        assert_eq!(parents[0], Vec::<u32>::new());
        assert_eq!(parents[1], vec![0]);
        assert_eq!(parents[2], vec![0]);
        assert_eq!(parents[3], vec![1, 2]);
        let children = dag.children();
        assert_eq!(children[0], vec![1, 2]);
        assert_eq!(children[3], Vec::<u32>::new());
    }

    #[test]
    fn external_inputs_exclude_internal_products() {
        let dag = diamond();
        let ext = dag.external_inputs();
        assert_eq!(ext.len(), 1);
        assert!(ext.contains(&LogicalFile::from("in0")));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let dag = diamond();
        let order = dag.topo_order().unwrap();
        let pos = |j: u32| order.iter().position(|&x| x == j).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn depth_is_critical_path() {
        assert_eq!(diamond().depth(), 3);
        let d = DagId(2);
        let chain = Dag::new(
            d,
            vec![
                job(d, 0, &["x"], "c0"),
                job(d, 1, &["c0"], "c1"),
                job(d, 2, &["c1"], "c2"),
            ],
        )
        .unwrap();
        assert_eq!(chain.depth(), 3);
    }

    #[test]
    fn duplicate_output_rejected() {
        let d = DagId(3);
        let err = Dag::new(d, vec![job(d, 0, &[], "same"), job(d, 1, &[], "same")]).unwrap_err();
        assert_eq!(
            err,
            DagValidationError::DuplicateOutput(LogicalFile::from("same"))
        );
    }

    #[test]
    fn self_dependency_rejected() {
        let d = DagId(4);
        let err = Dag::new(d, vec![job(d, 0, &["loop"], "loop")]).unwrap_err();
        assert_eq!(err, DagValidationError::SelfDependency(JobId::new(d, 0)));
    }

    #[test]
    fn cycle_rejected() {
        let d = DagId(5);
        let err = Dag::new(d, vec![job(d, 0, &["b"], "a"), job(d, 1, &["a"], "b")]).unwrap_err();
        assert!(matches!(err, DagValidationError::Cycle(_)));
    }

    #[test]
    fn misnumbered_job_rejected() {
        let d = DagId(6);
        let mut j = job(d, 0, &[], "out");
        j.id = JobId::new(DagId(99), 0);
        let err = Dag::new(d, vec![j]).unwrap_err();
        assert!(matches!(err, DagValidationError::MisnumberedJob { .. }));
    }

    #[test]
    fn job_id_key_is_unique_per_dag_and_index() {
        let a = JobId::new(DagId(1), 2).as_key();
        let b = JobId::new(DagId(1), 3).as_key();
        let c = JobId::new(DagId(2), 2).as_key();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn job_keys_cover_exactly_one_dag() {
        let keys = DagId(7).job_keys();
        assert!(keys.contains(&JobId::new(DagId(7), 0).as_key()));
        assert!(keys.contains(&JobId::new(DagId(7), (1 << 24) - 1).as_key()));
        assert!(!keys.contains(&JobId::new(DagId(6), (1 << 24) - 1).as_key()));
        assert!(!keys.contains(&JobId::new(DagId(8), 0).as_key()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", JobId::new(DagId(3), 7)), "dag3/j7");
        assert_eq!(format!("{}", LogicalFile::from("f.dat")), "f.dat");
    }

    #[test]
    fn empty_dag_is_valid_and_trivial() {
        let dag = Dag::new(DagId(7), vec![]).unwrap();
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert_eq!(dag.topo_order(), Some(vec![]));
    }
}
