//! What the SPHINX client submits to a site.

use serde::{Deserialize, Serialize};
use sphinx_data::{FileSpec, LogicalFile, SiteId};
use sphinx_sim::Duration;
use std::fmt;

/// Grid-wide handle of one submission, assigned by [`crate::GridSim`].
/// Resubmitting the same logical job yields a *new* handle, which is how
/// the tracker distinguishes attempts.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobHandle(pub u64);

impl fmt::Display for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// One input file to stage in before execution, with the transfer source
/// the planner chose ("choose the optimal transfer source for the input
/// files" — §3.2, *Planner*, step 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagedInput {
    /// The logical file.
    pub file: LogicalFile,
    /// Its size.
    pub size_mb: u64,
    /// The replica to copy from. `None` means the file is already present
    /// at the execution site (no transfer needed).
    pub source: Option<SiteId>,
}

/// A concrete job submission: the execution plan for one DAG node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Opaque client tag echoed back in every notification (SPHINX uses
    /// the DAG-job key).
    pub tag: u64,
    /// Nominal compute on a reference CPU; the site scales it by speed.
    pub compute: Duration,
    /// Inputs to stage before the job can enter the batch queue.
    pub inputs: Vec<StagedInput>,
    /// The output the job will produce and register at the site.
    pub output: FileSpec,
    /// Persistent-storage site the output must additionally be copied to
    /// (the planner's §3.2 step 4); `None` = leave it on the execution
    /// site only.
    #[serde(default)]
    pub archive_to: Option<SiteId>,
}

impl JobRequest {
    /// A minimal compute-only request (no staging), for tests/examples.
    pub fn compute_only(tag: u64, compute: Duration, output: FileSpec) -> Self {
        JobRequest {
            tag,
            compute,
            inputs: Vec::new(),
            output,
            archive_to: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_only_has_no_staging() {
        let req = JobRequest::compute_only(7, Duration::from_mins(2), FileSpec::new("o", 1));
        assert!(req.inputs.is_empty());
        assert_eq!(req.tag, 7);
    }

    #[test]
    fn handle_display() {
        assert_eq!(format!("{}", JobHandle(12)), "h12");
    }
}
