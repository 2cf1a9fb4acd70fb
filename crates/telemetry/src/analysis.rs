//! Post-run span-graph analysis: critical paths, dwell blame, slow jobs.
//!
//! The instrumented pipeline leaves behind a span forest (see
//! [`crate::span`]): one `dag` root per workflow, one `job` span per
//! job, per-attempt and per-state child spans, and `link` edges that
//! record causality across subtrees — a job's first `state:ready` span
//! links to the job span whose completion made it ready, and a replan
//! `attempt` span links to the attempt it replaces.
//!
//! [`SpanGraph`] walks that forest to answer the question the flat
//! trace cannot: *why did DAG N finish when it did?* The critical path
//! of a DAG is recovered by starting from its last-finishing job and
//! following ready-cause links backwards to a root job; the chain's
//! state spans tile the makespan, each attributed to planner wait,
//! queue wait, execution, or fault recovery.
//!
//! Everything here is pure post-processing over an immutable span list:
//! deterministic input (same seed) gives identical [`TraceAnalysis`]
//! output, which `RunReport` carries and the determinism suite asserts.
//!
//! The list is indexed **once**, in [`SpanGraph::new`]: id → position,
//! the spans of each job and the `dag` / `job` spans of each DAG, every
//! group in list order. Each query then reads only the groups of the
//! jobs it chains, so a whole [`SpanGraph::analyze`] costs
//! O(spans · log spans) to index plus O(Σ chained jobs' spans) to walk,
//! where a scan per query cost O(DAGs × chain × spans). The scanning
//! implementation survives as the test oracle at the bottom of this file.

use crate::span::{Span, SpanId};
use serde::{Deserialize, Serialize};

/// DAG id component of a dense job key (see `sphinx_dag::JobId::as_key`).
pub fn job_key_dag(key: u64) -> u64 {
    key >> 24
}

/// Index component of a dense job key.
pub fn job_key_index(key: u64) -> u64 {
    key & 0x00FF_FFFF
}

/// Where one job's lifetime went, in sim-milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DwellBreakdown {
    /// Waiting for upstream jobs (`state:unready`).
    pub dependency_ms: u64,
    /// Ready and waiting for the planner's first placement
    /// (`state:ready` before any attempt).
    pub planner_ms: u64,
    /// Submitted/queued on the final, successful attempt.
    pub queue_ms: u64,
    /// Running on the final attempt.
    pub execution_ms: u64,
    /// Everything spent on failed attempts and post-fault re-readiness.
    pub fault_ms: u64,
}

impl DwellBreakdown {
    /// The dominant category name ("execution", "queue", "planner",
    /// "fault-recovery" or "dependencies"); ties break toward the
    /// earlier pipeline stage.
    pub fn blame(&self) -> &'static str {
        let cats: [(&'static str, u64); 5] = [
            ("dependencies", self.dependency_ms),
            ("planner", self.planner_ms),
            ("queue", self.queue_ms),
            ("execution", self.execution_ms),
            ("fault-recovery", self.fault_ms),
        ];
        let mut best = cats[0];
        for c in cats {
            if c.1 > best.1 {
                best = c;
            }
        }
        best.0
    }
}

/// One step of a critical path: a single dwell-state span of a chained
/// job, in sim-milliseconds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalStep {
    /// Span name (`state:unready`, `state:ready`, `state:submitted`,
    /// `state:queued`, `state:running`).
    pub name: String,
    /// Dense job key the step belongs to.
    pub job: u64,
    /// Site, where the state is site-bound.
    pub site: Option<u32>,
    /// Planning attempt the step belongs to.
    pub attempt: u64,
    /// Step start (sim ms).
    pub start_ms: u64,
    /// Step end (sim ms).
    pub end_ms: u64,
}

impl CriticalStep {
    /// Step length in sim-milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// The chain of spans that determined one DAG's completion time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CriticalPath {
    /// DAG id.
    pub dag: u64,
    /// DAG span length (submission to finish), sim-ms.
    pub makespan_ms: u64,
    /// Sum of step durations along the path, sim-ms.
    pub path_ms: u64,
    /// Chained job keys, upstream first.
    pub jobs: Vec<u64>,
    /// Per-state steps of every chained job, in time order.
    pub steps: Vec<CriticalStep>,
}

/// A slow job with the blame for its latency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobBlame {
    /// Dense job key.
    pub job: u64,
    /// Owning DAG.
    pub dag: u64,
    /// Job span length (first state to terminal), sim-ms.
    pub total_ms: u64,
    /// Planning attempts consumed.
    pub attempts: u64,
    /// Where the time went.
    pub dwell: DwellBreakdown,
    /// Dominant category (`dwell.blame()`), denormalised for reports.
    pub blame: String,
}

/// Post-run causal analysis attached to `RunReport`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceAnalysis {
    /// One critical path per finished DAG, by DAG id.
    pub critical_paths: Vec<CriticalPath>,
    /// Top-N slowest jobs, slowest first.
    pub slowest_jobs: Vec<JobBlame>,
    /// Spans ever started by the hub.
    pub spans_total: u64,
    /// Spans still live when the analysis ran.
    pub spans_live: u64,
    /// Finished spans evicted from the bounded store.
    pub spans_dropped: u64,
}

/// Positions into a span list grouped by a `u64` key (span id, job key
/// or DAG id), sorted by `(key, position)`: one key's group is a
/// contiguous run that keeps list order, which is what every tie-break
/// below relies on.
struct Groups(Vec<(u64, usize)>);

impl Groups {
    fn new(mut entries: Vec<(u64, usize)>) -> Self {
        entries.sort_unstable();
        Groups(entries)
    }

    /// Positions filed under `key`, ascending.
    fn of(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let lo = self.0.partition_point(|e| e.0 < key);
        self.0
            .iter()
            .skip(lo)
            .take_while(move |e| e.0 == key)
            .map(|e| e.1)
    }
}

/// An indexed, immutable view over a span forest.
pub struct SpanGraph {
    spans: Vec<Span>,
    /// Every span, under its id.
    by_id: Groups,
    /// Every span that names a job, grouped by job key.
    by_job: Groups,
    /// The `dag` and `job` spans of each DAG, grouped by DAG id.
    by_dag: Groups,
}

impl SpanGraph {
    /// Index a span list (as returned by `Telemetry::spans`).
    pub fn new(spans: Vec<Span>) -> Self {
        let mut by_id = Vec::with_capacity(spans.len());
        let mut by_job = Vec::new();
        let mut by_dag = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            by_id.push((span.id.0, i));
            if let Some(job) = span.job {
                by_job.push((job, i));
            }
            if let (Some(dag), "dag" | "job") = (span.dag, span.name) {
                by_dag.push((dag, i));
            }
        }
        SpanGraph {
            spans,
            by_id: Groups::new(by_id),
            by_job: Groups::new(by_job),
            by_dag: Groups::new(by_dag),
        }
    }

    /// The underlying spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans `groups` files under `key`, in list order.
    fn group<'a>(&'a self, groups: &'a Groups, key: u64) -> impl Iterator<Item = &'a Span> + 'a {
        groups.of(key).map(|i| &self.spans[i])
    }

    /// Lookup by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.group(&self.by_id, id.0).next()
    }

    /// Every span naming `job`, in list order.
    fn job_spans(&self, job: u64) -> impl Iterator<Item = &Span> + '_ {
        self.group(&self.by_job, job)
    }

    /// The finished `state:*` spans of `job`, in list order.
    fn dwell_spans(&self, job: u64) -> impl Iterator<Item = &Span> + '_ {
        self.job_spans(job)
            .filter(|s| s.end.is_some() && s.name.starts_with("state:"))
    }

    /// The `dag` and `job` spans of `dag`, in list order.
    fn dag_spans(&self, dag: u64) -> impl Iterator<Item = &Span> + '_ {
        self.group(&self.by_dag, dag)
    }

    /// Structural invariant check. Returns one message per violation:
    /// a dangling parent id, a child starting before its parent, a
    /// closed parent ending before a closed child, or a job span that is
    /// not rooted at its DAG's span. Empty means the graph is sound.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for span in &self.spans {
            if let Some(end) = span.end.filter(|&end| end < span.start) {
                problems.push(format!(
                    "span {} ({}) ends at {}ms before it starts at {}ms",
                    span.id.0,
                    span.name,
                    end.as_millis(),
                    span.start.as_millis()
                ));
            }
            if let Some(pid) = span.parent {
                match self.get(pid) {
                    None => problems.push(format!(
                        "span {} ({}) has dangling parent {}",
                        span.id.0, span.name, pid.0
                    )),
                    Some(parent) => {
                        if span.start < parent.start {
                            problems.push(format!(
                                "span {} ({}) starts before its parent {} ({})",
                                span.id.0, span.name, parent.id.0, parent.name
                            ));
                        }
                        if let (Some(pend), Some(cend)) = (parent.end, span.end) {
                            if cend > pend {
                                problems.push(format!(
                                    "span {} ({}) outlives its parent {} ({})",
                                    span.id.0, span.name, parent.id.0, parent.name
                                ));
                            }
                        }
                    }
                }
            }
            if span.name == "job" {
                let under_dag = span
                    .parent
                    .and_then(|p| self.get(p))
                    .map(|p| p.name == "dag" && p.dag == span.dag)
                    .unwrap_or(false);
                if !under_dag {
                    problems.push(format!(
                        "job span {} (job {:?}) is not rooted at its dag span",
                        span.id.0, span.job
                    ));
                }
            }
        }
        problems
    }

    fn first_ready_span(&self, job: u64) -> Option<&Span> {
        self.job_spans(job)
            .filter(|s| s.name == "state:ready")
            .min_by_key(|s| s.id)
    }

    fn state_steps(&self, job: u64) -> Vec<CriticalStep> {
        let mut steps: Vec<CriticalStep> = self
            .dwell_spans(job)
            .map(|s| CriticalStep {
                name: s.name.to_owned(),
                job,
                site: s.site,
                attempt: s.attempt.unwrap_or(0),
                start_ms: s.start.as_millis(),
                end_ms: s.end.map(|e| e.as_millis()).unwrap_or(0),
            })
            .collect();
        steps.sort_by_key(|s| (s.start_ms, s.end_ms));
        steps
    }

    /// Recover the critical path of one DAG: start from its
    /// last-finishing job span and follow each job's first ready-cause
    /// link upstream to a root job. `None` when the DAG has no finished
    /// job spans in the graph.
    pub fn critical_path(&self, dag: u64) -> Option<CriticalPath> {
        let dag_span = self.dag_spans(dag).find(|s| s.name == "dag");
        let last = self
            .dag_spans(dag)
            .filter(|s| s.name == "job" && s.end.is_some())
            .max_by(|a, b| a.end.cmp(&b.end).then(b.id.cmp(&a.id)))?;
        let mut chain = vec![last];
        let mut cur = last;
        // Bounded walk: a link cycle is impossible by construction (links
        // point at earlier ids) but guard anyway.
        for _ in 0..self.spans.len() {
            let link = self
                .first_ready_span(cur.job.unwrap_or(u64::MAX))
                .and_then(|s| s.link);
            let Some(parent) = link.and_then(|id| self.get(id)) else {
                break;
            };
            chain.push(parent);
            cur = parent;
        }
        chain.reverse();
        let jobs: Vec<u64> = chain.iter().filter_map(|s| s.job).collect();
        let mut steps = Vec::new();
        for (pos, job) in jobs.iter().enumerate() {
            // A chained job's `state:unready` dwell overlaps its upstream's
            // whole lifetime (it ends exactly when the linked parent
            // completes), so only the chain root contributes it — the
            // remaining steps tile the makespan without double counting.
            steps.extend(
                self.state_steps(*job)
                    .into_iter()
                    .filter(|s| pos == 0 || s.name != "state:unready"),
            );
        }
        let path_ms = steps.iter().map(CriticalStep::duration_ms).sum();
        let dag_start = dag_span.map(|s| s.start).unwrap_or(chain[0].start);
        let dag_end = dag_span
            .and_then(|s| s.end)
            .or(last.end)
            .unwrap_or(dag_start);
        Some(CriticalPath {
            dag,
            makespan_ms: dag_end.as_millis().saturating_sub(dag_start.as_millis()),
            path_ms,
            jobs,
            steps,
        })
    }

    fn final_attempt(&self, job: u64) -> u64 {
        self.job_spans(job)
            .filter(|s| s.name == "attempt")
            .filter_map(|s| s.attempt)
            .max()
            .unwrap_or(0)
    }

    /// Classify every finished dwell-state span of `job` into the
    /// breakdown categories, plus the number of planning attempts.
    pub fn job_dwell(&self, job: u64) -> (DwellBreakdown, u64) {
        let final_attempt = self.final_attempt(job);
        let mut dwell = DwellBreakdown::default();
        for s in self.dwell_spans(job) {
            let attempt = s.attempt.unwrap_or(0);
            let bucket = match s.name {
                "state:unready" => &mut dwell.dependency_ms,
                "state:ready" if attempt == 0 => &mut dwell.planner_ms,
                "state:submitted" | "state:queued" if attempt == final_attempt => {
                    &mut dwell.queue_ms
                }
                "state:running" if attempt == final_attempt => &mut dwell.execution_ms,
                _ => &mut dwell.fault_ms,
            };
            *bucket += s.duration_ms();
        }
        (dwell, final_attempt)
    }

    /// The `n` longest-lived finished jobs, slowest first, each with its
    /// dwell breakdown and dominant blame category.
    pub fn slowest_jobs(&self, n: usize) -> Vec<JobBlame> {
        let mut jobs: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.name == "job" && s.end.is_some())
            .collect();
        jobs.sort_by(|a, b| {
            b.duration_ms()
                .cmp(&a.duration_ms())
                .then(a.job.cmp(&b.job))
        });
        jobs.truncate(n);
        jobs.into_iter()
            .map(|s| {
                let key = s.job.unwrap_or(0);
                let (dwell, attempts) = self.job_dwell(key);
                JobBlame {
                    job: key,
                    dag: s.dag.unwrap_or_else(|| job_key_dag(key)),
                    total_ms: s.duration_ms(),
                    attempts,
                    dwell,
                    blame: dwell.blame().to_owned(),
                }
            })
            .collect()
    }

    /// Full report: a critical path per DAG (ascending id) and the
    /// top-`top_n` slowest jobs. Span-store counters are filled in by
    /// `Telemetry::analyze`.
    pub fn analyze(&self, top_n: usize) -> TraceAnalysis {
        let mut dag_ids: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == "dag")
            .filter_map(|s| s.dag)
            .collect();
        dag_ids.sort_unstable();
        dag_ids.dedup();
        TraceAnalysis {
            critical_paths: dag_ids
                .into_iter()
                .filter_map(|d| self.critical_path(d))
                .collect(),
            slowest_jobs: self.slowest_jobs(top_n),
            spans_total: 0,
            spans_live: 0,
            spans_dropped: 0,
        }
    }
}

/// The scan-per-query implementation [`SpanGraph`] replaced, kept as the
/// oracle the indexed one is compared against: every query walks the
/// whole span list, O(DAGs × chain × spans) for a full analysis.
#[cfg(test)]
mod oracle {
    use super::*;

    pub struct ScanGraph<'a>(pub &'a [Span]);

    impl ScanGraph<'_> {
        fn get(&self, id: SpanId) -> Option<&Span> {
            self.0.iter().find(|s| s.id == id)
        }

        fn first_ready_span(&self, job: u64) -> Option<&Span> {
            self.0
                .iter()
                .filter(|s| s.name == "state:ready" && s.job == Some(job))
                .min_by_key(|s| s.id)
        }

        fn state_steps(&self, job: u64) -> Vec<CriticalStep> {
            let mut steps: Vec<CriticalStep> = self
                .0
                .iter()
                .filter(|s| s.name.starts_with("state:") && s.job == Some(job) && s.end.is_some())
                .map(|s| CriticalStep {
                    name: s.name.to_owned(),
                    job,
                    site: s.site,
                    attempt: s.attempt.unwrap_or(0),
                    start_ms: s.start.as_millis(),
                    end_ms: s.end.map(|e| e.as_millis()).unwrap_or(0),
                })
                .collect();
            steps.sort_by_key(|s| (s.start_ms, s.end_ms));
            steps
        }

        pub fn critical_path(&self, dag: u64) -> Option<CriticalPath> {
            let dag_span = self
                .0
                .iter()
                .find(|s| s.name == "dag" && s.dag == Some(dag));
            let last = self
                .0
                .iter()
                .filter(|s| s.name == "job" && s.dag == Some(dag) && s.end.is_some())
                .max_by(|a, b| a.end.cmp(&b.end).then(b.id.cmp(&a.id)))?;
            let mut chain = vec![last];
            let mut cur = last;
            for _ in 0..self.0.len() {
                let link = self
                    .first_ready_span(cur.job.unwrap_or(u64::MAX))
                    .and_then(|s| s.link);
                let Some(parent) = link.and_then(|id| self.get(id)) else {
                    break;
                };
                chain.push(parent);
                cur = parent;
            }
            chain.reverse();
            let jobs: Vec<u64> = chain.iter().filter_map(|s| s.job).collect();
            let mut steps = Vec::new();
            for (pos, job) in jobs.iter().enumerate() {
                steps.extend(
                    self.state_steps(*job)
                        .into_iter()
                        .filter(|s| pos == 0 || s.name != "state:unready"),
                );
            }
            let path_ms = steps.iter().map(CriticalStep::duration_ms).sum();
            let dag_start = dag_span.map(|s| s.start).unwrap_or(chain[0].start);
            let dag_end = dag_span
                .and_then(|s| s.end)
                .or(last.end)
                .unwrap_or(dag_start);
            Some(CriticalPath {
                dag,
                makespan_ms: dag_end.as_millis().saturating_sub(dag_start.as_millis()),
                path_ms,
                jobs,
                steps,
            })
        }

        fn final_attempt(&self, job: u64) -> u64 {
            self.0
                .iter()
                .filter(|s| s.name == "attempt" && s.job == Some(job))
                .filter_map(|s| s.attempt)
                .max()
                .unwrap_or(0)
        }

        pub fn job_dwell(&self, job: u64) -> (DwellBreakdown, u64) {
            let final_attempt = self.final_attempt(job);
            let mut dwell = DwellBreakdown::default();
            for s in self.0 {
                if s.job != Some(job) || s.end.is_none() || !s.name.starts_with("state:") {
                    continue;
                }
                let ms = s.duration_ms();
                let attempt = s.attempt.unwrap_or(0);
                match s.name {
                    "state:unready" => dwell.dependency_ms += ms,
                    "state:ready" if attempt == 0 => dwell.planner_ms += ms,
                    "state:submitted" | "state:queued" if attempt == final_attempt => {
                        dwell.queue_ms += ms
                    }
                    "state:running" if attempt == final_attempt => dwell.execution_ms += ms,
                    _ => dwell.fault_ms += ms,
                }
            }
            (dwell, final_attempt)
        }

        pub fn slowest_jobs(&self, n: usize) -> Vec<JobBlame> {
            let mut jobs: Vec<&Span> = self
                .0
                .iter()
                .filter(|s| s.name == "job" && s.end.is_some())
                .collect();
            jobs.sort_by(|a, b| {
                b.duration_ms()
                    .cmp(&a.duration_ms())
                    .then(a.job.cmp(&b.job))
            });
            jobs.truncate(n);
            jobs.into_iter()
                .map(|s| {
                    let key = s.job.unwrap_or(0);
                    let (dwell, attempts) = self.job_dwell(key);
                    JobBlame {
                        job: key,
                        dag: s.dag.unwrap_or_else(|| job_key_dag(key)),
                        total_ms: s.duration_ms(),
                        attempts,
                        dwell,
                        blame: dwell.blame().to_owned(),
                    }
                })
                .collect()
        }

        pub fn analyze(&self, top_n: usize) -> TraceAnalysis {
            let mut dag_ids: Vec<u64> = self
                .0
                .iter()
                .filter(|s| s.name == "dag")
                .filter_map(|s| s.dag)
                .collect();
            dag_ids.sort_unstable();
            dag_ids.dedup();
            TraceAnalysis {
                critical_paths: dag_ids
                    .into_iter()
                    .filter_map(|d| self.critical_path(d))
                    .collect(),
                slowest_jobs: self.slowest_jobs(top_n),
                spans_total: 0,
                spans_live: 0,
                spans_dropped: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::ScanGraph;
    use super::*;
    use crate::span::{SpanAttrs, SpanStore};
    use crate::{Telemetry, TelemetryConfig};
    use proptest::prelude::*;
    use sphinx_data::SiteId;
    use sphinx_sim::SimTime;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Two-job chain: A runs 0–10s, B becomes ready at 10s (cause A),
    /// runs to 30s.
    fn chain_graph() -> SpanGraph {
        let mut store = SpanStore::new(1024);
        let dag = store.start(
            "dag",
            t(0),
            SpanAttrs {
                dag: Some(1),
                ..SpanAttrs::default()
            },
        );
        let a = store.start(
            "job",
            t(0),
            SpanAttrs {
                parent: Some(dag),
                job: Some(10),
                dag: Some(1),
                ..SpanAttrs::default()
            },
        );
        let a_run = store.start(
            "state:running",
            t(0),
            SpanAttrs {
                parent: Some(a),
                job: Some(10),
                dag: Some(1),
                attempt: Some(1),
                ..SpanAttrs::default()
            },
        );
        let b = store.start(
            "job",
            t(0),
            SpanAttrs {
                parent: Some(dag),
                job: Some(11),
                dag: Some(1),
                ..SpanAttrs::default()
            },
        );
        let b_wait = store.start(
            "state:unready",
            t(0),
            SpanAttrs {
                parent: Some(b),
                job: Some(11),
                dag: Some(1),
                ..SpanAttrs::default()
            },
        );
        store.end(a_run, t(10));
        store.end(a, t(10));
        store.end(b_wait, t(10));
        let b_ready = store.start(
            "state:ready",
            t(10),
            SpanAttrs {
                parent: Some(b),
                job: Some(11),
                dag: Some(1),
                attempt: Some(0),
                link: Some(a),
                ..SpanAttrs::default()
            },
        );
        store.end(b_ready, t(12));
        let b_run = store.start(
            "state:running",
            t(12),
            SpanAttrs {
                parent: Some(b),
                job: Some(11),
                dag: Some(1),
                attempt: Some(1),
                ..SpanAttrs::default()
            },
        );
        store.end(b_run, t(30));
        store.end(b, t(30));
        store.end(dag, t(30));
        SpanGraph::new(store.spans())
    }

    #[test]
    fn critical_path_follows_ready_links() {
        let g = chain_graph();
        let path = g.critical_path(1).expect("path exists");
        assert_eq!(path.jobs, vec![10, 11]);
        assert_eq!(path.makespan_ms, 30_000);
        // A's running (10s) + B's ready (2s) + running (18s); B's unready
        // overlaps A entirely and is excluded from the tally.
        assert_eq!(path.path_ms, 30_000);
        assert_eq!(path.steps.len(), 3);
        assert_eq!(path.steps[0].name, "state:running");
        assert_eq!(path.steps[0].job, 10);
    }

    #[test]
    fn validate_accepts_sound_graph_and_flags_violations() {
        let g = chain_graph();
        assert!(g.validate().is_empty(), "{:?}", g.validate());

        let mut store = SpanStore::new(8);
        let orphan = store.start(
            "job",
            t(1),
            SpanAttrs {
                parent: Some(SpanId(999)),
                job: Some(1),
                ..SpanAttrs::default()
            },
        );
        store.end(orphan, t(2));
        let bad = SpanGraph::new(store.spans());
        let problems = bad.validate();
        assert_eq!(problems.len(), 2); // dangling parent + not rooted at dag
        assert!(problems[0].contains("dangling parent"));
    }

    #[test]
    fn dwell_classifies_fault_attempts() {
        let mut store = SpanStore::new(64);
        let job = store.start(
            "job",
            t(0),
            SpanAttrs {
                job: Some(5),
                dag: Some(0),
                ..SpanAttrs::default()
            },
        );
        // Attempt 1 fails after 10s of running.
        for (name, s, e, attempt) in [
            ("state:ready", 0, 1, 0),
            ("state:submitted", 1, 2, 1),
            ("state:running", 2, 12, 1),
            ("state:ready", 12, 13, 1), // re-ready after fault
            ("state:submitted", 13, 14, 2),
            ("state:running", 14, 20, 2),
        ] {
            let id = store.start(
                name,
                t(s),
                SpanAttrs {
                    parent: Some(job),
                    job: Some(5),
                    attempt: Some(attempt),
                    ..SpanAttrs::default()
                },
            );
            store.end(id, t(e));
        }
        for attempt in [1u64, 2] {
            let id = store.start(
                "attempt",
                t(0),
                SpanAttrs {
                    job: Some(5),
                    attempt: Some(attempt),
                    ..SpanAttrs::default()
                },
            );
            store.end(id, t(20));
        }
        let g = SpanGraph::new(store.spans());
        let (dwell, attempts) = g.job_dwell(5);
        assert_eq!(attempts, 2);
        assert_eq!(dwell.planner_ms, 1_000);
        // Failed attempt 1: submitted (1s) + running (10s) + re-ready (1s).
        assert_eq!(dwell.fault_ms, 12_000);
        assert_eq!(dwell.queue_ms, 1_000);
        assert_eq!(dwell.execution_ms, 6_000);
        assert_eq!(dwell.blame(), "fault-recovery");
    }

    #[test]
    fn slowest_jobs_orders_by_duration() {
        let g = chain_graph();
        let slow = g.slowest_jobs(5);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].job, 11);
        assert_eq!(slow[0].total_ms, 30_000);
        assert_eq!(slow[1].job, 10);
    }

    #[test]
    fn job_key_split_round_trips() {
        let key = (17u64 << 24) | 42;
        assert_eq!(job_key_dag(key), 17);
        assert_eq!(job_key_index(key), 42);
    }

    const LIFECYCLE: [&str; 6] = [
        "unready",
        "ready",
        "submitted",
        "queued",
        "running",
        "finished",
    ];

    /// Drive the hub's own span bookkeeping (so the forest is built
    /// through `SpanStore` with the real taxonomy and links) with a random
    /// walk: each op moves one job of one DAG. Mostly a job advances along
    /// its lifecycle, readied by a random lower-numbered sibling; sometimes
    /// it faults back to `ready` (a replan, so `attempt` spans chain),
    /// jumps to an arbitrary state, or its DAG's root span closes or
    /// reopens. Time moves 0–1 s per op, so end times collide; whatever is
    /// open at the end stays live; `capacity` is small enough to evict
    /// `dag` spans, first `state:ready` spans and chain heads.
    fn random_forest(
        capacity: usize,
        dags: u64,
        jobs: u64,
        ops: &[(u8, u64, u64, u64)],
    ) -> Vec<Span> {
        let tel = Telemetry::with_config(TelemetryConfig {
            span_capacity: capacity,
            ..TelemetryConfig::default()
        });
        for dag in 0..dags {
            tel.dag_span_start(dag, jobs as usize, t(0));
        }
        let mut stage = std::collections::BTreeMap::new();
        let mut now = 0;
        for &(kind, pick, aux, dt) in ops {
            now += dt;
            let dag = pick % dags;
            let index = pick / dags % jobs;
            let job = (dag << 24) | index;
            let at = stage.entry(job).or_insert(0usize);
            match kind {
                0..=6 => *at = (*at + 1) % LIFECYCLE.len(),
                7 => *at = 1,
                8 => *at = aux as usize % LIFECYCLE.len(),
                _ if aux % 3 == 0 => {
                    tel.dag_span_start(dag, jobs as usize, t(now));
                    continue;
                }
                _ => {
                    tel.dag_span_end(dag, t(now));
                    continue;
                }
            }
            // Causes point at lower indices, as a DAG's edges do.
            let cause = (index > 0 && aux % 4 != 0).then(|| (dag << 24) | (aux % index));
            let site = Some(SiteId((aux % 5) as u32));
            tel.note_job_state(job, dag, LIFECYCLE[*at], site, cause, t(now));
        }
        tel.spans()
    }

    proptest! {
        #[test]
        fn indexed_queries_equal_the_scan_oracle(
            capacity in 4usize..200,
            dags in 1u64..5,
            jobs in 2u64..7,
            ops in proptest::collection::vec((0u8..10, 0u64..1000, 0u64..1000, 0u64..2), 40..500),
        ) {
            let spans = random_forest(capacity, dags, jobs, &ops);
            let graph = SpanGraph::new(spans.clone());
            let oracle = ScanGraph(&spans);
            for n in [0, 3, usize::MAX] {
                prop_assert_eq!(graph.analyze(n), oracle.analyze(n));
                prop_assert_eq!(graph.slowest_jobs(n), oracle.slowest_jobs(n));
            }
            // One DAG and one job past the generated range: absent keys.
            for dag in 0..=dags {
                prop_assert_eq!(graph.critical_path(dag), oracle.critical_path(dag));
                for index in 0..=jobs {
                    let job = (dag << 24) | index;
                    prop_assert_eq!(graph.job_dwell(job), oracle.job_dwell(job));
                }
            }
            for span in &spans {
                prop_assert_eq!(graph.get(span.id), Some(span));
            }
        }
    }
}
