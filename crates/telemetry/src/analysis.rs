//! Post-run span-graph analysis: critical paths, dwell blame, slow jobs.
//!
//! The instrumented pipeline leaves behind a span forest (see
//! [`crate::span`]): one `dag` root per workflow, one `job` span per
//! job, per-attempt and per-state child spans, and `link` edges that
//! record causality across subtrees — a job's first `state:ready` span
//! links to the job span whose completion made it ready, and a replan
//! `attempt` span links to the attempt it replaces.
//!
//! The analysis answers the question the flat trace cannot: *why did
//! DAG N finish when it did?* The critical path of a DAG is recovered by
//! starting from its last-finishing job and following ready-cause links
//! backwards to a root job; the chain's state spans tile the makespan,
//! each attributed to planner wait, queue wait, execution, or fault
//! recovery.
//!
//! `Telemetry::analyze` never builds that forest. It replays the hub's
//! event log into [`Histories`] — per job, its state steps, first
//! ready-cause, last attempt and lifetime; per DAG, its root span — and
//! walks those. Deterministic input (same seed) gives identical
//! [`TraceAnalysis`] output, which `RunReport` carries and the
//! determinism suite asserts. [`SpanGraph`] indexes a materialized span
//! list by id to check its structure; the scan-per-query implementation
//! over such a list survives as the test oracle at the bottom of this
//! file.

use crate::replay::{Chunks, Sink};
use crate::span::{Span, SpanId};
use serde::{Deserialize, Serialize};
use sphinx_sim::SimTime;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// The dense key of job `index` of DAG `dag` (`sphinx_dag::JobId::as_key`).
pub fn job_key(dag: u64, index: u64) -> u64 {
    (dag << 24) | index
}

/// DAG id component of a dense job key (see `sphinx_dag::JobId::as_key`).
pub fn job_key_dag(key: u64) -> u64 {
    key >> 24
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
        let mut best = ("dependencies", self.dependency_ms);
        for c in [
            ("planner", self.planner_ms),
            ("queue", self.queue_ms),
            ("execution", self.execution_ms),
            ("fault-recovery", self.fault_ms),
        ] {
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
    /// Spans lost before the analysis ran: always 0, the log keeps every
    /// record.
    pub spans_dropped: u64,
}

/// The replay sink behind [`crate::Telemetry::analyze`]: per-job
/// histories, not a span forest. It keeps every `state:*` step, `job`
/// span and `dag` span compactly, each job key's first ready-cause link,
/// and where each span id went, so a close finds its span without a
/// search. Attempt, slot, phase and WAL spans leave an empty entry.
#[derive(Default)]
pub(crate) struct Histories {
    /// Where each span id's history lives.
    index: Chunks<Entry>,
    /// `state:*` spans, in id order.
    steps: Chunks<Step>,
    /// `job` spans (`key` is the job key), in id order.
    jobs: Chunks<Interval>,
    /// `dag` spans (`key` is the DAG), in id order.
    dags: Vec<Interval>,
    /// Each job key's first `state:ready` link.
    first_ready: BTreeMap<u64, Option<SpanId>>,
}

/// A span id's place in [`Histories`]: an index into its list.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Untracked,
    Step(u32),
    Job(u32),
    Dag(u32),
}

/// The `state:*` span names, by [`Step::state`].
const STATES: [&str; 5] = ["unready", "ready", "submitted", "queued", "running"];

/// One `state:*` span.
struct Step {
    job: u64,
    start: SimTime,
    /// Meaningful once `closed`.
    end: SimTime,
    site: Option<u32>,
    attempt: u64,
    /// Index into [`STATES`].
    state: u8,
    closed: bool,
}

/// One `job` or `dag` span.
struct Interval {
    key: u64,
    start: SimTime,
    end: Option<SimTime>,
}

fn ms_between(start: SimTime, end: SimTime) -> u64 {
    end.as_millis().saturating_sub(start.as_millis())
}

impl Sink for Histories {
    fn open(&mut self, span: Span) {
        let (start, end) = (span.start, None);
        let state = span.name.strip_prefix("state:");
        let entry = match (span.name, span.job, span.dag) {
            ("dag", _, Some(key)) => {
                self.dags.push(Interval { key, start, end });
                Entry::Dag(self.dags.len() as u32 - 1)
            }
            ("job", Some(key), _) => {
                Entry::Job(self.jobs.push(Interval { key, start, end }) as u32)
            }
            (_, Some(job), _) => match STATES.iter().position(|&s| Some(s) == state) {
                Some(state) => {
                    if state == 1 {
                        self.first_ready.entry(job).or_insert(span.link);
                    }
                    Entry::Step(self.steps.push(Step {
                        job,
                        start,
                        end: start,
                        site: span.site,
                        attempt: span.attempt.unwrap_or(0),
                        state: state as u8,
                        closed: false,
                    }) as u32)
                }
                None => Entry::Untracked,
            },
            _ => Entry::Untracked,
        };
        // Ids ascend from 0 with no gaps in a replay.
        while self.index.len() < span.id.0 as usize {
            self.index.push(Entry::Untracked);
        }
        self.index.push(entry);
    }

    fn close(&mut self, id: SpanId, end: SimTime) {
        let span = match self.index.get(id.0 as usize).copied() {
            Some(Entry::Step(i)) => {
                if let Some(step) = self.steps.get_mut(i as usize) {
                    (step.end, step.closed) = (end.max(step.start), true);
                }
                return;
            }
            Some(Entry::Job(i)) => self.jobs.get_mut(i as usize),
            Some(Entry::Dag(i)) => self.dags.get_mut(i as usize),
            _ => None,
        };
        if let Some(span) = span {
            span.end = Some(end.max(span.start));
        }
    }
}

/// [`Histories`] grouped for the walk: each job key's steps, in id order
/// (a job's states never overlap, so that is also end order).
struct ByJob<'a> {
    histories: &'a Histories,
    /// `(job key, step index)` of every step, sorted.
    steps: Vec<(u64, u32)>,
}

impl ByJob<'_> {
    /// Every step of `job`, finished or not.
    fn steps(&self, job: u64) -> impl Iterator<Item = &Step> {
        let from = self.steps.partition_point(|e| e.0 < job);
        let of_job = self.steps.iter().skip(from).take_while(move |e| e.0 == job);
        of_job.filter_map(|e| self.histories.steps.get(e.1 as usize))
    }

    /// The highest attempt of `job`: each attempt opens with its
    /// `state:submitted` step.
    fn final_attempt(&self, job: u64) -> u64 {
        self.steps(job).map(|s| s.attempt).max().unwrap_or(0)
    }

    /// The critical path of `dag`: from its last-finishing job span,
    /// follow each job's first ready-cause link upstream to a root job.
    fn critical_path(&self, dag: u64, last: &Interval, bound: u64) -> Option<CriticalPath> {
        let h = self.histories;
        // A DAG's root spans never overlap, so its first is the first to
        // have ended, or the live one.
        let dag_span = h.dags.iter().find(|d| d.key == dag);
        let mut chain = vec![last];
        // Bounded walk: a link cycle is impossible by construction (links
        // point at earlier ids) but guard anyway.
        for _ in 0..bound {
            let link = chain
                .last()
                .and_then(|s| h.first_ready.get(&s.key))
                .copied();
            let parent = match link.flatten().and_then(|id| h.index.get(id.0 as usize)) {
                Some(Entry::Job(i)) => h.jobs.get(*i as usize),
                _ => None,
            };
            let Some(parent) = parent else { break };
            chain.push(parent);
        }
        chain.reverse();
        let jobs: Vec<u64> = chain.iter().map(|s| s.key).collect();
        let mut steps = Vec::new();
        for (pos, &job) in jobs.iter().enumerate() {
            // A chained job's `state:unready` dwell overlaps its upstream's
            // whole lifetime (it ends exactly when the linked parent
            // completes), so only the chain root contributes it — the
            // remaining steps tile the makespan without double counting.
            let mut own: Vec<CriticalStep> = self
                .steps(job)
                .filter(|s| s.closed && (pos == 0 || s.state != 0))
                .map(|s| CriticalStep {
                    name: format!("state:{}", STATES.get(usize::from(s.state)).unwrap_or(&"")),
                    job,
                    site: s.site,
                    attempt: s.attempt,
                    start_ms: s.start.as_millis(),
                    end_ms: s.end.as_millis(),
                })
                .collect();
            own.sort_by_key(|s| (s.start_ms, s.end_ms));
            steps.append(&mut own);
        }
        let path_ms = steps.iter().map(CriticalStep::duration_ms).sum();
        let dag_start = dag_span.or(chain.first().copied()).map(|s| s.start)?;
        let dag_end = dag_span.and_then(|s| s.end).or(last.end);
        Some(CriticalPath {
            dag,
            makespan_ms: ms_between(dag_start, dag_end.unwrap_or(dag_start)),
            path_ms,
            jobs,
            steps,
        })
    }

    /// Classify every finished dwell-state step of `job` into the
    /// breakdown categories, plus the number of planning attempts.
    fn job_dwell(&self, job: u64) -> (DwellBreakdown, u64) {
        let final_attempt = self.final_attempt(job);
        let mut dwell = DwellBreakdown::default();
        for s in self.steps(job).filter(|s| s.closed) {
            let bucket = match (s.state, s.attempt) {
                (0, _) => &mut dwell.dependency_ms,
                (1, 0) => &mut dwell.planner_ms,
                (2 | 3, a) if a == final_attempt => &mut dwell.queue_ms,
                (4, a) if a == final_attempt => &mut dwell.execution_ms,
                _ => &mut dwell.fault_ms,
            };
            *bucket += ms_between(s.start, s.end);
        }
        (dwell, final_attempt)
    }
}

impl Histories {
    /// A critical path per DAG (ascending id), the `top_n` slowest jobs,
    /// and the replay's span counts.
    pub(crate) fn analyze(self, top_n: usize, total: u64, live: u64) -> TraceAnalysis {
        let mut steps: Vec<(u64, u32)> = (0..)
            .zip(self.steps.since(0))
            .map(|(i, s)| (s.job, i))
            .collect();
        steps.sort_unstable();
        let by_job = ByJob {
            histories: &self,
            steps,
        };
        // Each DAG's last-finishing job span; ties go to the lower id.
        let finished = || self.jobs.since(0).filter(|j| j.end.is_some());
        let mut last: BTreeMap<u64, &Interval> = BTreeMap::new();
        for span in finished() {
            let entry = last.entry(job_key_dag(span.key)).or_insert(span);
            if span.end > entry.end {
                *entry = span;
            }
        }
        let mut dags: Vec<u64> = self.dags.iter().map(|d| d.key).collect();
        dags.sort_unstable();
        dags.dedup();
        let critical_paths = dags
            .into_iter()
            .filter_map(|dag| by_job.critical_path(dag, last.get(&dag)?, total))
            .collect();
        // The `top_n` longest-lived finished jobs, slowest first; equal
        // entries blame alike, so their order does not matter.
        let mut slowest: Vec<(u64, u64)> = finished()
            .map(|j| (ms_between(j.start, j.end.unwrap_or(j.start)), j.key))
            .collect();
        slowest.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        slowest.truncate(top_n);
        let slowest_jobs = slowest.into_iter().map(|(total_ms, job)| {
            let (dwell, attempts) = by_job.job_dwell(job);
            let blame = dwell.blame().to_owned();
            let dag = job_key_dag(job);
            JobBlame {
                job,
                dag,
                total_ms,
                attempts,
                dwell,
                blame,
            }
        });
        TraceAnalysis {
            critical_paths,
            slowest_jobs: slowest_jobs.collect(),
            spans_total: total,
            spans_live: live,
            spans_dropped: 0,
        }
    }
}

/// An indexed, immutable view over a span forest, for checking its
/// structure: over owned spans (`SpanGraph<Span>`) or spans borrowed from
/// where they are stored (`SpanGraph<&Span>`).
pub struct SpanGraph<S = Span> {
    spans: Vec<S>,
    /// Position of every span, by id.
    by_id: BTreeMap<SpanId, usize>,
}

impl<S: Borrow<Span>> SpanGraph<S> {
    /// Index a span list (as returned by `Telemetry::spans`).
    pub fn new(spans: impl IntoIterator<Item = S>) -> Self {
        let spans: Vec<S> = spans.into_iter().collect();
        let by_id = (0..).zip(&spans).map(|(i, s)| (s.borrow().id, i)).collect();
        SpanGraph { spans, by_id }
    }

    /// Lookup by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(*self.by_id.get(&id)?).map(Borrow::borrow)
    }

    /// Structural invariant check. Returns one message per violation:
    /// a dangling parent id, a child starting before its parent, a
    /// closed parent ending before a closed child, or a job span that is
    /// not rooted at its DAG's span. Empty means the graph is sound.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for span in self.spans.iter().map(Borrow::borrow) {
            let mut flag = |what: std::fmt::Arguments<'_>| {
                problems.push(format!("span {} ({}) {what}", span.id.0, span.name));
            };
            if let Some(end) = span.end.filter(|&end| end < span.start) {
                let (end, start) = (end.as_millis(), span.start.as_millis());
                flag(format_args!(
                    "ends at {end}ms before it starts at {start}ms"
                ));
            }
            let parent = span.parent.map(|id| (id, self.get(id)));
            if let Some((id, None)) = parent {
                flag(format_args!("has dangling parent {}", id.0));
            }
            if let Some((_, Some(p))) = parent {
                if span.start < p.start {
                    flag(format_args!(
                        "starts before its parent {} ({})",
                        p.id.0, p.name
                    ));
                }
                if matches!((p.end, span.end), (Some(pend), Some(end)) if end > pend) {
                    flag(format_args!("outlives its parent {} ({})", p.id.0, p.name));
                }
            }
            let rooted = parent
                .and_then(|p| p.1)
                .is_some_and(|p| p.name == "dag" && p.dag == span.dag);
            if span.name == "job" && !rooted {
                flag(format_args!(
                    "is a job span (job {:?}) not rooted at its dag span",
                    span.job
                ));
            }
        }
        problems
    }
}

/// The analysis over a materialized span list, one scan of the whole
/// list per query: the oracle `Telemetry::analyze` is compared against.
#[cfg(test)]
pub(crate) mod oracle {
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

        /// Everything `Telemetry::analyze` reports about the list.
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
                spans_total: self.0.len() as u64,
                spans_live: self.0.iter().filter(|s| s.end.is_none()).count() as u64,
                spans_dropped: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::ScanGraph;
    use super::*;
    use crate::span::SpanStore;

    /// `spans` through the replay sink — opened in id order, then closed —
    /// checked against the oracle's reading of the list.
    fn analyzed(spans: &[Span]) -> ScanGraph<'_> {
        let mut by_id: Vec<&Span> = spans.iter().collect();
        by_id.sort_by_key(|s| s.id);
        let mut histories = Histories::default();
        for span in &by_id {
            histories.open((*span).clone());
        }
        for span in &by_id {
            if let Some(end) = span.end {
                histories.close(span.id, end);
            }
        }
        let live = spans.iter().filter(|s| s.end.is_none()).count() as u64;
        let oracle = ScanGraph(spans);
        let got = histories.analyze(usize::MAX, spans.len() as u64, live);
        assert_eq!(got, oracle.analyze(usize::MAX));
        oracle
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Jobs 0 and 1 of DAG 1.
    const A: u64 = 1 << 24;
    const B: u64 = (1 << 24) | 1;

    /// Open `name` at `at` s under `parent`, in DAG 1.
    fn open(
        store: &mut SpanStore,
        (name, at): (&'static str, u64),
        parent: Option<SpanId>,
        job: Option<u64>,
        attempt: Option<u64>,
        link: Option<SpanId>,
    ) -> SpanId {
        let (dag, span) = (Some(1), Span::default());
        let span = Span {
            parent,
            job,
            dag,
            attempt,
            link,
            ..span
        };
        store.start(name, t(at), span)
    }

    /// Two-job chain: A runs 0–10s, B becomes ready at 10s (cause A),
    /// runs to 30s.
    fn chain_spans() -> Vec<Span> {
        let mut store = SpanStore::default();
        let s = &mut store;
        let dag = open(s, ("dag", 0), None, None, None, None);
        let a = open(s, ("job", 0), Some(dag), Some(A), None, None);
        let a_try = open(s, ("attempt", 0), Some(a), Some(A), Some(1), None);
        let a_run = open(s, ("state:running", 0), Some(a_try), Some(A), Some(1), None);
        let b = open(s, ("job", 0), Some(dag), Some(B), None, None);
        let b_wait = open(s, ("state:unready", 0), Some(b), Some(B), None, None);
        for id in [a_run, a_try, a, b_wait] {
            s.end(id, t(10));
        }
        let b_ready = open(s, ("state:ready", 10), Some(b), Some(B), Some(0), Some(a));
        s.end(b_ready, t(12));
        let b_try = open(s, ("attempt", 12), Some(b), Some(B), Some(1), None);
        let b_run = open(
            s,
            ("state:running", 12),
            Some(b_try),
            Some(B),
            Some(1),
            None,
        );
        for id in [b_run, b_try, b, dag] {
            s.end(id, t(30));
        }
        store.into_spans()
    }

    #[test]
    fn critical_path_follows_ready_links() {
        let spans = chain_spans();
        let path = analyzed(&spans).critical_path(1).expect("path exists");
        assert_eq!(path.jobs, vec![A, B]);
        assert_eq!(path.makespan_ms, 30_000);
        // A's running (10s) + B's ready (2s) + running (18s); B's unready
        // overlaps A entirely and is excluded from the tally.
        assert_eq!(path.path_ms, 30_000);
        assert_eq!(path.steps.len(), 3);
        assert_eq!(path.steps[0].name, "state:running");
        assert_eq!(path.steps[0].job, A);
    }

    #[test]
    fn validate_accepts_sound_graph_and_flags_violations() {
        let g = SpanGraph::new(chain_spans());
        assert!(g.validate().is_empty(), "{:?}", g.validate());

        let mut store = SpanStore::default();
        let orphan = store.start(
            "job",
            t(1),
            Span {
                parent: Some(SpanId(999)),
                job: Some(1),
                ..Span::default()
            },
        );
        store.end(orphan, t(2));
        let bad = SpanGraph::new(store.into_spans());
        let problems = bad.validate();
        assert_eq!(problems.len(), 2); // dangling parent + not rooted at dag
        assert!(problems[0].contains("dangling parent"));
    }

    #[test]
    fn dwell_classifies_fault_attempts() {
        let mut store = SpanStore::default();
        let job = store.start(
            "job",
            t(0),
            Span {
                job: Some(5),
                dag: Some(0),
                ..Span::default()
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
                Span {
                    parent: Some(job),
                    job: Some(5),
                    attempt: Some(attempt),
                    ..Span::default()
                },
            );
            store.end(id, t(e));
        }
        for attempt in [1u64, 2] {
            let id = store.start(
                "attempt",
                t(0),
                Span {
                    parent: Some(job),
                    job: Some(5),
                    attempt: Some(attempt),
                    ..Span::default()
                },
            );
            store.end(id, t(20));
        }
        store.end(job, t(20));
        let spans = store.into_spans();
        let (dwell, attempts) = analyzed(&spans).job_dwell(5);
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
        let spans = chain_spans();
        let slow = analyzed(&spans).slowest_jobs(5);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].job, B);
        assert_eq!(slow[0].total_ms, 30_000);
        assert_eq!(slow[1].job, A);
    }

    #[test]
    fn job_key_split_round_trips() {
        let key = job_key(17, 42);
        assert_eq!(key, (17u64 << 24) | 42);
        assert_eq!(job_key_dag(key), 17);
    }
}
