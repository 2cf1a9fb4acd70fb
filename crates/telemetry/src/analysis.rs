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
//! `Telemetry::analyze` builds neither that forest nor the span machine's
//! replay of it: it folds the log's job and DAG events, moving each job
//! through the machine's [`Stage`]s, in two passes. The first keeps, per
//! job key, its job spans (one per lifetime) and its first ready-cause
//! link, and per DAG its root spans and its last-finishing job span:
//! enough to walk every critical path and rank the slowest jobs. The
//! second collects the `state:*` steps of only the jobs those name.
//! Deterministic input (same seed) gives identical [`TraceAnalysis`]
//! output, which `RunReport` carries and the determinism suite asserts.
//! [`SpanGraph`] indexes a materialized span list by id to check its
//! structure; the scan-per-query implementation over such a list survives
//! as the test oracle at the bottom of this file.

use crate::replay::{Fact, Log, Stage};
use crate::span::{Span, SpanId};
use crate::Event;
use serde::{Deserialize, Serialize};
use sphinx_sim::{Chunks, SimTime};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Bits of a job key below its DAG id.
const INDEX_BITS: u32 = 24;

/// The dense key of job `index` of DAG `dag` (`sphinx_dag::JobId::as_key`).
pub fn job_key(dag: u64, index: u64) -> u64 {
    (dag << INDEX_BITS) | index
}

/// DAG id component of a dense job key (see `sphinx_dag::JobId::as_key`).
pub fn job_key_dag(key: u64) -> u64 {
    key >> INDEX_BITS
}

/// Job index component of a dense job key.
fn job_key_index(key: u64) -> usize {
    (key & ((1 << INDEX_BITS) - 1)) as usize
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

fn ms_between(start: SimTime, end: SimTime) -> u64 {
    end.as_millis().saturating_sub(start.as_millis())
}

/// What one record does to the job and DAG spans.
#[derive(Clone, Copy)]
enum Move {
    /// A DAG's root span opens, unless one is live.
    OpenDag(u64),
    /// The DAG's live root span closes.
    CloseDag(u64),
    /// A job enters a stage.
    Enter(u64, Stage),
    /// A job finishes.
    Finish(u64),
}

/// Hand `apply` every move the job and DAG events of `log` make, in order,
/// with its sim time.
fn replay(log: &Log, mut apply: impl FnMut(SimTime, Move)) {
    for record in log.records.since(0) {
        let (at, Fact::Event(event)) = (record.at, record.fact) else {
            continue;
        };
        match event {
            Event::DagSubmitted { dag, jobs } => {
                apply(at, Move::OpenDag(dag));
                for index in 0..jobs as u64 {
                    apply(at, Move::Enter(job_key(dag, index), Stage::Unready));
                }
            }
            Event::DagRestored { dag, .. } => apply(at, Move::OpenDag(dag)),
            Event::DagFinished { dag } => apply(at, Move::CloseDag(dag)),
            Event::Job { job, step } => match Stage::of(step) {
                Some(stage) => apply(at, Move::Enter(job, stage)),
                None => apply(at, Move::Finish(job)),
            },
            _ => {}
        }
    }
}

/// One job span: one lifetime of a job key, from the first stage it
/// enters to its finish.
struct Life {
    key: u64,
    start: SimTime,
    /// `None` while live.
    end: Option<SimTime>,
}

/// One job key, in pass one.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Its latest job span, by index into [`Lives::spans`]: live while it
    /// has no end.
    latest: Option<u32>,
    /// Once it has been ready: the link of its first `state:ready` span,
    /// the job span whose completion made it ready.
    first_ready: Option<Option<u32>>,
}

/// One DAG, in pass one.
#[derive(Default)]
struct Dag {
    /// Its jobs, by index.
    jobs: Vec<Slot>,
    /// Its root spans, `(start, end)`: a path measures the first.
    roots: Vec<(SimTime, Option<SimTime>)>,
    /// Its last-finishing job span, `(end, index into spans)`; ties go to
    /// the earlier span.
    last: Option<(SimTime, u32)>,
}

/// Pass one: every job span, and what a critical path walks per job key
/// and DAG.
#[derive(Default)]
struct Lives {
    /// Every job span, in id order.
    spans: Chunks<Life>,
    dags: BTreeMap<u64, Dag>,
}

impl Lives {
    fn slot(&self, key: u64) -> Option<&Slot> {
        let dag = self.dags.get(&job_key_dag(key))?;
        dag.jobs.get(job_key_index(key))
    }

    fn apply(&mut self, at: SimTime, next: Move) {
        match next {
            Move::OpenDag(dag) => {
                let roots = &mut self.dags.entry(dag).or_default().roots;
                if roots.last().is_none_or(|root| root.1.is_some()) {
                    roots.push((at, None));
                }
            }
            Move::CloseDag(dag) => {
                let roots = self.dags.get_mut(&dag).map(|d| &mut d.roots);
                if let Some((start, end @ None)) = roots.and_then(|r| r.last_mut()) {
                    *end = Some(at.max(*start));
                }
            }
            Move::Enter(key, stage) => self.enter(key, stage, at),
            Move::Finish(key) => self.finish(key, at),
        }
    }

    /// The first stage of a lifetime opens a job span; a `Ready` links to
    /// its cause's latest job span (a job readied by itself, to its own).
    fn enter(&mut self, key: u64, stage: Stage, at: SimTime) {
        let cause = match stage {
            Stage::Ready(Some(cause)) if cause != key => self.slot(cause).and_then(|s| s.latest),
            _ => None,
        };
        let jobs = &mut self.dags.entry(job_key_dag(key)).or_default().jobs;
        let index = job_key_index(key);
        if jobs.len() <= index {
            jobs.resize(index + 1, Slot::default());
        }
        let Some(slot) = jobs.get_mut(index) else {
            return;
        };
        let latest = slot.latest.and_then(|i| self.spans.get(i as usize));
        if latest.is_none_or(|life| life.end.is_some()) {
            let life = Life {
                key,
                start: at,
                end: None,
            };
            slot.latest = Some(self.spans.push(life) as u32);
        }
        if let Stage::Ready(own) = stage {
            let link = if own == Some(key) { slot.latest } else { cause };
            slot.first_ready.get_or_insert(link);
        }
    }

    /// A finish closes the key's live job span.
    fn finish(&mut self, key: u64, at: SimTime) {
        let Some(dag) = self.dags.get_mut(&job_key_dag(key)) else {
            return;
        };
        let Some(i) = dag.jobs.get(job_key_index(key)).and_then(|s| s.latest) else {
            return;
        };
        let Some(life) = self.spans.get_mut(i as usize).filter(|l| l.end.is_none()) else {
            return;
        };
        let end = at.max(life.start);
        life.end = Some(end);
        if dag.last.is_none_or(|(e, j)| end > e || (end == e && i < j)) {
            dag.last = Some((end, i));
        }
    }

    /// The job keys of the critical path that ends with job span `last`,
    /// upstream first: each job's first ready-cause link, followed to a
    /// root job. Bounded by `bound` links, against a link cycle.
    fn chain(&self, last: u32, bound: u64) -> Vec<u64> {
        let key = |i: u32| self.spans.get(i as usize).map(|l| l.key);
        let mut chain: Vec<u64> = key(last).into_iter().collect();
        for _ in 0..bound {
            let link = chain
                .last()
                .and_then(|&k| self.slot(k)?.first_ready.flatten());
            let Some(parent) = link.and_then(key) else {
                break;
            };
            chain.push(parent);
        }
        chain.reverse();
        chain
    }
}

/// One `state:*` step of a job the analysis reports on.
struct Step {
    stage: Stage,
    attempt: u64,
    start: SimTime,
    /// `None` while open.
    end: Option<SimTime>,
}

/// Pass two: the steps of one job the analysis reports on, over all its
/// lifetimes, in id order (a job's states never overlap, so that is also
/// end order).
#[derive(Default)]
struct Steps {
    /// The live lifetime's planning attempts (1-based after its first
    /// submit).
    attempts: u64,
    /// While a lifetime is live, the last step is open.
    steps: Vec<Step>,
}

impl Steps {
    /// The job enters `next`, or finishes (`None`).
    fn apply(&mut self, at: SimTime, next: Option<Stage>) {
        match self.steps.last_mut().filter(|s| s.end.is_none()) {
            Some(open) => open.end = Some(at.max(open.start)),
            None => self.attempts = 0,
        }
        let Some(stage) = next else { return };
        if let Stage::Submitted(_) = stage {
            self.attempts += 1;
        }
        let attempt = if stage == Stage::Unready {
            0
        } else {
            self.attempts
        };
        let (start, end) = (at, None);
        self.steps.push(Step {
            stage,
            attempt,
            start,
            end,
        });
    }

    /// Every finished step, with its end.
    fn finished(&self) -> impl Iterator<Item = (&Step, SimTime)> {
        self.steps.iter().filter_map(|s| Some((s, s.end?)))
    }

    /// Its finished steps as path steps of `job`, in time order. Only the
    /// chain root contributes its `state:unready` dwell: a chained job's
    /// overlaps its upstream's whole lifetime (it ends exactly when the
    /// linked parent completes), so the remaining steps tile the makespan
    /// without double counting.
    fn path_steps(&self, job: u64, root: bool) -> Vec<CriticalStep> {
        let mut steps: Vec<CriticalStep> = self
            .finished()
            .filter(|(s, _)| root || s.stage != Stage::Unready)
            .map(|(s, end)| CriticalStep {
                name: s.stage.names().0.to_owned(),
                job,
                site: s.stage.site().map(|site| site.0),
                attempt: s.attempt,
                start_ms: s.start.as_millis(),
                end_ms: end.as_millis(),
            })
            .collect();
        steps.sort_by_key(|s| (s.start_ms, s.end_ms));
        steps
    }

    /// Every finished step classified into the breakdown categories, and
    /// the number of planning attempts.
    fn dwell(&self) -> (DwellBreakdown, u64) {
        let final_attempt = self.steps.iter().map(|s| s.attempt).max().unwrap_or(0);
        let mut dwell = DwellBreakdown::default();
        for (s, end) in self.finished() {
            let bucket = match (s.stage, s.attempt) {
                (Stage::Unready, _) => &mut dwell.dependency_ms,
                (Stage::Ready(_), 0) => &mut dwell.planner_ms,
                (Stage::Submitted(_) | Stage::Queued(_), a) if a == final_attempt => {
                    &mut dwell.queue_ms
                }
                (Stage::Running(_), a) if a == final_attempt => &mut dwell.execution_ms,
                _ => &mut dwell.fault_ms,
            };
            *bucket += ms_between(s.start, end);
        }
        (dwell, final_attempt)
    }
}

/// A critical path per DAG (ascending id), the `top_n` slowest jobs and
/// the span counts `total` and `live`, from the job and DAG events of
/// `log`.
pub(crate) fn analyze(log: &Log, top_n: usize, total: u64, live: u64) -> TraceAnalysis {
    let (paths, slowest) = {
        let mut lives = Lives::default();
        replay(log, |at, next| lives.apply(at, next));
        // Every DAG that has a root span and a finished job: its makespan
        // and its chain.
        let dags = lives.dags.iter();
        let paths: Vec<(u64, u64, Vec<u64>)> = dags
            .filter_map(|(&dag, d)| {
                let (&(start, end), (last_end, last)) = (d.roots.first()?, d.last?);
                let makespan = ms_between(start, end.unwrap_or(last_end));
                Some((dag, makespan, lives.chain(last, total)))
            })
            .collect();
        // The `top_n` longest-lived finished jobs, slowest first; equal
        // entries blame alike, so their order does not matter.
        let finished = lives.spans.since(0);
        let mut slowest: Vec<(u64, u64)> = finished
            .filter_map(|l| Some((ms_between(l.start, l.end?), l.key)))
            .collect();
        slowest.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        slowest.truncate(top_n);
        slowest.shrink_to_fit();
        (paths, slowest)
    };
    // Pass two: the steps of every job named.
    let chained = paths.iter().flat_map(|p| &p.2).copied();
    let named = chained.chain(slowest.iter().map(|s| s.1));
    let mut jobs: BTreeMap<u64, Steps> = named.map(|key| (key, Steps::default())).collect();
    replay(log, |at, next| {
        let (key, next) = match next {
            Move::Enter(key, stage) => (key, Some(stage)),
            Move::Finish(key) => (key, None),
            Move::OpenDag(_) | Move::CloseDag(_) => return,
        };
        if let Some(steps) = jobs.get_mut(&key) {
            steps.apply(at, next);
        }
    });
    let critical_paths = paths.into_iter().map(|(dag, makespan_ms, chain)| {
        let mut steps = Vec::new();
        for (pos, job) in chain.iter().enumerate() {
            if let Some(own) = jobs.get(job) {
                steps.append(&mut own.path_steps(*job, pos == 0));
            }
        }
        CriticalPath {
            dag,
            makespan_ms,
            path_ms: steps.iter().map(CriticalStep::duration_ms).sum(),
            jobs: chain,
            steps,
        }
    });
    let slowest_jobs = slowest.into_iter().map(|(total_ms, job)| {
        let (dwell, attempts) = jobs.get(&job).map(Steps::dwell).unwrap_or_default();
        JobBlame {
            job,
            dag: job_key_dag(job),
            total_ms,
            attempts,
            dwell,
            blame: dwell.blame().to_owned(),
        }
    });
    TraceAnalysis {
        critical_paths: critical_paths.collect(),
        slowest_jobs: slowest_jobs.collect(),
        spans_total: total,
        spans_live: live,
        spans_dropped: 0,
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
    use crate::{JobStep, Telemetry};
    use sphinx_data::SiteId;
    use sphinx_sim::Duration;

    /// The hub's analysis of its log, checked against the oracle's reading
    /// of the spans the log implies.
    fn analyzed(tel: &Telemetry) -> TraceAnalysis {
        let analysis = tel.analyze(usize::MAX);
        assert_eq!(analysis, ScanGraph(&tel.spans()).analyze(usize::MAX));
        analysis
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Jobs 0 and 1 of DAG 1.
    const A: u64 = 1 << 24;
    const B: u64 = (1 << 24) | 1;

    /// `steps` of `job`, each at its second.
    fn record(tel: &Telemetry, job: u64, steps: &[(u64, JobStep)]) {
        for &(at, step) in steps {
            tel.record(t(at), Event::Job { job, step });
        }
    }

    /// Two-job chain: A runs 0–10s, B becomes ready at 10s (cause A),
    /// runs 12–30s.
    fn chain() -> Telemetry {
        let (tel, site) = (Telemetry::new(), SiteId(0));
        let total = Duration::from_secs(10);
        tel.record(t(0), Event::DagSubmitted { dag: 1, jobs: 2 });
        let a = [
            (0, JobStep::Ready { cause: None }),
            (0, JobStep::Submitted { site }),
            (0, JobStep::Running { site }),
            (10, JobStep::Completed { site, total }),
        ];
        record(&tel, A, &a);
        let b = [
            (10, JobStep::Ready { cause: Some(A) }),
            (12, JobStep::Submitted { site }),
            (12, JobStep::Running { site }),
            (30, JobStep::Completed { site, total }),
        ];
        record(&tel, B, &b);
        tel.record(t(30), Event::DagFinished { dag: 1 });
        tel
    }

    #[test]
    fn critical_path_follows_ready_links() {
        let analysis = analyzed(&chain());
        let path = &analysis.critical_paths[0];
        assert_eq!((path.dag, path.jobs.as_slice()), (1, [A, B].as_slice()));
        assert_eq!(path.makespan_ms, 30_000);
        // A's running (10s) + B's ready (2s) + running (18s); B's unready
        // overlaps A entirely and is left out.
        assert_eq!(path.path_ms, 30_000);
        let names: Vec<(&str, u64)> = path
            .steps
            .iter()
            .map(|s| (s.name.as_str(), s.job))
            .collect();
        let a = [
            "state:unready",
            "state:ready",
            "state:submitted",
            "state:running",
        ];
        let b = ["state:ready", "state:submitted", "state:running"];
        let expected = a.map(|n| (n, A)).into_iter().chain(b.map(|n| (n, B)));
        assert_eq!(names, expected.collect::<Vec<_>>());
    }

    #[test]
    fn validate_accepts_sound_graph_and_flags_violations() {
        let g = SpanGraph::new(chain().spans());
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
        let (tel, site) = (Telemetry::new(), SiteId(3));
        // Attempt 1 fails after 10s of running.
        let steps = [
            (0, JobStep::Ready { cause: None }),
            (1, JobStep::Submitted { site }),
            (2, JobStep::Running { site }),
            (12, JobStep::Held { site }), // re-ready after fault
            (13, JobStep::Submitted { site }),
            (14, JobStep::Running { site }),
            (
                20,
                JobStep::Completed {
                    site,
                    total: Duration::from_secs(7),
                },
            ),
        ];
        record(&tel, 5, &steps);
        let blame = &analyzed(&tel).slowest_jobs[0];
        let dwell = blame.dwell;
        assert_eq!((blame.job, blame.attempts), (5, 2));
        assert_eq!(dwell.planner_ms, 1_000);
        // Failed attempt 1: submitted (1s) + running (10s) + re-ready (1s).
        assert_eq!(dwell.fault_ms, 12_000);
        assert_eq!(dwell.queue_ms, 1_000);
        assert_eq!(dwell.execution_ms, 6_000);
        assert_eq!(dwell.blame(), "fault-recovery");
    }

    #[test]
    fn slowest_jobs_orders_by_duration() {
        let slow = analyzed(&chain()).slowest_jobs;
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
        assert_eq!(job_key_index(key), 42);
    }
}
