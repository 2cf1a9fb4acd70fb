//! The dwell clock and the state spans are one record. Random job
//! lifecycles driven through `Telemetry::record` — replans, eliminations,
//! restore steps, grid tags the server never planned and DAG roots
//! re-opened on a fresh hub after a crash — must leave every hub with:
//!
//! * `fsa.dwell_ms.<s>.sum` equal to the summed lengths of the finished
//!   `state:<s>` spans, for every state `s`;
//! * a sound span graph (`SpanGraph::validate()` is empty);
//! * every span and trace line kept: `spans_total` is the number of spans
//!   and `trace_recorded` the number of trace lines, nothing dropped.

use proptest::prelude::*;
use sphinx_data::SiteId;
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::analysis::job_key;
use sphinx_telemetry::{Event, GridStep, JobStep, SpanGraph, Telemetry};

const STATES: [&str; 5] = ["unready", "ready", "submitted", "queued", "running"];

/// Where one job stands, as the driver below models a scheduler and a
/// grid around it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Unready,
    Ready,
    /// Planned, not yet at the gatekeeper.
    Planned,
    /// At the gatekeeper, staging.
    Staging,
    /// In the batch queue; the tracker has not reported it yet.
    InQueue,
    Queued,
    /// On a CPU; the tracker has not reported it yet.
    Started,
    Running,
    Done,
}

struct Run {
    hubs: Vec<Telemetry>,
    dags: u64,
    jobs: u64,
    phase: Vec<Phase>,
    site: Vec<SiteId>,
    finished: Vec<bool>,
    now: u64,
}

impl Run {
    fn new(dags: u64, jobs: u64) -> Self {
        let mut run = Run {
            hubs: Vec::new(),
            dags,
            jobs,
            phase: vec![Phase::Unready; (dags * jobs) as usize],
            site: vec![SiteId(0); (dags * jobs) as usize],
            finished: vec![false; dags as usize],
            now: 0,
        };
        run.hubs.push(Telemetry::new());
        for dag in 0..dags {
            run.record(Event::DagSubmitted {
                dag,
                jobs: jobs as usize,
            });
        }
        run
    }

    fn record(&self, event: Event) {
        let at = SimTime::from_millis(self.now);
        self.hubs.last().unwrap().record(at, event);
    }

    fn job(&self, i: usize, step: JobStep) {
        let job = job_key(i as u64 / self.jobs, i as u64 % self.jobs);
        self.record(Event::Job { job, step });
    }

    fn grid(&self, i: usize, step: GridStep) {
        let (dag, index) = (i as u64 / self.jobs, i as u64 % self.jobs);
        let (site, job) = (self.site[i], job_key(dag, index));
        self.record(Event::Grid { site, job, step });
    }

    /// Advance job `i` one step; `aux` picks the branch and the site.
    fn step(&mut self, i: usize, aux: u64) {
        let site = self.site[i];
        let next = match self.phase[i] {
            Phase::Unready if aux.is_multiple_of(5) => {
                self.job(i, JobStep::Eliminated);
                Phase::Done
            }
            Phase::Unready => {
                // Readied by a finished lower-numbered sibling, if any.
                let first = i - i % self.jobs as usize;
                let cause = (first..i)
                    .rev()
                    .find(|&j| self.phase[j] == Phase::Done)
                    .map(|j| job_key(j as u64 / self.jobs, j as u64 % self.jobs));
                self.job(i, JobStep::Ready { cause });
                Phase::Ready
            }
            Phase::Ready => {
                let site = SiteId((aux % 4) as u32);
                self.site[i] = site;
                // The restore path re-advancing a row the tracker follows.
                let step = if aux.is_multiple_of(7) {
                    JobStep::Resumed { site }
                } else {
                    JobStep::Submitted { site }
                };
                self.job(i, step);
                Phase::Planned
            }
            // A shard committed the plan and died before the submit.
            Phase::Planned if aux.is_multiple_of(6) => {
                self.job(i, JobStep::Reset);
                Phase::Ready
            }
            Phase::Planned => {
                self.grid(i, GridStep::Submit);
                Phase::Staging
            }
            Phase::Staging if aux.is_multiple_of(4) => {
                self.grid(i, GridStep::Cancel);
                self.job(i, JobStep::TimedOut { site });
                Phase::Ready
            }
            Phase::Staging => {
                self.grid(i, GridStep::Queued);
                Phase::InQueue
            }
            Phase::InQueue => {
                self.job(i, JobStep::Queued { site });
                Phase::Queued
            }
            Phase::Queued if aux.is_multiple_of(4) => {
                self.grid(i, GridStep::Hold);
                self.job(i, JobStep::Held { site });
                Phase::Ready
            }
            Phase::Queued => {
                self.grid(i, GridStep::Start);
                Phase::Started
            }
            Phase::Started => {
                self.job(i, JobStep::Running { site });
                Phase::Running
            }
            Phase::Running if aux.is_multiple_of(5) => {
                self.grid(i, GridStep::Hold);
                self.job(i, JobStep::Held { site });
                Phase::Ready
            }
            Phase::Running if aux % 5 == 1 => {
                self.grid(i, GridStep::Cancel);
                self.job(i, JobStep::TimedOut { site });
                Phase::Ready
            }
            Phase::Running => {
                self.grid(i, GridStep::Complete);
                let total = Duration::from_millis(aux);
                self.job(i, JobStep::Completed { site, total });
                Phase::Done
            }
            Phase::Done => Phase::Done,
        };
        self.phase[i] = next;
        let dag = i / self.jobs as usize;
        let jobs = self.jobs as usize;
        let all_done = self.phase[dag * jobs..(dag + 1) * jobs]
            .iter()
            .all(|&p| p == Phase::Done);
        if all_done && !self.finished[dag] {
            self.finished[dag] = true;
            self.record(Event::DagFinished { dag: dag as u64 });
        }
    }

    /// The scheduler dies: a fresh hub re-opens the root of every
    /// unfinished DAG from its submission time, and every job in flight
    /// is back to `Ready` (the tracker died with it).
    fn crash(&mut self) {
        self.hubs.push(Telemetry::new());
        for dag in 0..self.dags {
            if !self.finished[dag as usize] {
                let at = SimTime::ZERO;
                let jobs = self.jobs as usize;
                self.hubs
                    .last()
                    .unwrap()
                    .record(at, Event::DagRestored { dag, jobs });
            }
        }
        for phase in self.phase.iter_mut() {
            if !matches!(phase, Phase::Unready | Phase::Ready | Phase::Done) {
                *phase = Phase::Ready;
            }
        }
    }

    /// A grid tag no server planned: its slot spans are roots.
    fn stray(&self, tag: u64, aux: u64) {
        let step = [
            GridStep::Submit,
            GridStep::Queued,
            GridStep::Start,
            GridStep::Complete,
            GridStep::Hold,
            GridStep::Cancel,
        ][(aux % 6) as usize];
        let (site, job) = (SiteId((aux % 4) as u32), job_key(1_000, tag));
        self.record(Event::Grid { site, job, step });
    }
}

fn check(hub: &Telemetry) {
    let snap = hub.snapshot();
    let spans = hub.spans();
    prop_assert_eq!(snap.spans_total, spans.len() as u64, "every span kept");
    let lines = hub.trace_events().len() as u64;
    prop_assert_eq!(snap.trace_recorded, lines, "every trace line kept");
    prop_assert_eq!((snap.spans_dropped, snap.trace_dropped), (0, 0));
    let problems = SpanGraph::new(&spans).validate();
    prop_assert!(problems.is_empty(), "{:?}", problems);
    for state in STATES {
        let name = format!("state:{state}");
        let spanned: u64 = spans
            .iter()
            .filter(|s| s.name == name && s.end.is_some())
            .map(|s| s.duration_ms())
            .sum();
        let dwell = snap
            .histograms
            .get(&format!("fsa.dwell_ms.{state}"))
            .map_or(0.0, |h| h.sum);
        prop_assert_eq!(dwell, spanned as f64, "state {}", state);
    }
}

proptest! {
    #[test]
    fn prop_dwell_histograms_sum_the_state_spans(
        dags in 1u64..4,
        jobs in 1u64..6,
        ops in proptest::collection::vec((0u8..20, 0u64..1000, 0u64..1000, 0u64..3000), 1..400),
    ) {
        let mut run = Run::new(dags, jobs);
        for &(kind, pick, aux, dt) in &ops {
            run.now += dt;
            match kind {
                0 => run.crash(),
                1 => run.stray(pick, aux),
                _ => run.step((pick % (dags * jobs)) as usize, aux),
            }
        }
        for hub in &run.hubs {
            check(hub);
        }
    }
}
